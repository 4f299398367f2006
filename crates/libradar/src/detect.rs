//! Library detection by package-subtree fingerprinting.
//!
//! LibRadar recognizes a library inside an app by hashing structural
//! features of a package subtree — features that survive package
//! renaming but differ for unrelated code. The reproduction fingerprints
//! a subtree as the SHA-256 of its *package-stripped* method structure:
//! for every method under the prefix, one line of the sub-package path
//! below the prefix, the class, method and descriptor, and an opcode
//! letter per instruction; the lines sorted, each ended by a newline.
//! Two apps bundling the same library version therefore produce
//! identical fingerprints, while first-party code (unique structure per
//! app) never matches the database.
//!
//! The lines come from a [`FeatureTable`] both when a library is
//! registered and when an app is scanned, so the two read one
//! definition of a fingerprint.

use std::collections::{HashMap, HashSet};

use spector_dex::features::FeatureTable;
use spector_dex::sha256::{Digest, Sha256};
use spector_dex::view::DexView;

use crate::category::LibCategory;

/// A structural fingerprint of a package subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LibraryFingerprint(pub Digest);

/// A library found in an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedLibrary {
    /// Canonical library package name from the database (which may
    /// differ from the in-app package when the copy was renamed).
    pub name: String,
    /// Package prefix the library occupies inside this app.
    pub in_app_prefix: String,
    /// Category from the database, if known.
    pub category: LibCategory,
}

/// The fingerprint database built from known libraries.
#[derive(Debug, Clone, Default)]
pub struct LibraryDb {
    by_fingerprint: HashMap<LibraryFingerprint, (String, LibCategory)>,
    /// Method count and total feature-line bytes of each registered
    /// subtree. An equal fingerprint hashes equal bytes, one line per
    /// method, so a subtree whose pair is not here cannot match.
    sizes: HashSet<(usize, u64)>,
}

impl LibraryDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a known library: `name` is its canonical package
    /// prefix, dotted, and `table` the feature table of a dex holding
    /// (at least) the library's methods under that prefix. The subtree
    /// the table's tree [finds](spector_dex::PackageTree::find) under
    /// `name` is fingerprinted as [`detect_in`](Self::detect_in)
    /// fingerprints an app's; a name the tree does not hold registers
    /// nothing.
    pub fn add_library(&mut self, name: &str, category: LibCategory, table: &mut FeatureTable) {
        let Some(id) = table.tree().find(name) else {
            return;
        };
        self.sizes.insert(size(table, id));
        self.by_fingerprint
            .insert(fingerprint(table, id), (name.to_owned(), category));
    }

    /// Number of registered fingerprints.
    pub fn len(&self) -> usize {
        self.by_fingerprint.len()
    }

    /// Returns `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.by_fingerprint.is_empty()
    }

    /// Looks up a fingerprint.
    pub fn lookup(&self, fp: &LibraryFingerprint) -> Option<(&str, LibCategory)> {
        self.by_fingerprint
            .get(fp)
            .map(|(name, cat)| (name.as_str(), *cat))
    }

    /// Detects all known libraries in the dex `view`.
    ///
    /// Every package prefix present in the app is matched by its
    /// fingerprint (see [`detect_in`](Self::detect_in) for the prefixes
    /// it skips); when nested prefixes both match (a library plus one of
    /// its sub-packages registered separately), both are reported, which
    /// mirrors LibRadar's output granularity in Listing 2.
    pub fn detect(&self, view: &DexView) -> Vec<DetectedLibrary> {
        self.detect_in(&mut FeatureTable::new(view))
    }

    /// [`detect`](Self::detect) over the feature table of a dex, in
    /// prefix order. A subtree is fingerprinted only when its method
    /// count and total line bytes are those of some registered library:
    /// an equal fingerprint hashes equal lines, so no other subtree can
    /// match.
    pub fn detect_in(&self, table: &mut FeatureTable) -> Vec<DetectedLibrary> {
        let mut detected = Vec::new();
        for id in 0..table.tree().len() {
            if !self.sizes.contains(&size(table, id)) {
                continue;
            }
            if let Some((name, category)) = self.lookup(&fingerprint(table, id)) {
                detected.push(DetectedLibrary {
                    name: name.to_owned(),
                    in_app_prefix: table.tree().subtree(id).prefix(),
                    category,
                });
            }
        }
        detected
    }
}

/// The method count and total feature-line bytes of subtree `id`, both
/// known without building a line: what an equal fingerprint implies.
fn size(table: &FeatureTable, id: usize) -> (usize, u64) {
    (table.tree().subtree(id).methods(), table.line_bytes(id))
}

/// The fingerprint of subtree `id`: the SHA-256 of its sorted feature
/// lines.
fn fingerprint(table: &mut FeatureTable, id: usize) -> LibraryFingerprint {
    LibraryFingerprint(Sha256::digest(table.sorted_lines(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint;
    use crate::tables::{add_library, detect, table_fingerprint};
    use spector_dex::features::PackageTree;
    use spector_dex::model::{CodeItem, DexFile, Instruction, MethodDef};
    use spector_dex::sig::MethodSig;
    use spector_dex::write_dex;

    /// Builds a dex whose methods live under `root`.
    fn lib_dex(root: &str) -> DexFile {
        let methods = vec![
            MethodDef {
                sig: MethodSig::new(root, "Loader", "init", "()V"),
                code: CodeItem {
                    instructions: vec![Instruction::Const(1), Instruction::Return],
                },
            },
            MethodDef {
                sig: MethodSig::new(&format!("{root}.cache"), "Store", "put", "(I)V"),
                code: CodeItem {
                    instructions: vec![Instruction::Nop, Instruction::Return],
                },
            },
        ];
        DexFile {
            methods,
            classes: vec![],
        }
    }

    fn merge(dexes: &[DexFile]) -> DexFile {
        let mut out = DexFile::new();
        for dex in dexes {
            out.methods.extend(dex.methods.iter().cloned());
        }
        out
    }

    #[test]
    fn fingerprint_survives_package_rename() {
        let original = table_fingerprint(&lib_dex("com.vendor.sdk"), "com.vendor.sdk").unwrap();
        let renamed = table_fingerprint(&lib_dex("obf.a.b"), "obf.a.b").unwrap();
        assert_eq!(original, renamed);
    }

    #[test]
    fn fingerprint_hashes_the_dotted_feature_lines() {
        // One line per method: the package below the prefix (`/` read
        // as `.`), class, method and descriptor, then the opcodes;
        // lines sorted, each ended by a newline.
        let expected = Sha256::digest(b".cache|Store|put|(I)V|nr\n|Loader|init|()V|cr\n");
        let dex = lib_dex("com.vendor.sdk");
        assert_eq!(
            table_fingerprint(&dex, "com.vendor.sdk"),
            Some(LibraryFingerprint(expected))
        );
        // A class path written with a `.` inside a smali component is
        // the same package, so the same subtree and fingerprint.
        let mut dotted = dex.clone();
        for method in &mut dotted.methods {
            let smali = method.sig.as_smali().replacen('/', ".", 1);
            method.sig = smali.parse().unwrap();
        }
        assert!(dotted.methods[1]
            .sig
            .as_smali()
            .starts_with("Lcom.vendor/sdk/cache/"));
        let mut db = LibraryDb::new();
        add_library(&mut db, "com.vendor.sdk", LibCategory::Utility, &dex);
        let found = detect(&db, &dotted);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].in_app_prefix, "com.vendor.sdk");
    }

    #[test]
    fn fingerprint_differs_for_different_structure() {
        let a = table_fingerprint(&lib_dex("com.vendor.sdk"), "com.vendor.sdk").unwrap();
        let mut other = lib_dex("com.vendor.sdk");
        other.methods[0].code.instructions.push(Instruction::Nop);
        let b = table_fingerprint(&other, "com.vendor.sdk").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_none_for_empty_subtree() {
        assert!(table_fingerprint(&lib_dex("com.a"), "org.missing").is_none());
    }

    #[test]
    fn sibling_package_not_included_in_subtree() {
        // com.vendor.sdkextra must not be folded into com.vendor.sdk.
        let mut dex = lib_dex("com.vendor.sdk");
        let with_sibling = {
            let mut d = lib_dex("com.vendor.sdk");
            d.methods.push(MethodDef {
                sig: MethodSig::new("com.vendor.sdkextra", "X", "y", "()V"),
                code: CodeItem::default(),
            });
            d
        };
        let a = table_fingerprint(&dex, "com.vendor.sdk").unwrap();
        let b = table_fingerprint(&with_sibling, "com.vendor.sdk").unwrap();
        assert_eq!(a, b);
        dex.methods.push(MethodDef {
            sig: MethodSig::new("com.vendor.sdk.net", "Z", "w", "()V"),
            code: CodeItem::default(),
        });
        let c = table_fingerprint(&dex, "com.vendor.sdk").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn detect_finds_known_library_even_renamed() {
        let mut db = LibraryDb::new();
        add_library(
            &mut db,
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk"),
        );
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());

        // App bundles a renamed copy plus first-party code.
        let mut app = lib_dex("x.y"); // renamed copy of the ad sdk
        app.methods.push(MethodDef {
            sig: MethodSig::new("com.myapp", "Main", "onCreate", "()V"),
            code: CodeItem {
                instructions: vec![Instruction::Return],
            },
        });
        let detected = detect(&db, &app);
        assert_eq!(detected.len(), 1);
        assert_eq!(detected[0].name, "com.adnet.sdk");
        assert_eq!(detected[0].in_app_prefix, "x.y");
        assert_eq!(detected[0].category, LibCategory::Advertisement);
    }

    #[test]
    fn first_party_code_not_detected() {
        let mut db = LibraryDb::new();
        add_library(
            &mut db,
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk"),
        );
        let app = lib_dex("com.firstparty.app");
        // Same shape but different class names? lib_dex generates
        // identical structure, so it *will* match — mutate to make it
        // genuinely first-party.
        let mut app = app;
        app.methods[0]
            .code
            .instructions
            .insert(0, Instruction::Const(9));
        assert!(detect(&db, &app).is_empty());
    }

    #[test]
    fn detect_reports_multiple_libraries() {
        let mut db = LibraryDb::new();
        add_library(
            &mut db,
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk"),
        );
        let analytics = {
            let mut d = lib_dex("io.metrics");
            d.methods[1].code.instructions.push(Instruction::Nop);
            d
        };
        add_library(
            &mut db,
            "io.metrics",
            LibCategory::MobileAnalytics,
            &analytics,
        );
        let app = merge(&[lib_dex("com.adnet.sdk"), analytics.clone()]);
        let detected = detect(&db, &app);
        let names: Vec<&str> = detected.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"com.adnet.sdk"));
        assert!(names.contains(&"io.metrics"));
    }

    #[test]
    fn registration_records_the_reference_fingerprint_and_size() {
        let dex = lib_dex("com.vendor.sdk");
        let (fp, methods, bytes) =
            fingerprint::fingerprint_with_size(&dex, "com.vendor.sdk").unwrap();
        let mut db = LibraryDb::new();
        add_library(&mut db, "com.vendor.sdk", LibCategory::Utility, &dex);
        assert_eq!(db.len(), 1);
        assert_eq!(
            db.lookup(&fp),
            Some(("com.vendor.sdk", LibCategory::Utility))
        );
        assert_eq!(db.sizes, HashSet::from([(methods, bytes)]));
        // A name that is no level of the tree registers nothing, as the
        // reference finds no subtree there.
        for absent in ["com.vendor.sd", "com/vendor/sdk", "org.missing"] {
            let mut db = LibraryDb::new();
            add_library(&mut db, absent, LibCategory::Utility, &dex);
            assert!(db.is_empty(), "{absent}");
            assert_eq!(fingerprint::fingerprint_subtree(&dex, absent), None);
        }
    }

    #[test]
    fn the_empty_name_registers_only_where_the_tree_has_an_empty_prefix() {
        // Default-package methods and no package with a leading dot: the
        // reference fingerprints them under `""`, but the tree has no
        // empty prefix, so nothing is registered.
        let mut dex = lib_dex("com.vendor.sdk");
        dex.methods.push(MethodDef {
            sig: MethodSig::new("", "Main", "run", "()V"),
            code: CodeItem::default(),
        });
        assert!(fingerprint::fingerprint_subtree(&dex, "").is_some());
        let mut db = LibraryDb::new();
        add_library(&mut db, "", LibCategory::Utility, &dex);
        assert!(db.is_empty());
        // A leading dot makes the empty prefix; it holds the default
        // package too, and registers as the reference says.
        dex.methods.push(MethodDef {
            sig: "L.x/K;->m()V".parse().unwrap(),
            code: CodeItem::default(),
        });
        add_library(&mut db, "", LibCategory::Utility, &dex);
        let (fp, methods, bytes) = fingerprint::fingerprint_with_size(&dex, "").unwrap();
        assert_eq!(methods, 2);
        assert_eq!(db.lookup(&fp), Some(("", LibCategory::Utility)));
        assert!(db.sizes.contains(&(methods, bytes)));
    }

    #[test]
    fn package_prefixes_enumerates_all_levels() {
        let dex = lib_dex("com.vendor.sdk");
        let bytes = write_dex(&dex);
        let view = DexView::parse(&bytes).unwrap();
        let tree = PackageTree::new(&view);
        let prefixes: Vec<(String, Vec<u32>)> = tree
            .subtrees()
            .map(|subtree| (subtree.prefix(), subtree.members()))
            .collect();
        let expected = [
            ("com", vec![0, 1]),
            ("com.vendor", vec![0, 1]),
            ("com.vendor.sdk", vec![0, 1]),
            ("com.vendor.sdk.cache", vec![1]),
        ]
        .map(|(prefix, members)| (prefix.to_owned(), members));
        assert_eq!(prefixes, expected);
    }
}
