//! Library detection by package-subtree fingerprinting.
//!
//! LibRadar recognizes a library inside an app by hashing structural
//! features of a package subtree — features that survive package
//! renaming but differ for unrelated code. The reproduction fingerprints
//! a subtree as the SHA-256 of its *package-stripped* method structure:
//! for every method under the prefix, the class-local part of its
//! signature plus an opcode summary of its body, sorted. Two apps
//! bundling the same library version therefore produce identical
//! fingerprints, while first-party code (unique structure per app) never
//! matches the database.

use std::collections::{HashMap, HashSet};

use spector_dex::features::{scan_subtree, FeatureTable};
use spector_dex::model::DexFile;
use spector_dex::sha256::{Digest, Sha256};
use spector_dex::view::InstructionRef;

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
    /// prefix, `dex` contains (at least) the library's methods under
    /// that prefix.
    pub fn add_library(&mut self, name: &str, category: LibCategory, dex: &DexFile) {
        let (paths, members) = scan_subtree(dex, name);
        if let Some((fp, bytes)) = fingerprint_members(dex, &paths, name.len(), &members) {
            self.by_fingerprint.insert(fp, (name.to_owned(), category));
            self.sizes.insert((members.len(), bytes));
        }
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

    /// Detects all known libraries in `dex`.
    ///
    /// Every package prefix present in the app is matched by its
    /// fingerprint (see [`detect_in`](Self::detect_in) for the prefixes
    /// it skips); when nested prefixes both match (a library plus one of
    /// its sub-packages registered separately), both are reported, which
    /// mirrors LibRadar's output granularity in Listing 2.
    pub fn detect(&self, dex: &DexFile) -> Vec<DetectedLibrary> {
        self.detect_in(&mut FeatureTable::of_dex(dex))
    }

    /// [`detect`](Self::detect) over the feature table of a dex, in
    /// prefix order. A subtree is fingerprinted only when its method
    /// count and total line bytes, both known without building a line,
    /// are those of some registered library.
    pub fn detect_in(&self, table: &mut FeatureTable) -> Vec<DetectedLibrary> {
        let mut detected = Vec::new();
        for id in 0..table.tree().len() {
            let size = (table.tree().subtree(id).methods(), table.line_bytes(id));
            if !self.sizes.contains(&size) {
                continue;
            }
            let fp = LibraryFingerprint(Sha256::digest(table.sorted_lines(id)));
            if let Some((name, category)) = self.lookup(&fp) {
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

/// Fingerprints the subtree of methods whose package equals `prefix` or
/// lies beneath it. Returns `None` when no methods are in the subtree.
pub fn fingerprint_subtree(dex: &DexFile, prefix: &str) -> Option<LibraryFingerprint> {
    let (paths, members) = scan_subtree(dex, prefix);
    fingerprint_members(dex, &paths, prefix.len(), &members).map(|(fp, _)| fp)
}

/// Fingerprints the subtree rooted at a prefix of `prefix_len` bytes
/// whose method indices are `members`, given every method's package
/// path, with the total bytes of its feature lines. Returns `None` for
/// an empty subtree.
fn fingerprint_members(
    dex: &DexFile,
    paths: &[&str],
    prefix_len: usize,
    members: &[u32],
) -> Option<(LibraryFingerprint, u64)> {
    if members.is_empty() {
        return None;
    }
    let mut features: Vec<Vec<u8>> = Vec::with_capacity(members.len());
    for &i in members {
        let method = &dex.methods[i as usize];
        let path = paths[i as usize];
        // Package-stripped structure: the sub-package path *relative to
        // the prefix*, dotted, plus class/method/descriptor, plus an
        // opcode string. Renaming the root package leaves all of this
        // intact.
        let relative = &path.as_bytes()[prefix_len.min(path.len())..];
        let (_, class, name, descriptor) = method.sig.parts();
        let mut feature = Vec::with_capacity(
            relative.len() + method.sig.as_smali().len() + method.code.instructions.len() + 4,
        );
        feature.extend(relative.iter().map(|&b| if b == b'/' { b'.' } else { b }));
        feature.push(b'|');
        for part in [class, name, descriptor] {
            feature.extend_from_slice(part.as_bytes());
            feature.push(b'|');
        }
        feature.extend(
            method
                .code
                .instructions
                .iter()
                .map(|inst| InstructionRef::of(inst).letter()),
        );
        features.push(feature);
    }
    features.sort_unstable();
    let mut hasher = Sha256::new();
    for feature in &features {
        hasher.update(feature);
        hasher.update(b"\n");
    }
    let bytes = features.iter().map(|f| f.len() as u64).sum();
    Some((LibraryFingerprint(hasher.finalize()), bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::features::PackageTree;
    use spector_dex::model::{CodeItem, Instruction, MethodDef};
    use spector_dex::sig::MethodSig;

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
        let original = fingerprint_subtree(&lib_dex("com.vendor.sdk"), "com.vendor.sdk").unwrap();
        let renamed = fingerprint_subtree(&lib_dex("obf.a.b"), "obf.a.b").unwrap();
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
            fingerprint_subtree(&dex, "com.vendor.sdk"),
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
        db.add_library("com.vendor.sdk", LibCategory::Utility, &dex);
        let found = db.detect(&dotted);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].in_app_prefix, "com.vendor.sdk");
    }

    #[test]
    fn fingerprint_differs_for_different_structure() {
        let a = fingerprint_subtree(&lib_dex("com.vendor.sdk"), "com.vendor.sdk").unwrap();
        let mut other = lib_dex("com.vendor.sdk");
        other.methods[0].code.instructions.push(Instruction::Nop);
        let b = fingerprint_subtree(&other, "com.vendor.sdk").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_none_for_empty_subtree() {
        assert!(fingerprint_subtree(&lib_dex("com.a"), "org.missing").is_none());
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
        let a = fingerprint_subtree(&dex, "com.vendor.sdk").unwrap();
        let b = fingerprint_subtree(&with_sibling, "com.vendor.sdk").unwrap();
        assert_eq!(a, b);
        dex.methods.push(MethodDef {
            sig: MethodSig::new("com.vendor.sdk.net", "Z", "w", "()V"),
            code: CodeItem::default(),
        });
        let c = fingerprint_subtree(&dex, "com.vendor.sdk").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn detect_finds_known_library_even_renamed() {
        let mut db = LibraryDb::new();
        db.add_library(
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
        let detected = db.detect(&app);
        assert_eq!(detected.len(), 1);
        assert_eq!(detected[0].name, "com.adnet.sdk");
        assert_eq!(detected[0].in_app_prefix, "x.y");
        assert_eq!(detected[0].category, LibCategory::Advertisement);
    }

    #[test]
    fn first_party_code_not_detected() {
        let mut db = LibraryDb::new();
        db.add_library(
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
        assert!(db.detect(&app).is_empty());
    }

    #[test]
    fn detect_reports_multiple_libraries() {
        let mut db = LibraryDb::new();
        db.add_library(
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk"),
        );
        let analytics = {
            let mut d = lib_dex("io.metrics");
            d.methods[1].code.instructions.push(Instruction::Nop);
            d
        };
        db.add_library("io.metrics", LibCategory::MobileAnalytics, &analytics);
        let app = merge(&[lib_dex("com.adnet.sdk"), analytics.clone()]);
        let detected = db.detect(&app);
        let names: Vec<&str> = detected.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"com.adnet.sdk"));
        assert!(names.contains(&"io.metrics"));
    }

    #[test]
    fn package_prefixes_enumerates_all_levels() {
        let dex = lib_dex("com.vendor.sdk");
        let tree = PackageTree::new(&dex);
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
