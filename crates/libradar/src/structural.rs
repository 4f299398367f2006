//! The obfuscation-resistant detection tier: a signature index over
//! structural subtree profiles.
//!
//! The exact [`crate::LibraryDb`] fingerprint requires a byte-identical
//! identifier structure; one mangled class name and the SHA-256 never
//! matches again. This tier matches on [`StructuralProfile`]s instead —
//! multisets of hashed rename-invariant features (see
//! `spector_dex::features`) — scored by exact multiset Jaccard
//! similarity against every known library sharing at least one feature
//! bucket. An unmodified (but arbitrarily renamed, mangled, reordered,
//! junk-padded) library copy scores 1.0; unrelated code shares only
//! generic features and stays far below the match threshold.
//!
//! The three tiers compose into a cascade, recorded per lookup as a
//! [`DetectTier`]: `LibTrie` prefix (fast path, dies on package rename)
//! → exact fingerprint (survives rename, dies on identifier mangling)
//! → structural match (survives all simulated tiers) → miss.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};
use spector_dex::features::{profile_total, subtree_profile, FeatureTable, StructuralProfile};
use spector_dex::model::DexFile;

use crate::category::LibCategory;

/// Which cascade tier attributed a library lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DetectTier {
    /// `LibTrie` longest-prefix / majority vote on the raw package name.
    Trie,
    /// Exact `LibraryDb` subtree fingerprint bridged a renamed prefix.
    ExactFingerprint,
    /// Structural profile similarity bridged a mangled prefix.
    Structural,
    /// No tier produced a verdict (first-party or unknown code).
    Miss,
}

impl DetectTier {
    /// All tiers in cascade order.
    pub const ALL: [DetectTier; 4] = [
        DetectTier::Trie,
        DetectTier::ExactFingerprint,
        DetectTier::Structural,
        DetectTier::Miss,
    ];

    /// Stable snake_case label (telemetry/stat key spelling).
    pub fn label(self) -> &'static str {
        match self {
            DetectTier::Trie => "trie_hit",
            DetectTier::ExactFingerprint => "exact_fp_hit",
            DetectTier::Structural => "structural_hit",
            DetectTier::Miss => "miss",
        }
    }
}

/// Minimum multiset cardinality before a query subtree is even scored:
/// tiny subtrees (a class or two of generic glue) carry too little
/// evidence to claim a library match.
pub const MIN_MATCH_FEATURES: u64 = 10;

/// Similarity a best match must reach. A true library copy scores 1.0
/// under every obfuscation tier (features are invariant by design), so
/// the threshold's only job is rejecting partial overlaps: parent
/// prefixes that bundle a library beside other code, and coincidental
/// filler resemblance. Both empirically land well below 0.8.
pub const MATCH_THRESHOLD: f64 = 0.8;

/// Whether multisets of `a` and `b` features can reach
/// [`MATCH_THRESHOLD`]: multiset Jaccard is at most `min / max`, so a
/// score of 0.8 needs `5·min ≥ 4·max`. Integer arithmetic keeps the
/// test exact at the edges.
pub fn within_band(a: u64, b: u64) -> bool {
    5 * a.min(b) >= 4 * a.max(b)
}

/// A library recognized by structural similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralMatch {
    /// Canonical library package from the index.
    pub name: String,
    /// Package prefix the copy occupies inside the app.
    pub in_app_prefix: String,
    /// Category from the index.
    pub category: LibCategory,
    /// Multiset Jaccard similarity in `[threshold, 1.0]`.
    pub score: f64,
}

/// Signature index over structural profiles: feature hash → posting list
/// of `(library, multiplicity)`, scored by exact multiset Jaccard.
#[derive(Debug, Clone, Default)]
pub struct StructuralIndex {
    libs: Vec<(String, LibCategory, u64)>,
    buckets: HashMap<u64, Vec<(u32, u32)>>,
    /// Distinct library feature totals, sorted.
    totals: Vec<u64>,
}

impl StructuralIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a known library from its dex (methods under `name`).
    pub fn add_library(&mut self, name: &str, category: LibCategory, dex: &DexFile) {
        self.add_profile(name, category, &subtree_profile(dex, name));
    }

    /// Registers a known library from a precomputed profile.
    pub fn add_profile(&mut self, name: &str, category: LibCategory, profile: &StructuralProfile) {
        if profile.is_empty() {
            return;
        }
        let id = self.libs.len() as u32;
        let total = profile.total();
        self.libs.push((name.to_owned(), category, total));
        for &(hash, count) in &profile.features {
            self.buckets.entry(hash).or_default().push((id, count));
        }
        if let Err(at) = self.totals.binary_search(&total) {
            self.totals.insert(at, total);
        }
    }

    /// Number of indexed libraries.
    pub fn len(&self) -> usize {
        self.libs.len()
    }

    /// Returns `true` when no libraries are indexed.
    pub fn is_empty(&self) -> bool {
        self.libs.is_empty()
    }

    /// Whether a profile of `total` features is worth scoring: it has at
    /// least [`MIN_MATCH_FEATURES`] and lies [`within_band`] of some
    /// indexed library. [`best_match`](Self::best_match) returns `None`
    /// for every other profile.
    pub fn admits(&self, total: u64) -> bool {
        if total < MIN_MATCH_FEATURES {
            return false;
        }
        // The smallest library total not below the band's lower edge is
        // the one that can still be inside its upper edge.
        let at = self.totals.partition_point(|&l| 5 * l < 4 * total);
        self.totals.get(at).is_some_and(|&l| within_band(total, l))
    }

    /// Scores `profile` against the index and returns the best library at
    /// or above [`MATCH_THRESHOLD`], if any.
    ///
    /// Multiset Jaccard: `Σ min(q, l) / (Σq + Σl − Σ min(q, l))`,
    /// accumulated per library id through the shared-bucket posting lists
    /// so only libraries with overlap are scored.
    pub fn best_match(&self, profile: &StructuralProfile) -> Option<StructuralMatch> {
        self.best_match_with(profile, &mut Overlaps::default())
    }

    /// [`best_match`](Self::best_match), accumulating in `overlaps`,
    /// which it leaves zeroed: only the libraries that share a feature
    /// with `profile` are added into and scored.
    fn best_match_with(
        &self,
        profile: &StructuralProfile,
        overlaps: &mut Overlaps,
    ) -> Option<StructuralMatch> {
        let q_total = profile.total();
        if q_total < MIN_MATCH_FEATURES {
            return None;
        }
        overlaps.sums.resize(self.libs.len(), 0);
        for &(hash, q_count) in &profile.features {
            if let Some(postings) = self.buckets.get(&hash) {
                for &(lib, l_count) in postings {
                    let sum = &mut overlaps.sums[lib as usize];
                    if *sum == 0 {
                        overlaps.touched.push(lib);
                    }
                    *sum += u64::from(q_count.min(l_count));
                }
            }
        }
        // Libraries are scored in id order and only a strictly higher
        // score replaces the best, so ties go to the lower library id.
        overlaps.touched.sort_unstable();
        let mut best: Option<(usize, f64)> = None;
        for &lib in &overlaps.touched {
            let lib = lib as usize;
            let overlap = std::mem::take(&mut overlaps.sums[lib]);
            let (_, _, l_total) = self.libs[lib];
            let union = q_total + l_total - overlap;
            let score = overlap as f64 / union as f64;
            if best.is_none_or(|(_, b_score)| score > b_score) {
                best = Some((lib, score));
            }
        }
        overlaps.touched.clear();
        let (lib, score) = best?;
        if score < MATCH_THRESHOLD {
            return None;
        }
        let (name, category, _) = &self.libs[lib];
        Some(StructuralMatch {
            name: name.clone(),
            in_app_prefix: String::new(),
            category: *category,
            score,
        })
    }

    /// Detects indexed libraries in `dex`: every package prefix that
    /// could match is profiled and scored (see
    /// [`detect_in`](Self::detect_in)); prefixes whose best match clears
    /// the threshold are reported, sorted by in-app prefix.
    ///
    /// Only the actual root of a bundled copy scores near 1.0: parent
    /// prefixes shift every depth-sensitive feature and dilute the
    /// union, child prefixes lose the root's features — both fall below
    /// the threshold by construction.
    pub fn detect(&self, dex: &DexFile) -> Vec<StructuralMatch> {
        self.detect_in(&mut FeatureTable::of_dex(dex))
    }

    /// [`detect`](Self::detect) over the feature table of a dex. A
    /// subtree is listed and profiled only when its feature total, known
    /// from its method count, is [admitted](Self::admits).
    pub fn detect_in(&self, table: &mut FeatureTable) -> Vec<StructuralMatch> {
        let mut matches = Vec::new();
        let mut overlaps = Overlaps::default();
        for id in 0..table.tree().len() {
            if !self.admits(profile_total(table.tree().subtree(id).methods())) {
                continue;
            }
            if let Some(mut m) = self.best_match_with(&table.profile(id), &mut overlaps) {
                m.in_app_prefix = table.tree().subtree(id).prefix();
                matches.push(m);
            }
        }
        matches
    }
}

/// Overlap sums by library id, zero outside a scoring, and the ids a
/// scoring touched: reused from subtree to subtree.
#[derive(Debug, Default)]
struct Overlaps {
    sums: Vec<u64>,
    touched: Vec<u32>,
}

/// In-app prefix → canonical library package aliases, learned from
/// corpus-wide detection. `resolve` bridges an obfuscated origin package
/// back to canonical space so the existing verdict machinery (trie,
/// lists) can run on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixAliases {
    map: BTreeMap<String, String>,
}

impl PrefixAliases {
    /// Creates an empty alias table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `prefix` (as seen in an app) as an alias of `canonical`.
    /// Identity aliases are skipped: an un-renamed library needs no
    /// bridging and must not perturb the fast path.
    pub fn insert(&mut self, prefix: &str, canonical: &str) {
        if prefix != canonical {
            self.map.insert(prefix.to_owned(), canonical.to_owned());
        }
    }

    /// Number of recorded aliases.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when no aliases are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rewrites `origin` onto canonical space via its longest aliased
    /// dotted prefix; `None` when no alias applies.
    pub fn resolve(&self, origin: &str) -> Option<String> {
        let mut end = origin.len();
        loop {
            let prefix = &origin[..end];
            if let Some(canonical) = self.map.get(prefix) {
                return Some(format!("{canonical}{}", &origin[end..]));
            }
            end = origin[..end].rfind('.')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::model::{CodeItem, Instruction, MethodDef, MethodRef, NetworkOp};
    use spector_dex::sig::MethodSig;

    /// Two-class library with an internal call and a network op; `salt`
    /// varies the structure so different libraries stay distinct.
    fn lib_dex(root: &str, salt: usize) -> DexFile {
        let mut methods = vec![
            MethodDef {
                sig: MethodSig::new(root, "Sdk", "init", "(Landroid/content/Context;)V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Const(1),
                        Instruction::Invoke(MethodRef::Internal(1)),
                        Instruction::Return,
                    ],
                },
            },
            MethodDef {
                sig: MethodSig::new(&format!("{root}.net"), "Fetcher", "run", "()V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Network(NetworkOp {
                            domain: "x.example".into(),
                            port: 443,
                            send_bytes: 1,
                            recv_bytes: 2,
                            connector: spector_dex::model::Connector::AndroidOkHttp,
                            shape: spector_dex::model::WireShape::Plain,
                        }),
                        Instruction::Return,
                    ],
                },
            },
        ];
        for i in 0..(4 + salt % 3) {
            methods.push(MethodDef {
                sig: MethodSig::new(
                    root,
                    &format!("C{i}"),
                    "m",
                    if i % 2 == salt % 2 { "(I)V" } else { "()V" },
                ),
                code: CodeItem {
                    instructions: vec![Instruction::Const(i as u32), Instruction::Return],
                },
            });
        }
        DexFile {
            methods,
            classes: vec![],
        }
    }

    fn index() -> StructuralIndex {
        let mut idx = StructuralIndex::new();
        idx.add_library(
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk", 0),
        );
        idx.add_library(
            "io.metrics",
            LibCategory::MobileAnalytics,
            &lib_dex("io.metrics", 1),
        );
        idx
    }

    #[test]
    fn identical_copy_scores_one() {
        let idx = index();
        let profile = subtree_profile(&lib_dex("com.adnet.sdk", 0), "com.adnet.sdk");
        let m = idx.best_match(&profile).expect("match");
        assert_eq!(m.name, "com.adnet.sdk");
        assert_eq!(m.category, LibCategory::Advertisement);
        assert!((m.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn renamed_and_mangled_copy_still_matches() {
        let idx = index();
        // Same structure under a fresh root with mangled identifiers.
        let mut copy = lib_dex("qx.ab", 0);
        for (i, m) in copy.methods.iter_mut().enumerate() {
            m.sig = MethodSig::new(&m.sig.package(), &format!("k{i}"), "a", m.sig.descriptor());
        }
        let detected = idx.detect(&copy);
        assert!(detected
            .iter()
            .any(|m| m.name == "com.adnet.sdk" && m.in_app_prefix == "qx.ab"));
    }

    #[test]
    fn parent_and_child_prefixes_do_not_match() {
        let idx = index();
        // App dex: renamed lib under qx.ab plus unrelated sibling code
        // under qx.other — the parent prefix "qx" must not match.
        let mut app = lib_dex("qx.ab", 0);
        for i in 0..6 {
            app.methods.push(MethodDef {
                sig: MethodSig::new("qx.other", &format!("O{i}"), "f", "(J)V"),
                code: CodeItem {
                    instructions: vec![Instruction::Nop, Instruction::Return],
                },
            });
        }
        let matches = idx.detect(&app);
        assert!(matches.iter().all(|m| m.in_app_prefix != "qx"));
        assert!(matches.iter().any(|m| m.in_app_prefix == "qx.ab"));
        // The child prefix qx.ab.net alone lacks the root's features.
        assert!(matches.iter().all(|m| m.in_app_prefix != "qx.ab.net"));
    }

    #[test]
    fn unrelated_code_stays_below_threshold() {
        let idx = index();
        let mut first_party = DexFile::new();
        for i in 0..20 {
            first_party.methods.push(MethodDef {
                sig: MethodSig::new(
                    "com.myapp.data",
                    &format!("F{}", i / 4),
                    &format!("f{i}"),
                    "()V",
                ),
                code: CodeItem {
                    instructions: vec![Instruction::Const(i as u32), Instruction::Return],
                },
            });
        }
        assert!(idx.detect(&first_party).is_empty());
    }

    #[test]
    fn tiny_subtrees_are_not_scored() {
        let idx = index();
        let mut dex = DexFile::new();
        dex.methods.push(MethodDef {
            sig: MethodSig::new("a.b", "C", "m", "()V"),
            code: CodeItem {
                instructions: vec![Instruction::Return],
            },
        });
        let profile = subtree_profile(&dex, "a.b");
        assert!(profile.total() < MIN_MATCH_FEATURES);
        assert!(idx.best_match(&profile).is_none());
    }

    #[test]
    fn band_edges_are_exact() {
        assert!(within_band(40, 50));
        assert!(within_band(50, 62));
        assert!(!within_band(39, 50));
        assert!(!within_band(50, 63));
        // Symmetric, and the same answer as the float ratio test.
        for a in 1..200u64 {
            for b in 1..200u64 {
                assert_eq!(within_band(a, b), within_band(b, a));
                let ratio = a.min(b) as f64 / a.max(b) as f64;
                assert_eq!(within_band(a, b), ratio >= MATCH_THRESHOLD, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn admits_only_totals_inside_some_band() {
        let mut idx = StructuralIndex::new();
        for total in [20u64, 50] {
            let features = (0..total).map(|h| (h, 1)).collect();
            idx.add_profile("lib", LibCategory::Utility, &StructuralProfile { features });
        }
        assert!(!idx.admits(MIN_MATCH_FEATURES - 1));
        assert!(idx.admits(16) && idx.admits(25));
        assert!(!idx.admits(15) && !idx.admits(26) && !idx.admits(39));
        assert!(idx.admits(40) && idx.admits(62));
        assert!(!idx.admits(63));
        assert!(!StructuralIndex::new().admits(50));
    }

    #[test]
    fn ties_go_to_the_lower_library_id_whichever_shares_the_first_feature() {
        // The query has features 0..10. Library 0 lacks feature 0 and
        // library 1 lacks feature 9; each has one feature of its own,
        // so both score 9 / 11. Library 1 is the first to share a
        // feature with the query, and still loses the tie.
        let profile = |features: Vec<u64>| StructuralProfile {
            features: features.into_iter().map(|h| (h, 1)).collect(),
        };
        let mut idx = StructuralIndex::new();
        idx.add_profile(
            "lib0",
            LibCategory::Utility,
            &profile((1..10).chain([100]).collect()),
        );
        idx.add_profile(
            "lib1",
            LibCategory::Advertisement,
            &profile((0..9).chain([101]).collect()),
        );
        let m = idx
            .best_match(&profile((0..10).collect()))
            .expect("both clear 0.8");
        assert_eq!(m.name, "lib0");
        assert!((m.score - 9.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn alias_resolution_rewrites_longest_prefix() {
        let mut aliases = PrefixAliases::new();
        aliases.insert("qx.ab", "com.adnet.sdk");
        aliases.insert("qx.ab.net", "io.metrics");
        aliases.insert("com.adnet.sdk", "com.adnet.sdk"); // identity: dropped
        assert_eq!(aliases.len(), 2);
        assert_eq!(
            aliases.resolve("qx.ab.cache").as_deref(),
            Some("com.adnet.sdk.cache")
        );
        assert_eq!(aliases.resolve("qx.ab").as_deref(), Some("com.adnet.sdk"));
        assert_eq!(
            aliases.resolve("qx.ab.net.deep").as_deref(),
            Some("io.metrics.deep")
        );
        assert_eq!(aliases.resolve("qx.abc"), None);
        assert_eq!(aliases.resolve("com.other"), None);
        for origin in [
            "qx.ab.cache",
            "qx.ab",
            "qx.ab.net.deep",
            "qx.abc",
            "com.other",
            "qx",
        ] {
            assert_eq!(aliases.resolve(origin), resolve_linear(&aliases, origin));
        }
    }

    /// The linear reference for [`PrefixAliases::resolve`]: scan every
    /// alias and keep the longest that is a dotted prefix of `origin`.
    fn resolve_linear(aliases: &PrefixAliases, origin: &str) -> Option<String> {
        let mut best: Option<(&str, &str)> = None;
        for (prefix, canonical) in &aliases.map {
            let applies = origin == prefix
                || (origin.starts_with(prefix.as_str())
                    && origin.as_bytes().get(prefix.len()) == Some(&b'.'));
            if applies && best.is_none_or(|(b, _)| prefix.len() > b.len()) {
                best = Some((prefix, canonical));
            }
        }
        best.map(|(prefix, canonical)| format!("{canonical}{}", &origin[prefix.len()..]))
    }

    #[test]
    fn tier_labels_are_stable() {
        let labels: Vec<&str> = DetectTier::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(
            labels,
            ["trie_hit", "exact_fp_hit", "structural_hit", "miss"]
        );
    }
}
