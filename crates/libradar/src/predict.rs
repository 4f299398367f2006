//! Corpus-wide library aggregation, longest-prefix matching, and
//! majority-vote category prediction (paper §III-C/D, Listing 2).
//!
//! Both per-query heuristics are answered by a lazily-built
//! [`LibTrie`] in O(#package-components). The original O(#libraries)
//! linear scans live on only as the reference the tests compare the
//! trie against (`tests/support/listing2.rs`).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::category::LibCategory;
use crate::trie::LibTrie;

/// The aggregated list of libraries LibRadar detected across the whole
/// corpus, with their categories — the lookup structure both heuristics
/// run against.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AggregatedLibraries {
    /// library package name -> category. BTreeMap keeps iteration (and
    /// therefore voting ties) deterministic.
    libs: BTreeMap<String, LibCategory>,
    /// Prefix index over `libs`, built on first query and invalidated
    /// by [`record`](Self::record). Never serialized: a deserialized
    /// aggregate rebuilds it lazily from `libs`.
    #[serde(skip)]
    trie: OnceLock<LibTrie>,
}

impl AggregatedLibraries {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a detected library. On repeated detection with differing
    /// categories, a non-`Unknown` category wins over `Unknown`
    /// (LibRadar output is occasionally missing the category for one
    /// app but not another).
    pub fn record(&mut self, name: &str, category: LibCategory) {
        match self.libs.get_mut(name) {
            Some(existing) => {
                if *existing == LibCategory::Unknown && category != LibCategory::Unknown {
                    *existing = category;
                }
            }
            None => {
                self.libs.insert(name.to_owned(), category);
            }
        }
        // The index is stale; rebuild lazily on the next query.
        self.trie = OnceLock::new();
    }

    /// The prefix index, built on first use.
    fn trie(&self) -> &LibTrie {
        self.trie
            .get_or_init(|| LibTrie::build(self.libs.iter().map(|(n, c)| (n.as_str(), *c))))
    }

    /// Number of distinct libraries recorded.
    pub fn len(&self) -> usize {
        self.libs.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.libs.is_empty()
    }

    /// Exact category lookup.
    pub fn category_of(&self, name: &str) -> Option<LibCategory> {
        self.libs.get(name).copied()
    }

    /// Iterates over `(name, category)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, LibCategory)> {
        self.libs.iter().map(|(n, c)| (n.as_str(), *c))
    }

    /// The hierarchically greatest (longest) known library that is a
    /// dotted prefix of `package` — the paper's origin-library name
    /// resolution: "the longest matching prefix among all the libraries
    /// that LibRadar has detected across 25,000 apps". Answered by the
    /// trie in O(#components); the returned slice borrows from
    /// `package` (the matched name is by definition a prefix of it).
    pub fn longest_matching_prefix<'a>(&self, package: &'a str) -> Option<&'a str> {
        self.trie().longest_matching_prefix(package)
    }

    /// Number of leading dotted components `package` shares with at
    /// least one recorded library (the Listing 2 common-prefix depth).
    pub fn common_prefix_components(&self, package: &str) -> usize {
        self.trie().common_prefix_components(package)
    }

    /// Predicts the category of `package` per Listing 2:
    ///
    /// 1. if a recorded library encloses `package` (it is the package
    ///    or a dotted prefix of it), the longest such library's category
    ///    wins, unless that category is `Unknown`;
    /// 2. otherwise find the longest common dotted prefix shared between
    ///    `package` and at least one known library;
    /// 3. collect the categories of all known libraries under that
    ///    prefix;
    /// 4. majority vote (ties broken by category order, which is
    ///    deterministic).
    ///
    /// Returns [`LibCategory::Unknown`] when no enclosing library
    /// decides and fewer than two leading components are shared with
    /// any known library. The whole decision is one trie traversal (see
    /// [`LibTrie::predict_category`]).
    pub fn predict_category(&self, package: &str) -> LibCategory {
        self.trie().predict_category(package)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Listing 2 universe.
    fn unity() -> AggregatedLibraries {
        let mut agg = AggregatedLibraries::new();
        agg.record("com.unity3d", LibCategory::GameEngine);
        agg.record("com.unity3d.ads", LibCategory::Advertisement);
        agg.record("com.unity3d.plugin.downloader", LibCategory::AppMarket);
        agg.record("com.unity3d.services", LibCategory::GameEngine);
        agg
    }

    #[test]
    fn listing2_majority_vote() {
        // com.unity3d.example: {Game Engine: 2, Advertisement: 1,
        // App Market: 1} -> Game Engine... except com.unity3d itself is
        // a known library with category Game Engine, matched by longest
        // prefix. Both paths agree with the paper.
        assert_eq!(
            unity().predict_category("com.unity3d.example"),
            LibCategory::GameEngine
        );
    }

    #[test]
    fn listing2_ads_cache_prediction() {
        // com.unity3d.ads.android.cache -> longest prefix com.unity3d.ads
        // (the only matching library) -> Advertisement.
        assert_eq!(
            unity().predict_category("com.unity3d.ads.android.cache"),
            LibCategory::Advertisement
        );
    }

    #[test]
    fn majority_vote_without_enclosing_library() {
        // No library is a prefix of the query, but a common prefix
        // exists: org.engine.* with two GameEngine siblings and one
        // Advertisement sibling.
        let mut agg = AggregatedLibraries::new();
        agg.record("org.engine.core", LibCategory::GameEngine);
        agg.record("org.engine.render", LibCategory::GameEngine);
        agg.record("org.engine.ads", LibCategory::Advertisement);
        assert_eq!(
            agg.predict_category("org.engine.example"),
            LibCategory::GameEngine
        );
    }

    #[test]
    fn longest_prefix_resolution() {
        let agg = unity();
        assert_eq!(
            agg.longest_matching_prefix("com.unity3d.ads.android.cache"),
            Some("com.unity3d.ads")
        );
        assert_eq!(
            agg.longest_matching_prefix("com.unity3d.services.core"),
            Some("com.unity3d.services")
        );
        assert_eq!(
            agg.longest_matching_prefix("com.unity3d"),
            Some("com.unity3d")
        );
        assert_eq!(agg.longest_matching_prefix("com.other"), None);
        // Component boundary: com.unity3dx must not match com.unity3d.
        assert_eq!(agg.longest_matching_prefix("com.unity3dx.foo"), None);
    }

    #[test]
    fn unknown_when_nothing_shared() {
        assert_eq!(
            unity().predict_category("io.totally.unrelated"),
            LibCategory::Unknown
        );
        assert_eq!(
            AggregatedLibraries::new().predict_category("a.b"),
            LibCategory::Unknown
        );
    }

    #[test]
    fn record_prefers_known_over_unknown() {
        let mut agg = AggregatedLibraries::new();
        agg.record("com.x", LibCategory::Unknown);
        agg.record("com.x", LibCategory::Payment);
        assert_eq!(agg.category_of("com.x"), Some(LibCategory::Payment));
        // And an Unknown arriving later does not clobber.
        agg.record("com.x", LibCategory::Unknown);
        assert_eq!(agg.category_of("com.x"), Some(LibCategory::Payment));
        assert_eq!(agg.len(), 1);
        assert!(!agg.is_empty());
    }

    #[test]
    fn iter_is_sorted() {
        let agg = unity();
        let names: Vec<&str> = agg.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn record_invalidates_trie() {
        let mut agg = AggregatedLibraries::new();
        agg.record("com.a.lib", LibCategory::Payment);
        // Query builds the index...
        assert_eq!(agg.predict_category("com.a.lib.x"), LibCategory::Payment);
        // ...and a later record must be visible through it.
        agg.record("com.a.lib.x.deeper", LibCategory::Advertisement);
        assert_eq!(
            agg.longest_matching_prefix("com.a.lib.x.deeper.y"),
            Some("com.a.lib.x.deeper")
        );
        assert_eq!(
            agg.predict_category("com.a.lib.x.deeper.y"),
            LibCategory::Advertisement
        );
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let agg = unity();
        let json = serde_json::to_string(&agg).expect("serializes");
        let back: AggregatedLibraries = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.len(), agg.len());
        assert_eq!(
            back.longest_matching_prefix("com.unity3d.ads.android.cache"),
            Some("com.unity3d.ads")
        );
        assert_eq!(
            back.predict_category("com.unity3d.example"),
            LibCategory::GameEngine
        );
    }
}
