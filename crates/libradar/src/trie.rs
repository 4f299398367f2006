//! Dotted-component prefix trie over the aggregated library universe.
//!
//! The paper's two §III-D heuristics — longest-matching-prefix
//! resolution and Listing 2's shared-prefix majority vote — are both
//! questions about the *dotted-component prefix structure* of the
//! library universe. [`AggregatedLibraries`](crate::AggregatedLibraries)
//! originally answered them with O(#libraries) linear scans per query;
//! at corpus scale (the paper aggregates 8,652 origin-libraries over
//! 25,000 apps) that linear factor dominates the offline pipeline.
//!
//! [`LibTrie`] indexes the universe once and answers every per-query
//! primitive in O(#package-components):
//!
//! * **longest matching prefix** — the deepest terminal node on the
//!   query's path;
//! * **longest-common-prefix depth** — how deep the query's path goes
//!   before falling off the trie (every trie node is by construction a
//!   prefix of at least one recorded library);
//! * **subtree category votes** — each node carries the per-category
//!   count of non-`Unknown` terminals in its subtree, maintained
//!   incrementally on insert, so Listing 2's vote is a single array
//!   scan at the deepest reached node.

use std::collections::BTreeMap;

use crate::category::LibCategory;

/// Number of library categories (vote-array width).
const NUM_CATEGORIES: usize = LibCategory::ALL.len();

/// [`LibCategory`] values indexed by their `Ord`/declaration
/// discriminant, so `ORD[cat as usize] == cat`. (Note this differs from
/// [`LibCategory::ALL`], which is in the paper's legend order.)
const ORD: [LibCategory; NUM_CATEGORIES] = [
    LibCategory::Advertisement,
    LibCategory::AppMarket,
    LibCategory::DevelopmentAid,
    LibCategory::DevelopmentFramework,
    LibCategory::DigitalIdentity,
    LibCategory::GuiComponent,
    LibCategory::GameEngine,
    LibCategory::MapLbs,
    LibCategory::MobileAnalytics,
    LibCategory::Payment,
    LibCategory::SocialNetwork,
    LibCategory::Utility,
    LibCategory::Unknown,
];

/// One trie node: children keyed by the next dotted component.
#[derive(Debug, Clone, Default)]
struct Node {
    children: BTreeMap<String, Node>,
    /// Category of the recorded library ending at this node, if any.
    terminal: Option<LibCategory>,
    /// Per-category count of non-`Unknown` terminals in this node's
    /// subtree (including the node itself), indexed by `Ord`
    /// discriminant.
    votes: [u32; NUM_CATEGORIES],
}

/// What one traversal of the trie learns about a query package.
#[derive(Debug, Clone, Copy)]
pub struct PrefixMatch {
    /// Byte length into the query of the longest recorded library that
    /// is a whole-component dotted prefix of it, with that library's
    /// category. `None` when no recorded library encloses the query.
    longest_terminal: Option<(usize, LibCategory)>,
    /// Number of leading dotted components the query shares with at
    /// least one recorded library (the Listing 2 common-prefix depth).
    pub common_components: usize,
}

/// Dotted-component prefix trie with subtree category votes.
#[derive(Debug, Clone, Default)]
pub struct LibTrie {
    root: Node,
    len: usize,
}

impl LibTrie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trie from `(name, category)` pairs, with
    /// [`insert`](Self::insert) semantics per pair.
    pub fn build<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, LibCategory)>,
    {
        let mut trie = LibTrie::new();
        for (name, category) in entries {
            trie.insert(name, category);
        }
        trie
    }

    /// Number of distinct recorded libraries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records a library, mirroring
    /// [`AggregatedLibraries::record`](crate::AggregatedLibraries::record):
    /// a new name is inserted with its category; on repeated insertion a
    /// non-`Unknown` category upgrades a stored `Unknown`, and nothing
    /// else changes. Subtree vote counts along the path are maintained
    /// incrementally (an upgrade adds the vote its `Unknown` placeholder
    /// never cast).
    pub fn insert(&mut self, name: &str, category: LibCategory) {
        fn descend<'a>(
            node: &mut Node,
            mut components: std::str::Split<'a, char>,
            category: LibCategory,
            len: &mut usize,
        ) -> Option<usize> {
            let vote = match components.next() {
                None => match node.terminal {
                    None => {
                        node.terminal = Some(category);
                        *len += 1;
                        (category != LibCategory::Unknown).then_some(category as usize)
                    }
                    Some(LibCategory::Unknown) if category != LibCategory::Unknown => {
                        node.terminal = Some(category);
                        Some(category as usize)
                    }
                    Some(_) => None,
                },
                Some(component) => {
                    let child = node.children.entry(component.to_owned()).or_default();
                    descend(child, components, category, len)
                }
            };
            if let Some(index) = vote {
                node.votes[index] += 1;
            }
            vote
        }
        descend(&mut self.root, name.split('.'), category, &mut self.len);
    }

    /// Walks the query's components down the trie once, collecting the
    /// deepest terminal and the reached depth; returns the match
    /// summary and the deepest node reached.
    fn walk(&self, package: &str) -> (PrefixMatch, &Node) {
        let mut node = &self.root;
        let mut common_components = 0usize;
        let mut byte_end = 0usize;
        let mut longest_terminal = None;
        for component in package.split('.') {
            let Some(child) = node.children.get(component) else {
                break;
            };
            byte_end = if common_components == 0 {
                component.len()
            } else {
                byte_end + 1 + component.len()
            };
            common_components += 1;
            node = child;
            if let Some(category) = child.terminal {
                longest_terminal = Some((byte_end, category));
            }
        }
        (
            PrefixMatch {
                longest_terminal,
                common_components,
            },
            node,
        )
    }

    /// Match summary for `package` (one traversal).
    pub fn prefix_match(&self, package: &str) -> PrefixMatch {
        self.walk(package).0
    }

    /// The hierarchically greatest (longest) recorded library that is a
    /// whole-component dotted prefix of `package`, as a slice of the
    /// query itself.
    pub fn longest_matching_prefix<'a>(&self, package: &'a str) -> Option<&'a str> {
        self.prefix_match(package)
            .longest_terminal
            .map(|(byte_end, _)| &package[..byte_end])
    }

    /// Number of leading dotted components `package` shares with at
    /// least one recorded library.
    pub fn common_prefix_components(&self, package: &str) -> usize {
        self.prefix_match(package).common_components
    }

    /// Listing 2 category prediction in a single traversal:
    ///
    /// 1. if the longest enclosing recorded library has a known
    ///    category, that wins;
    /// 2. otherwise, if fewer than two leading components are shared
    ///    with any recorded library, the package is `Unknown`
    ///    (TLD-style roots are organizationally meaningless);
    /// 3. otherwise, majority vote over the non-`Unknown` categories of
    ///    all recorded libraries under the shared prefix — which is
    ///    exactly the precomputed vote array of the deepest reached
    ///    node — with ties broken toward the `Ord`-smallest category.
    pub fn predict_category(&self, package: &str) -> LibCategory {
        let (found, deepest) = self.walk(package);
        if let Some((_, category)) = found.longest_terminal {
            if category != LibCategory::Unknown {
                return category;
            }
        }
        if found.common_components < 2 {
            return LibCategory::Unknown;
        }
        let mut best = LibCategory::Unknown;
        let mut best_votes = 0u32;
        for (index, &count) in deepest.votes.iter().enumerate() {
            if count > best_votes {
                best_votes = count;
                best = ORD[index];
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ord_table_matches_discriminants() {
        for (index, category) in ORD.iter().enumerate() {
            assert_eq!(*category as usize, index, "{category:?}");
        }
        // Same categories as the legend-ordered ALL, different order.
        let mut ord = ORD.to_vec();
        let mut all = LibCategory::ALL.to_vec();
        ord.sort();
        all.sort();
        assert_eq!(ord, all);
    }

    #[test]
    fn listing2_universe() {
        let trie = LibTrie::build([
            ("com.unity3d", LibCategory::GameEngine),
            ("com.unity3d.ads", LibCategory::Advertisement),
            ("com.unity3d.plugin.downloader", LibCategory::AppMarket),
            ("com.unity3d.services", LibCategory::GameEngine),
        ]);
        assert_eq!(trie.len(), 4);
        assert!(!trie.is_empty());
        assert_eq!(
            trie.longest_matching_prefix("com.unity3d.ads.android.cache"),
            Some("com.unity3d.ads")
        );
        assert_eq!(trie.longest_matching_prefix("com.unity3dx.foo"), None);
        assert_eq!(trie.common_prefix_components("com.unity3d.example"), 2);
        assert_eq!(trie.common_prefix_components("com.other"), 1);
        assert_eq!(trie.common_prefix_components("io.other"), 0);
        assert_eq!(
            trie.predict_category("com.unity3d.example"),
            LibCategory::GameEngine
        );
        assert_eq!(
            trie.predict_category("com.unity3d.ads.android.cache"),
            LibCategory::Advertisement
        );
        assert_eq!(
            trie.predict_category("io.unrelated.pkg"),
            LibCategory::Unknown
        );
    }

    #[test]
    fn vote_without_enclosing_library() {
        let trie = LibTrie::build([
            ("org.engine.core", LibCategory::GameEngine),
            ("org.engine.render", LibCategory::GameEngine),
            ("org.engine.ads", LibCategory::Advertisement),
        ]);
        assert_eq!(trie.longest_matching_prefix("org.engine.example"), None);
        assert_eq!(
            trie.predict_category("org.engine.example"),
            LibCategory::GameEngine
        );
    }

    #[test]
    fn unknown_upgrade_adds_vote_once() {
        let mut trie = LibTrie::new();
        trie.insert("com.x.lib", LibCategory::Unknown);
        // Unknown terminals cast no votes.
        assert_eq!(trie.predict_category("com.x.other"), LibCategory::Unknown);
        trie.insert("com.x.lib", LibCategory::Payment);
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.predict_category("com.x.other"), LibCategory::Payment);
        // A later Unknown (or conflicting) re-insert changes nothing.
        trie.insert("com.x.lib", LibCategory::Unknown);
        trie.insert("com.x.lib", LibCategory::GameEngine);
        assert_eq!(trie.predict_category("com.x.other"), LibCategory::Payment);
        assert_eq!(trie.predict_category("com.x.lib"), LibCategory::Payment);
    }

    #[test]
    fn tie_breaks_toward_smallest_category() {
        let trie = LibTrie::build([
            ("net.root.a", LibCategory::Utility),
            ("net.root.b", LibCategory::Advertisement),
        ]);
        // 1 vote each: Advertisement orders before Utility.
        assert_eq!(
            trie.predict_category("net.root.c"),
            LibCategory::Advertisement
        );
    }

    #[test]
    fn empty_trie() {
        let trie = LibTrie::new();
        assert!(trie.is_empty());
        assert_eq!(trie.longest_matching_prefix("a.b"), None);
        assert_eq!(trie.common_prefix_components("a.b"), 0);
        assert_eq!(trie.predict_category("a.b"), LibCategory::Unknown);
    }
}
