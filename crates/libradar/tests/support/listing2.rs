//! The linear Listing 2 reference: the O(#libraries) scans that
//! `AggregatedLibraries` answered with before its prefix trie existed.
//! Tests compare the trie against it. It reads the aggregate only
//! through `iter` (name order) and `category_of`, so it shares no code
//! with the trie.
//!
//! Included with `#[path]` by the libradar proptests and by the
//! workspace's `tests/oracle_equivalence.rs`; each uses a subset.
#![allow(dead_code)]

use std::collections::BTreeMap;

use spector_libradar::{AggregatedLibraries, LibCategory};

/// The longest recorded library that is a dotted prefix of `package`,
/// found by scanning every recorded name.
pub fn longest_matching_prefix<'a>(agg: &'a AggregatedLibraries, package: &str) -> Option<&'a str> {
    let mut best: Option<&str> = None;
    for (name, _) in agg.iter() {
        if is_dotted_prefix(name, package) && best.is_none_or(|b| name.len() > b.len()) {
            best = Some(name);
        }
    }
    best
}

/// Listing 2 by three scans: the longest matching library's own
/// category when it has one; otherwise the common dotted-prefix depth
/// with any library (at least two components), then a vote among the
/// libraries under that prefix, ties going to the smaller category.
pub fn predict_category(agg: &AggregatedLibraries, package: &str) -> LibCategory {
    if let Some(best) = longest_matching_prefix(agg, package) {
        let category = agg.category_of(best).expect("a matched name is recorded");
        if category != LibCategory::Unknown {
            return category;
        }
    }
    // A single shared component (`com`, `org`, …) is organizationally
    // meaningless, so at least two must match before voting.
    let common_len = agg
        .iter()
        .map(|(name, _)| common_dotted_components(name, package))
        .max()
        .unwrap_or(0);
    if common_len < 2 {
        return LibCategory::Unknown;
    }
    let prefix = dotted_prefix(package, common_len);
    let mut votes: BTreeMap<LibCategory, usize> = BTreeMap::new();
    for (name, category) in agg.iter() {
        if is_dotted_prefix(&prefix, name) && category != LibCategory::Unknown {
            *votes.entry(category).or_default() += 1;
        }
    }
    votes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(category, _)| category)
        .unwrap_or(LibCategory::Unknown)
}

/// `true` when `prefix` is a whole-component dotted prefix of `name`
/// (`com.unity3d` prefixes `com.unity3d.ads` but not `com.unity3dx`).
pub fn is_dotted_prefix(prefix: &str, name: &str) -> bool {
    name == prefix || (name.starts_with(prefix) && name.as_bytes().get(prefix.len()) == Some(&b'.'))
}

/// Number of leading dotted components `a` and `b` share.
pub fn common_dotted_components(a: &str, b: &str) -> usize {
    a.split('.')
        .zip(b.split('.'))
        .take_while(|(x, y)| x == y)
        .count()
}

/// The first `components` dotted components of `name`.
pub fn dotted_prefix(name: &str, components: usize) -> String {
    name.split('.')
        .take(components)
        .collect::<Vec<_>>()
        .join(".")
}
