//! Advertisement/tracker (AnT) and common-library (CL) lists.
//!
//! The paper augments LibRadar's categories with Li et al.'s curated
//! lists of common libraries and advertisement/tracker libraries
//! (§III-D, Figure 6). Lists are whole-component package-prefix sets.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// The two curated library lists used by Figure 6.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LibraryLists {
    ant: BTreeSet<String>,
    common: BTreeSet<String>,
}

impl LibraryLists {
    /// Creates empty lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds lists from package prefixes.
    pub fn from_prefixes<A, C>(ant: A, common: C) -> Self
    where
        A: IntoIterator,
        A::Item: Into<String>,
        C: IntoIterator,
        C::Item: Into<String>,
    {
        LibraryLists {
            ant: ant.into_iter().map(Into::into).collect(),
            common: common.into_iter().map(Into::into).collect(),
        }
    }

    /// Adds an advertisement/tracker prefix.
    pub fn add_ant(&mut self, prefix: &str) {
        self.ant.insert(prefix.to_owned());
    }

    /// Adds a common-library prefix.
    pub fn add_common(&mut self, prefix: &str) {
        self.common.insert(prefix.to_owned());
    }

    /// `true` when `package` falls under any AnT prefix.
    pub fn is_ant(&self, package: &str) -> bool {
        Self::matches(&self.ant, package)
    }

    /// `true` when `package` falls under any common-library prefix.
    pub fn is_common(&self, package: &str) -> bool {
        Self::matches(&self.common, package)
    }

    /// Number of AnT prefixes.
    pub fn ant_len(&self) -> usize {
        self.ant.len()
    }

    /// Number of common-library prefixes.
    pub fn common_len(&self) -> usize {
        self.common.len()
    }

    /// `true` when a listed prefix is `package` itself or ends where a
    /// `.` of `package` starts: one set lookup per dotted prefix.
    fn matches(set: &BTreeSet<String>, package: &str) -> bool {
        set.contains(package)
            || package
                .match_indices('.')
                .any(|(dot, _)| set.contains(&package[..dot]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_is_component_aware() {
        let lists = LibraryLists::from_prefixes(
            ["com.adnet", "io.tracker"],
            ["okhttp3", "com.squareup.picasso"],
        );
        assert!(lists.is_ant("com.adnet"));
        assert!(lists.is_ant("com.adnet.banner.view"));
        assert!(!lists.is_ant("com.adnetwork"));
        assert!(lists.is_common("okhttp3.internal.http"));
        assert!(!lists.is_common("com.adnet"));
        assert_eq!(lists.ant_len(), 2);
        assert_eq!(lists.common_len(), 2);
    }

    #[test]
    fn incremental_adds() {
        let mut lists = LibraryLists::new();
        assert!(!lists.is_ant("a.b"));
        lists.add_ant("a.b");
        lists.add_common("c.d");
        assert!(lists.is_ant("a.b.c"));
        assert!(lists.is_common("c.d"));
    }

    #[test]
    fn lists_are_independent() {
        let mut lists = LibraryLists::new();
        lists.add_ant("x.ads");
        assert!(!lists.is_common("x.ads"));
    }
}
