//! Third-party library detection and categorization (LibRadar stand-in).
//!
//! Libspector does not identify libraries by name alone: it runs
//! LibRadar over every collected apk, aggregates the detected libraries
//! and their categories across the whole corpus, and then uses two
//! heuristics on top (§III-C, §III-D):
//!
//! * **longest-matching-prefix** — an origin package that LibRadar never
//!   saw is mapped to the hierarchically greatest known library prefix
//!   (e.g. `com.unity3d.ads.android.cache` → `com.unity3d.ads`);
//! * **majority-vote category prediction** (Listing 2) — when the
//!   matched library has no category, all known libraries sharing the
//!   longest common prefix vote with their categories.
//!
//! Both heuristics are indexed by a dotted-component prefix trie
//! ([`trie::LibTrie`]) that answers longest-matching-prefix, common
//! prefix depth, and subtree category votes in O(#components) per
//! query instead of O(#libraries); the original linear scans are kept
//! only in test code, as the reference the trie is compared against.
//!
//! LibRadar itself recognizes libraries by hashing package-subtree
//! features (so renamed copies of the same code still match, and
//! app-specific first-party code does not). [`detect`] reproduces that:
//! a library's *fingerprint* is a SHA-256 over its package-stripped
//! method structure, matched against a [`LibraryDb`] built from the
//! library universe. Both tiers, [`LibraryDb`] and [`StructuralIndex`],
//! register libraries and scan apps through the one feature extractor,
//! `spector_dex::FeatureTable`; the from-scratch fingerprint and profile
//! it replaced are the tests' references.
//!
//! The paper additionally uses Li et al.'s lists of common libraries
//! (CL) and advertisement/tracker (AnT) libraries; [`lists::LibraryLists`]
//! carries both.

pub mod category;
pub mod detect;
pub mod lists;
pub mod predict;
pub mod structural;
pub mod trie;

pub use category::LibCategory;
pub use detect::{DetectedLibrary, LibraryDb, LibraryFingerprint};
pub use lists::LibraryLists;
pub use predict::AggregatedLibraries;
pub use structural::{
    DetectTier, PrefixAliases, StructuralIndex, StructuralMatch, MATCH_THRESHOLD,
    MIN_MATCH_FEATURES,
};
pub use trie::LibTrie;

#[cfg(test)]
extern crate self as spector_libradar;
// The from-scratch profile and fingerprint, and the helpers that run
// owned test dexes through the feature table, live in test code; unit
// tests include them under the crates' own names, as the integration
// tests do.
#[cfg(test)]
#[path = "../tests/support/fingerprint.rs"]
mod fingerprint;
#[cfg(test)]
#[path = "../../dex/tests/support/subtree.rs"]
mod subtree;
#[cfg(test)]
#[path = "../tests/support/tables.rs"]
mod tables;
