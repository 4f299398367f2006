//! Corpus-level knowledge the offline pipeline consumes.
//!
//! Before analyzing any traffic, the paper runs LibRadar over every
//! collected apk and aggregates the detected libraries with their
//! categories (§III-D), collects Li et al.'s AnT/common lists, and
//! fetches VirusTotal category labels for every observed domain
//! (§III-F). `Knowledge` bundles those inputs; [`Knowledge::from_corpus`]
//! performs the aggregation scan over a generated corpus.
//!
//! Two memoization layers keep the per-flow hot path off the expensive
//! machinery:
//!
//! * domain categories are precomputed once per campaign (the Table I
//!   regex tokenizer runs once per *domain*, not once per *flow*) into
//!   [`Knowledge::domain_categories`];
//! * origin-library verdicts — predicted category plus AnT/common list
//!   membership — are cached per origin-library in a concurrent map
//!   shared by all dispatch workers ([`Knowledge::library_verdict`]).

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;
use spector_corpus::Corpus;
use spector_dex::features::PackageTree;
use spector_libradar::{
    AggregatedLibraries, DetectTier, DetectedLibrary, LibCategory, LibraryLists, PrefixAliases,
    StructuralMatch,
};
use spector_vtcat::{DomainCategory, Tokenizer};

use crate::attribution::BuiltinFilter;

/// Memoized per-origin-library verdict: predicted category, AnT list
/// membership, common-library list membership.
pub type LibraryVerdict = (LibCategory, bool, bool);

/// Everything the per-app analysis needs beyond the app's own run data.
#[derive(Debug)]
pub struct Knowledge {
    /// Libraries detected across the corpus, with categories.
    pub aggregated: AggregatedLibraries,
    /// AnT / common-library prefix lists.
    pub lists: LibraryLists,
    /// Precomputed domain → generic category table: every observed
    /// domain's vendor labels are tokenized exactly once per campaign.
    pub domain_categories: HashMap<String, DomainCategory>,
    /// Compiled footnote 2 filter.
    pub builtin: BuiltinFilter,
    /// Renamed in-app prefixes bridged to canonical library packages by
    /// the exact `LibraryDb` fingerprint during the corpus scan. Empty
    /// on unobfuscated corpora (identity aliases are never recorded).
    pub exact_aliases: PrefixAliases,
    /// Prefixes only the structural-profile tier could bridge (mangled
    /// copies the exact fingerprint no longer recognizes).
    pub structural_aliases: PrefixAliases,
    /// Concurrent per-campaign cache of origin-library verdicts (with
    /// the cascade tier that produced each), shared by all analysis
    /// workers.
    library_verdicts: RwLock<HashMap<String, (LibraryVerdict, DetectTier)>>,
}

impl Clone for Knowledge {
    fn clone(&self) -> Self {
        Knowledge {
            aggregated: self.aggregated.clone(),
            lists: self.lists.clone(),
            domain_categories: self.domain_categories.clone(),
            builtin: self.builtin.clone(),
            exact_aliases: self.exact_aliases.clone(),
            structural_aliases: self.structural_aliases.clone(),
            library_verdicts: RwLock::new(self.library_verdicts.read().clone()),
        }
    }
}

impl Knowledge {
    /// Builds knowledge from explicit parts, tokenizing every domain's
    /// vendor labels once up front.
    pub fn new(
        aggregated: AggregatedLibraries,
        lists: LibraryLists,
        domain_labels: HashMap<String, Vec<String>>,
    ) -> Self {
        let tokenizer = Tokenizer::new();
        let domain_categories = domain_labels
            .into_iter()
            .map(|(domain, labels)| {
                let category = tokenizer.classify(&labels);
                (domain, category)
            })
            .collect();
        Knowledge::with_domain_categories(aggregated, lists, domain_categories)
    }

    /// Builds knowledge from an already-classified domain table (the
    /// path [`from_corpus`](Self::from_corpus) takes, which never
    /// materializes an intermediate label map).
    pub fn with_domain_categories(
        aggregated: AggregatedLibraries,
        lists: LibraryLists,
        domain_categories: HashMap<String, DomainCategory>,
    ) -> Self {
        Knowledge {
            aggregated,
            lists,
            domain_categories,
            builtin: BuiltinFilter::new(),
            exact_aliases: PrefixAliases::new(),
            structural_aliases: PrefixAliases::new(),
            library_verdicts: RwLock::new(HashMap::new()),
        }
    }

    /// The §III-D aggregation scan over a generated corpus: run the
    /// LibRadar-style detector on every apk, merge the results, and
    /// classify every domain in the universe from its vendor labels
    /// directly (no intermediate per-domain label clone).
    ///
    /// Both detection knowledge bases run per apk, over one package tree
    /// of its dex. The exact fingerprint recognizes renamed library
    /// copies; the structural index also recognizes mangled ones. Every
    /// detection records the *canonical* name into the aggregate (so the
    /// trie and the Listing 2 vote see canonical packages even when no
    /// app ships them verbatim), and every non-identity `in_app_prefix`
    /// becomes an alias the verdict cascade can resolve obfuscated
    /// origins through. Apps are detected in parallel and merged in app
    /// order, because a later alias for the same prefix overwrites an
    /// earlier one.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        let mut aggregated = AggregatedLibraries::new();
        let mut exact_aliases = PrefixAliases::new();
        let mut structural_aliases = PrefixAliases::new();
        for (exact, structural) in detect_apps(corpus) {
            for detected in exact {
                aggregated.record(&detected.name, detected.category);
                exact_aliases.insert(&detected.in_app_prefix, &detected.name);
            }
            for matched in structural {
                aggregated.record(&matched.name, matched.category);
                structural_aliases.insert(&matched.in_app_prefix, &matched.name);
            }
        }
        let tokenizer = Tokenizer::new();
        let domains = corpus.domains.domains();
        let mut domain_categories = HashMap::with_capacity(domains.len());
        for domain in domains {
            domain_categories.insert(
                domain.name.clone(),
                tokenizer.classify(&domain.vendor_labels),
            );
        }
        let mut knowledge =
            Knowledge::with_domain_categories(aggregated, corpus.lists.clone(), domain_categories);
        knowledge.exact_aliases = exact_aliases;
        knowledge.structural_aliases = structural_aliases;
        knowledge
    }

    /// Generic category of a domain, from the precomputed table; unseen
    /// domains are `unknown`.
    pub fn domain_category(&self, domain: &str) -> DomainCategory {
        self.domain_categories
            .get(domain)
            .copied()
            .unwrap_or(DomainCategory::Unknown)
    }

    /// Category of an origin-library package: longest matching known
    /// library prefix, then majority vote over the shared-prefix family
    /// (Listing 2). Packages with no relation to any known library are
    /// `Unknown` — typically first-party code.
    pub fn library_category(&self, origin_library: &str) -> LibCategory {
        self.library_verdict(origin_library).0
    }

    /// Memoized `(category, is_ant, is_common)` verdict for an
    /// origin-library. The first query per distinct origin pays the
    /// cascade walk; every repeat across the whole campaign is one
    /// concurrent hash lookup.
    pub fn library_verdict(&self, origin_library: &str) -> LibraryVerdict {
        self.library_verdict_tiered(origin_library).0
    }

    /// The three-tier detection cascade, memoized: the verdict plus the
    /// tier that produced it.
    ///
    /// 1. **Trie** — longest-prefix / Listing 2 vote on the raw origin
    ///    package. Any non-`Unknown` category is a hit: this is the
    ///    paper's own path and stays byte-identical when no aliases
    ///    exist (every unobfuscated corpus).
    /// 2. **Exact fingerprint** — the origin sits under a renamed prefix
    ///    the `LibraryDb` scan bridged; the verdict is recomputed on the
    ///    canonical rewrite.
    /// 3. **Structural** — same, for prefixes only the structural
    ///    profile index could bridge (mangled copies).
    /// 4. **Miss** — the plain tier-1 verdict (typically first-party:
    ///    `Unknown`, off both lists).
    pub fn library_verdict_tiered(&self, origin_library: &str) -> (LibraryVerdict, DetectTier) {
        if let Some(entry) = self.library_verdicts.read().get(origin_library) {
            return *entry;
        }
        let base = (
            self.aggregated.predict_category(origin_library),
            self.lists.is_ant(origin_library),
            self.lists.is_common(origin_library),
        );
        let entry = if base.0 != LibCategory::Unknown {
            (base, DetectTier::Trie)
        } else if let Some(canonical) = self.exact_aliases.resolve(origin_library) {
            (
                self.canonical_verdict(&canonical),
                DetectTier::ExactFingerprint,
            )
        } else if let Some(canonical) = self.structural_aliases.resolve(origin_library) {
            (self.canonical_verdict(&canonical), DetectTier::Structural)
        } else {
            (base, DetectTier::Miss)
        };
        self.library_verdicts
            .write()
            .insert(origin_library.to_owned(), entry);
        entry
    }

    /// Verdict for an alias-rewritten canonical origin (not memoized:
    /// the obfuscated origin's cache entry covers the repeat traffic).
    fn canonical_verdict(&self, canonical: &str) -> LibraryVerdict {
        (
            self.aggregated.predict_category(canonical),
            self.lists.is_ant(canonical),
            self.lists.is_common(canonical),
        )
    }

    /// Linear-scan twin of [`Knowledge::library_verdict_tiered`] for the
    /// oracle pipeline: same cascade, oracle prefix prediction and alias
    /// resolution, no memoization.
    pub fn library_verdict_tiered_oracle(
        &self,
        origin_library: &str,
    ) -> (LibraryVerdict, DetectTier) {
        let base = (
            self.aggregated.predict_category_oracle(origin_library),
            self.lists.is_ant(origin_library),
            self.lists.is_common(origin_library),
        );
        if base.0 != LibCategory::Unknown {
            (base, DetectTier::Trie)
        } else if let Some(canonical) = self.exact_aliases.resolve_oracle(origin_library) {
            (
                (
                    self.aggregated.predict_category_oracle(&canonical),
                    self.lists.is_ant(&canonical),
                    self.lists.is_common(&canonical),
                ),
                DetectTier::ExactFingerprint,
            )
        } else if let Some(canonical) = self.structural_aliases.resolve_oracle(origin_library) {
            (
                (
                    self.aggregated.predict_category_oracle(&canonical),
                    self.lists.is_ant(&canonical),
                    self.lists.is_common(&canonical),
                ),
                DetectTier::Structural,
            )
        } else {
            (base, DetectTier::Miss)
        }
    }

    /// Number of distinct origin-libraries currently memoized.
    pub fn cached_verdicts(&self) -> usize {
        self.library_verdicts.read().len()
    }
}

/// What both detection tiers found in one app.
type AppDetections = (Vec<DetectedLibrary>, Vec<StructuralMatch>);

/// Runs both detection tiers over every app of `corpus` on one scoped
/// thread per available CPU, each thread taking the next undetected app,
/// and returns the detections in app order. An app whose dex does not
/// parse contributes nothing.
fn detect_apps(corpus: &Corpus) -> Vec<AppDetections> {
    let threads = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(corpus.apps.len())
        .max(1);
    // Relaxed: the counter only hands out app indices; the detections
    // come back through `join`.
    let next = AtomicUsize::new(0);
    let detect_next = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(app) = corpus.apps.get(index) else {
                return done;
            };
            let found = app.apk.dex().map_or_else(
                |_| AppDetections::default(),
                |dex| {
                    let tree = PackageTree::new(&dex);
                    (
                        corpus.library_db.detect_in(&dex, &tree),
                        corpus.structural_index.detect_in(&dex, &tree),
                    )
                },
            );
            done.push((index, found));
        }
    };
    let mut indexed: Vec<(usize, AppDetections)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(detect_next)).collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|&(app, _)| app);
    indexed.into_iter().map(|(_, found)| found).collect()
}

// The corpus dependency is dev-facing: Knowledge::from_corpus is the
// bridge used by experiments, examples, and benches.

#[cfg(test)]
mod tests {
    use super::*;
    use spector_corpus::{Corpus, CorpusConfig};

    fn knowledge() -> (Knowledge, Corpus) {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 12,
            seed: 3,
            ..Default::default()
        });
        (Knowledge::from_corpus(&corpus), corpus)
    }

    #[test]
    fn corpus_scan_aggregates_libraries() {
        let (knowledge, corpus) = knowledge();
        assert!(!knowledge.aggregated.is_empty());
        // Every library origin package in the ground truth must resolve
        // to its true category via longest-prefix + majority vote,
        // because the enclosing library was detected in the same scan.
        let mut checked = 0;
        for app in &corpus.apps {
            for truth in &app.truth {
                if truth.lib_category == LibCategory::Unknown {
                    continue;
                }
                let origin = truth.expected_origin.as_deref().unwrap();
                assert_eq!(
                    knowledge.library_category(origin),
                    truth.lib_category,
                    "origin {origin}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn first_party_packages_are_unknown() {
        let (knowledge, _) = knowledge();
        assert_eq!(
            knowledge.library_category("com.dev7.app3.net"),
            LibCategory::Unknown
        );
    }

    #[test]
    fn domain_categories_recovered_from_labels() {
        let (knowledge, corpus) = knowledge();
        let mut correct = 0usize;
        let mut total = 0usize;
        for domain in corpus.domains.domains() {
            if domain.true_category == DomainCategory::Unknown {
                assert_eq!(
                    knowledge.domain_category(&domain.name),
                    DomainCategory::Unknown
                );
                continue;
            }
            total += 1;
            if knowledge.domain_category(&domain.name) == domain.true_category {
                correct += 1;
            }
        }
        assert!(total > 0);
        assert!(correct * 100 / total >= 55, "{correct}/{total}");
    }

    #[test]
    fn precomputed_table_matches_tokenizer() {
        let (knowledge, corpus) = knowledge();
        let tokenizer = Tokenizer::new();
        // The memoized table must agree with classifying the raw labels
        // directly — the pre-memoization behavior.
        for domain in corpus.domains.domains() {
            assert_eq!(
                knowledge.domain_category(&domain.name),
                tokenizer.classify(&domain.vendor_labels),
                "{}",
                domain.name
            );
        }
    }

    #[test]
    fn unseen_domain_is_unknown() {
        let (knowledge, _) = knowledge();
        assert_eq!(
            knowledge.domain_category("never.observed.example"),
            DomainCategory::Unknown
        );
    }

    #[test]
    fn library_verdict_is_memoized_and_consistent() {
        let (knowledge, corpus) = knowledge();
        assert_eq!(knowledge.cached_verdicts(), 0);
        let mut checked = 0;
        for app in &corpus.apps {
            for truth in &app.truth {
                let Some(origin) = truth.expected_origin.as_deref() else {
                    continue;
                };
                let first = knowledge.library_verdict(origin);
                let second = knowledge.library_verdict(origin);
                assert_eq!(first, second);
                assert_eq!(
                    first,
                    (
                        knowledge.aggregated.predict_category(origin),
                        knowledge.lists.is_ant(origin),
                        knowledge.lists.is_common(origin),
                    ),
                    "origin {origin}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
        let cached = knowledge.cached_verdicts();
        assert!(cached > 0);
        // A clone starts from the same cache contents.
        let cloned = knowledge.clone();
        assert_eq!(cloned.cached_verdicts(), cached);
    }
}
