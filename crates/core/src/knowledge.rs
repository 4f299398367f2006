//! Corpus-level knowledge the offline pipeline consumes.
//!
//! Before analyzing any traffic, the paper runs LibRadar over every
//! collected apk and aggregates the detected libraries with their
//! categories (§III-D), collects Li et al.'s AnT/common lists, and
//! fetches VirusTotal category labels for every observed domain
//! (§III-F). `Knowledge` bundles those inputs; [`Knowledge::from_corpus`]
//! performs the aggregation scan over a generated corpus.
//!
//! The scan reads each apk's dex once, as a borrowed
//! [`DexView`](spector_dex::DexView) (no owned model, no `String` per
//! method), and both detection tiers share one [`FeatureTable`] per
//! app: each method's features are computed at most once, on first
//! use, and a subtree is fingerprinted or profiled only when its size
//! could match. The apps are scanned, and the domains classified, as
//! the tasks of the corpus crate's in-order parallel map, the one the
//! corpus is built with.
//!
//! Domain categories are precomputed once per campaign (the Table I
//! tokenizer runs once per distinct vendor label, not once per *flow*)
//! into [`Knowledge::domain_categories`]. Origin-library verdicts —
//! predicted category plus AnT/common list membership — are resolved
//! per claim by [`Knowledge::library_verdict_tiered`], whose tiers are
//! trie walks and alias lookups over tables fixed at build time, so the
//! knowledge base never changes after the corpus scan and every
//! dispatch worker and live shard reads it without a lock.

use std::collections::HashMap;

use spector_corpus::{parallel, Corpus};
use spector_dex::features::FeatureTable;
use spector_libradar::{
    AggregatedLibraries, DetectTier, DetectedLibrary, LibCategory, LibraryLists, PrefixAliases,
    StructuralMatch,
};
use spector_vtcat::{DomainCategory, Tokenizer};

use crate::attribution::BuiltinFilter;

/// Per-origin-library verdict: predicted category, AnT list
/// membership, common-library list membership.
pub type LibraryVerdict = (LibCategory, bool, bool);

/// Everything the per-app analysis needs beyond the app's own run data.
#[derive(Debug, Clone)]
pub struct Knowledge {
    /// Libraries detected across the corpus, with categories.
    pub aggregated: AggregatedLibraries,
    /// AnT / common-library prefix lists.
    pub lists: LibraryLists,
    /// Precomputed domain → generic category table: every observed
    /// domain is classified exactly once per campaign.
    pub domain_categories: HashMap<String, DomainCategory>,
    /// The footnote 2 filter.
    pub builtin: BuiltinFilter,
    /// Renamed in-app prefixes bridged to canonical library packages by
    /// the exact `LibraryDb` fingerprint during the corpus scan. Empty
    /// on unobfuscated corpora (identity aliases are never recorded).
    pub exact_aliases: PrefixAliases,
    /// Prefixes only the structural-profile tier could bridge (mangled
    /// copies the exact fingerprint no longer recognizes).
    pub structural_aliases: PrefixAliases,
}

impl Knowledge {
    /// Builds knowledge from explicit parts, classifying every domain
    /// from its vendor labels once up front.
    pub fn new(
        aggregated: AggregatedLibraries,
        lists: LibraryLists,
        domain_labels: HashMap<String, Vec<String>>,
    ) -> Self {
        let domain_categories = Tokenizer::new().classify_domains(
            domain_labels
                .iter()
                .map(|(domain, labels)| (domain.clone(), labels.as_slice())),
        );
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
        }
    }

    /// The §III-D aggregation scan over a generated corpus: run the
    /// LibRadar-style detector on every apk, merge the results, and
    /// classify every domain in the universe from its vendor labels
    /// directly (no intermediate per-domain label clone).
    ///
    /// Both detection knowledge bases run per apk, over one feature
    /// table of its dex view (the package tree and each method's
    /// features, computed once). The exact fingerprint recognizes
    /// renamed library copies; the structural index also recognizes
    /// mangled ones. Every detection records the *canonical* name into
    /// the aggregate (so the trie and the Listing 2 vote see canonical
    /// packages even when no app ships them verbatim), and every
    /// non-identity `in_app_prefix` becomes an alias the verdict cascade
    /// can resolve obfuscated origins through. Apps are detected in
    /// parallel and merged in app order, because a later alias for the
    /// same prefix overwrites an earlier one. The domain classification
    /// runs on the same threads, beside the detection.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        let mut aggregated = AggregatedLibraries::new();
        let mut exact_aliases = PrefixAliases::new();
        let mut structural_aliases = PrefixAliases::new();
        let (detections, domain_categories) = scan(corpus);
        for (exact, structural) in detections {
            for detected in exact {
                aggregated.record(&detected.name, detected.category);
                exact_aliases.insert(&detected.in_app_prefix, &detected.name);
            }
            for matched in structural {
                aggregated.record(&matched.name, matched.category);
                structural_aliases.insert(&matched.in_app_prefix, &matched.name);
            }
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

    /// The three-tier detection cascade: the verdict plus the tier that
    /// produced it.
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
        let base = self.plain_verdict(origin_library);
        if base.0 != LibCategory::Unknown {
            (base, DetectTier::Trie)
        } else if let Some(canonical) = self.exact_aliases.resolve(origin_library) {
            (self.plain_verdict(&canonical), DetectTier::ExactFingerprint)
        } else if let Some(canonical) = self.structural_aliases.resolve(origin_library) {
            (self.plain_verdict(&canonical), DetectTier::Structural)
        } else {
            (base, DetectTier::Miss)
        }
    }

    /// Listing 2 category and list membership of `package` as named,
    /// with no alias rewrite.
    fn plain_verdict(&self, package: &str) -> LibraryVerdict {
        (
            self.aggregated.predict_category(package),
            self.lists.is_ant(package),
            self.lists.is_common(package),
        )
    }
}

/// What both detection tiers found in one app.
type AppDetections = (Vec<DetectedLibrary>, Vec<StructuralMatch>);

/// One task of the scan.
enum Scanned {
    Domains(HashMap<String, DomainCategory>),
    App(AppDetections),
}

/// Runs both detection tiers over every app of `corpus`, and the
/// Table I classification over every domain of its universe, as the
/// tasks of one in-order parallel map (`spector_corpus::parallel::map`):
/// task 0 classifies the domains, task `i + 1` detects app `i`, so the
/// classification overlaps the detection instead of following it.
/// Returns the detections in app order and the domain table. An app
/// whose dex does not parse contributes nothing.
fn scan(corpus: &Corpus) -> (Vec<AppDetections>, HashMap<String, DomainCategory>) {
    let scanned = parallel::map(corpus.apps.len() + 1, |task| match task.checked_sub(1) {
        None => Scanned::Domains(
            Tokenizer::new().classify_domains(
                corpus
                    .domains
                    .domains()
                    .iter()
                    .map(|d| (d.name.clone(), d.vendor_labels.as_slice())),
            ),
        ),
        Some(app) => Scanned::App(corpus.apps[app].apk.dex().map_or_else(
            |_| AppDetections::default(),
            |view| {
                let mut table = FeatureTable::new(&view);
                (
                    corpus.library_db.detect_in(&mut table),
                    corpus.structural_index.detect_in(&mut table),
                )
            },
        )),
    });
    let mut detections = Vec::with_capacity(corpus.apps.len());
    let mut domain_categories = HashMap::new();
    for found in scanned {
        match found {
            Scanned::Domains(table) => domain_categories = table,
            Scanned::App(found) => detections.push(found),
        }
    }
    (detections, domain_categories)
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
                let ((category, _, _), _) = knowledge.library_verdict_tiered(origin);
                assert_eq!(category, truth.lib_category, "origin {origin}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn first_party_packages_are_unknown() {
        let (knowledge, _) = knowledge();
        let ((category, _, _), _) = knowledge.library_verdict_tiered("com.dev7.app3.net");
        assert_eq!(category, LibCategory::Unknown);
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
    fn clean_corpus_verdicts_come_from_the_trie_tier() {
        let (knowledge, corpus) = knowledge();
        // An unobfuscated corpus records no aliases, so every verdict is
        // the plain trie verdict: a hit when a category is predicted, a
        // miss otherwise.
        assert!(knowledge.exact_aliases.is_empty());
        assert!(knowledge.structural_aliases.is_empty());
        let mut checked = 0;
        for app in &corpus.apps {
            for truth in &app.truth {
                let Some(origin) = truth.expected_origin.as_deref() else {
                    continue;
                };
                let (verdict, tier) = knowledge.library_verdict_tiered(origin);
                assert_eq!(
                    verdict,
                    (
                        knowledge.aggregated.predict_category(origin),
                        knowledge.lists.is_ant(origin),
                        knowledge.lists.is_common(origin),
                    ),
                    "origin {origin}"
                );
                let expected_tier = if verdict.0 == LibCategory::Unknown {
                    DetectTier::Miss
                } else {
                    DetectTier::Trie
                };
                assert_eq!(tier, expected_tier, "origin {origin}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
