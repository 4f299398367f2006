//! Synthetic app-store corpus for Libspector experiments.
//!
//! The paper measures 25,000 top Google-Play apps. This crate generates
//! a corpus with the same *statistical shape*, at a configurable scale:
//!
//! * [`categories`] — the 49 Play categories with Figure 2/8-shaped
//!   weights and per-app volume multipliers;
//! * [`fig9`] — the paper's published library-category × domain-category
//!   traffic matrix, used as the volume calibration target;
//! * [`domains`] — a Table I-proportioned DNS domain universe with
//!   VirusTotal-style vendor labels;
//! * [`libraries`] — ~70 third-party library templates (real-world
//!   names) that instantiate into fingerprint-stable dex code;
//! * [`appgen`] — per-app composition with complete ground truth,
//!   planned in order and built in parallel;
//! * [`store`] — the AndroidRank/AndroZoo selection rules;
//! * [`parallel`] — the in-order parallel map the builder, the
//!   obfuscator and the knowledge scan share.
//!
//! # Examples
//!
//! ```
//! use spector_corpus::{Corpus, CorpusConfig};
//!
//! let corpus = Corpus::generate(&CorpusConfig {
//!     apps: 5,
//!     seed: 42,
//!     ..Default::default()
//! });
//! assert_eq!(corpus.apps.len(), 5);
//! assert!(corpus.apps[0].apk.dex().unwrap().len() > 0);
//! ```

pub mod appgen;
pub mod categories;
pub mod domains;
pub mod fig9;
pub mod libraries;
pub mod obfuscate;
pub mod parallel;
pub mod store;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use appgen::{AppGenConfig, Archetype, FlowTruth, GeneratedApp, OpStyle, SystemOp};
pub use domains::DomainUniverse;
pub use obfuscate::{obfuscate_app, obfuscate_corpus, LibraryMapping, ObfuscationTier};
use spector_libradar::{LibraryDb, LibraryLists, StructuralIndex};

/// Corpus generation settings.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of apps to generate (post-selection).
    pub apps: usize,
    /// Master seed.
    pub seed: u64,
    /// Domain-universe size (defaults to a Table I-proportioned scale
    /// of roughly 6 domains per app, capped at the paper's 14,140).
    pub domain_count: Option<usize>,
    /// Per-app generation tunables.
    pub appgen: AppGenConfig,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            apps: 100,
            seed: 42,
            domain_count: None,
            appgen: AppGenConfig::default(),
        }
    }
}

/// One build task of [`Corpus::generate`].
enum Built {
    Indexes((LibraryDb, StructuralIndex)),
    App(GeneratedApp),
}

/// A generated corpus: apps with ground truth, the domain universe, and
/// the library knowledge bases the pipeline needs.
#[derive(Debug)]
pub struct Corpus {
    /// The selected apps.
    pub apps: Vec<GeneratedApp>,
    /// The DNS universe behind all generated traffic.
    pub domains: DomainUniverse,
    /// LibRadar-style fingerprint database over the library universe.
    pub library_db: LibraryDb,
    /// Structural-profile index over the same universe (the
    /// obfuscation-resistant detection tier's knowledge base).
    pub structural_index: StructuralIndex,
    /// Li et al.'s AnT / common-library lists.
    pub lists: LibraryLists,
}

impl Corpus {
    /// Generates a corpus.
    ///
    /// The calling thread builds the domain universe, then plans every
    /// app in order: its category and archetype rolls, then every draw
    /// `appgen::plan_app` makes, all from one generator seeded with
    /// `config.seed`. The builds draw nothing, so they then run as
    /// parallel tasks ([`parallel::map`]) beside the library indexes,
    /// and the apps are assembled in app order: the corpus is the same,
    /// byte for byte, on any number of cores.
    pub fn generate(config: &CorpusConfig) -> Self {
        let domain_count = config
            .domain_count
            .unwrap_or_else(|| (config.apps * 6).clamp(200, 14_140));
        let domains = DomainUniverse::generate(config.seed, domain_count);
        let mut rng = SmallRng::seed_from_u64(config.seed);

        let total_weight: f64 = categories::APP_CATEGORIES.iter().map(|c| c.weight).sum();
        let mut plans = Vec::with_capacity(config.apps);
        for index in 0..config.apps {
            // Category: weight-proportional.
            let mut roll = rng.gen::<f64>() * total_weight;
            let mut category = &categories::APP_CATEGORIES[0];
            for c in &categories::APP_CATEGORIES {
                roll -= c.weight;
                if roll <= 0.0 {
                    category = c;
                    break;
                }
            }
            // Archetype split (§IV-A): 35 % AnT-only, 54 % mixed,
            // 11 % AnT-free.
            let archetype = match rng.gen::<f64>() {
                r if r < 0.35 => Archetype::AntOnly,
                r if r < 0.89 => Archetype::Mixed,
                _ => Archetype::NoAnt,
            };
            plans.push(appgen::plan_app(
                index,
                category,
                archetype,
                &domains,
                &config.appgen,
                &mut rng,
            ));
        }

        // Task 0, the longest, builds the library indexes; task i + 1
        // builds app i.
        let mut indexes = None;
        let mut apps = Vec::with_capacity(plans.len());
        for built in parallel::map(plans.len() + 1, |task| match task.checked_sub(1) {
            None => Built::Indexes(libraries::build_library_indexes()),
            Some(app) => Built::App(plans[app].build()),
        }) {
            match built {
                Built::Indexes(built) => indexes = Some(built),
                Built::App(app) => apps.push(app),
            }
        }
        let (library_db, structural_index) = indexes.expect("task 0 builds the indexes");
        Corpus {
            apps,
            domains,
            library_db,
            structural_index,
            lists: libraries::library_lists(),
        }
    }

    /// Ground-truth lookup: expected origin package for a flow of
    /// `app_index` to `domain` (unique per app by construction for app
    /// traffic; system traffic may share domains).
    pub fn expected_origin(&self, app_index: usize, domain: &str) -> Option<&FlowTruth> {
        self.apps[app_index]
            .truth
            .iter()
            .find(|t| t.domain == domain)
    }
}

// The from-scratch profile and fingerprint live in test code; the unit
// tests include them as the integration tests do.
#[cfg(test)]
#[path = "../../libradar/tests/support/fingerprint.rs"]
mod fingerprint;
#[cfg(test)]
#[path = "../../dex/tests/support/subtree.rs"]
mod subtree;

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(&CorpusConfig {
            apps: 30,
            seed: 7,
            appgen: AppGenConfig {
                method_scale: 0.004,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn generates_requested_count() {
        let corpus = small();
        assert_eq!(corpus.apps.len(), 30);
        assert!(!corpus.domains.is_empty());
        assert!(!corpus.library_db.is_empty());
    }

    #[test]
    fn archetype_mix_roughly_matches() {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 300,
            seed: 11,
            appgen: AppGenConfig {
                method_scale: 0.001,
                ..Default::default()
            },
            ..Default::default()
        });
        let ant_only = corpus
            .apps
            .iter()
            .filter(|a| a.archetype == Archetype::AntOnly)
            .count();
        let no_ant = corpus
            .apps
            .iter()
            .filter(|a| a.archetype == Archetype::NoAnt)
            .count();
        assert!((70..=140).contains(&ant_only), "ant_only {ant_only}");
        assert!((10..=70).contains(&no_ant), "no_ant {no_ant}");
    }

    #[test]
    fn deterministic_corpus() {
        let a = small();
        let b = small();
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.apk.sha256(), y.apk.sha256());
        }
    }

    #[test]
    fn truth_lookup_by_domain() {
        let corpus = small();
        let app_with_truth = corpus
            .apps
            .iter()
            .position(|a| !a.truth.is_empty())
            .expect("some app has traffic");
        let domain = corpus.apps[app_with_truth].truth[0].domain.clone();
        assert!(corpus.expected_origin(app_with_truth, &domain).is_some());
        assert!(corpus
            .expected_origin(app_with_truth, "no.such.domain")
            .is_none());
    }

    #[test]
    fn libraries_in_apps_are_detectable() {
        let corpus = small();
        let mut detected_any = false;
        for app in corpus.apps.iter().take(10) {
            let dex = app.apk.dex().unwrap();
            let detected = corpus.library_db.detect(&dex);
            let expected: std::collections::HashSet<&str> = app
                .truth
                .iter()
                .filter(|t| t.style != OpStyle::System)
                .filter(|t| t.lib_category != spector_libradar::LibCategory::Unknown)
                .map(|t| t.expected_origin.as_deref().unwrap_or(""))
                .collect();
            for origin in expected {
                // The origin is a sub-package of a detected library.
                let found = detected
                    .iter()
                    .any(|d| origin == d.name || origin.starts_with(&format!("{}.", d.name)));
                assert!(found, "origin {origin} not covered by detection");
                detected_any = true;
            }
        }
        assert!(detected_any);
    }
}
