//! Detection-quality harness: precision/recall of each cascade tier
//! across synthetic obfuscation levels.
//!
//! For every [`ObfuscationTier`] above `none` the harness regenerates
//! the same deterministic corpus and obfuscates the copy (the knowledge
//! bases stay canonical); `none` grades the canonical corpus itself.
//! It then evaluates the three detection tiers *independently* against
//! the canonical ground truth, reading each app's dex once, as one view
//! and one feature table that the tiers share:
//!
//! * **trie** — longest-prefix matching on package names: a canonical
//!   root counts as detected only if it still appears verbatim in the
//!   obfuscated dex;
//! * **exact_fp** — [`spector_libradar::LibraryDb`] subtree
//!   fingerprints (identifier-hashing, rename-invariant);
//! * **structural** — [`spector_libradar::StructuralIndex`] profiles
//!   (identifier-free, invariant under all tiers).
//!
//! A detected library counts as a true positive only when that app
//! really instantiates the canonical root; anything else the tier
//! claims is a false positive (first-party code crossing the match
//! threshold would land here). The per-level recovery line answers the
//! headline question: of the libraries the prefix tier lost outright,
//! how many did the structural tier bring back?

use std::collections::BTreeSet;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use spector_corpus::obfuscate::library_roots;
use spector_corpus::{obfuscate_corpus, AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};
use spector_dex::{FeatureTable, PackageTree};

/// Harness settings: which deterministic corpus to grade the cascade on.
#[derive(Debug, Clone)]
pub struct DetectQualityConfig {
    /// Apps per obfuscation level (each level regenerates the corpus).
    pub apps: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Per-app dex size scale.
    pub method_scale: f64,
    /// Obfuscator seed (independent of the corpus seed).
    pub obfuscation_seed: u64,
}

impl Default for DetectQualityConfig {
    fn default() -> Self {
        DetectQualityConfig {
            apps: 24,
            seed: 42,
            method_scale: 0.006,
            obfuscation_seed: 0x0bf5,
        }
    }
}

/// Classification counts of one detection tier at one obfuscation
/// level, aggregated over (app, canonical library) instances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierQuality {
    /// Libraries the tier detected that the app really instantiates.
    pub true_positives: usize,
    /// Libraries the tier claimed that the app does not instantiate.
    pub false_positives: usize,
    /// Instantiated libraries the tier failed to detect.
    pub false_negatives: usize,
}

impl TierQuality {
    /// TP / (TP + FP); 1.0 when the tier claimed nothing.
    pub fn precision(&self) -> f64 {
        let claimed = self.true_positives + self.false_positives;
        if claimed == 0 {
            1.0
        } else {
            self.true_positives as f64 / claimed as f64
        }
    }

    /// TP / (TP + FN); 1.0 when there was nothing to find.
    pub fn recall(&self) -> f64 {
        let real = self.true_positives + self.false_negatives;
        if real == 0 {
            1.0
        } else {
            self.true_positives as f64 / real as f64
        }
    }
}

/// All three tiers graded at one obfuscation level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelQuality {
    /// Obfuscation-level label (`none`/`rename`/`mangle`/`junk`).
    pub level: String,
    /// Ground-truth (app, library) instances at this level.
    pub libraries: usize,
    /// Longest-prefix tier.
    pub trie: TierQuality,
    /// Exact subtree-fingerprint tier.
    pub exact_fp: TierQuality,
    /// Structural-profile tier.
    pub structural: TierQuality,
    /// Ground-truth instances the prefix tier missed entirely.
    pub prefix_misses: usize,
    /// Of those, how many the structural tier recovered.
    pub structural_recovered: usize,
}

impl LevelQuality {
    /// Fraction of prefix-tier misses the structural tier recovered;
    /// 1.0 when the prefix tier missed nothing.
    pub fn recovery_rate(&self) -> f64 {
        if self.prefix_misses == 0 {
            1.0
        } else {
            self.structural_recovered as f64 / self.prefix_misses as f64
        }
    }
}

/// The full precision/recall table: one [`LevelQuality`] per
/// obfuscation level, weakest to strongest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectQualityReport {
    /// Apps evaluated per level.
    pub apps: usize,
    /// One row group per obfuscation level.
    pub levels: Vec<LevelQuality>,
}

/// Grades every cascade tier at every obfuscation level.
pub fn evaluate(config: &DetectQualityConfig) -> DetectQualityReport {
    let corpus_config = CorpusConfig {
        apps: config.apps,
        seed: config.seed,
        appgen: AppGenConfig {
            method_scale: config.method_scale,
            ..Default::default()
        },
        ..Default::default()
    };

    // Canonical ground truth: which template roots each app
    // instantiates (identical at every level — obfuscation renames
    // packages but never adds or removes a library).
    let canonical = Corpus::generate(&corpus_config);
    let truth: Vec<BTreeSet<&'static str>> = canonical
        .apps
        .iter()
        .map(|app| {
            let view = app.apk.dex().expect("generated apk has a valid dex");
            library_roots(&PackageTree::new(&view))
                .into_iter()
                .collect()
        })
        .collect();

    let mut levels = Vec::with_capacity(ObfuscationTier::ALL.len());
    for tier in ObfuscationTier::ALL {
        let obfuscated;
        let corpus = if tier == ObfuscationTier::None {
            &canonical
        } else {
            let mut corpus = Corpus::generate(&corpus_config);
            obfuscate_corpus(&mut corpus, tier, config.obfuscation_seed);
            obfuscated = corpus;
            &obfuscated
        };
        let mut level = LevelQuality {
            level: tier.label().to_owned(),
            libraries: truth.iter().map(BTreeSet::len).sum(),
            trie: TierQuality::default(),
            exact_fp: TierQuality::default(),
            structural: TierQuality::default(),
            prefix_misses: 0,
            structural_recovered: 0,
        };
        for (app, truth) in corpus.apps.iter().zip(&truth) {
            let view = app.apk.dex().expect("obfuscated apk has a valid dex");
            let mut table = FeatureTable::new(&view);
            // Trie tier: a canonical root survives only if it still
            // appears verbatim as a package prefix.
            let trie: BTreeSet<&str> = library_roots(table.tree()).into_iter().collect();
            let exact: BTreeSet<String> = corpus
                .library_db
                .detect_in(&mut table)
                .into_iter()
                .map(|d| d.name)
                .collect();
            let structural: BTreeSet<String> = corpus
                .structural_index
                .detect_in(&mut table)
                .into_iter()
                .map(|m| m.name)
                .collect();

            grade(&mut level.trie, truth, &trie.iter().copied().collect());
            let exact_refs: BTreeSet<&str> = exact.iter().map(String::as_str).collect();
            let structural_refs: BTreeSet<&str> = structural.iter().map(String::as_str).collect();
            grade(&mut level.exact_fp, truth, &exact_refs);
            grade(&mut level.structural, truth, &structural_refs);

            for root in truth.iter().filter(|r| !trie.contains(*r)) {
                level.prefix_misses += 1;
                if structural_refs.contains(*root) {
                    level.structural_recovered += 1;
                }
            }
        }
        levels.push(level);
    }

    DetectQualityReport {
        apps: config.apps,
        levels,
    }
}

/// Accumulates one app's detection set against its ground truth.
fn grade(quality: &mut TierQuality, truth: &BTreeSet<&str>, detected: &BTreeSet<&str>) {
    quality.true_positives += truth.iter().filter(|r| detected.contains(*r)).count();
    quality.false_positives += detected.iter().filter(|d| !truth.contains(*d)).count();
    quality.false_negatives += truth.iter().filter(|r| !detected.contains(*r)).count();
}

/// Renders the precision/recall table in the report house style.
pub fn render(report: &DetectQualityReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Detection quality vs obfuscation ==");
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>5} {:>5} {:>5} {:>7} {:>7}",
        "level", "tier", "tp", "fp", "fn", "prec", "recall"
    );
    for level in &report.levels {
        for (label, quality) in [
            ("trie", &level.trie),
            ("exact_fp", &level.exact_fp),
            ("structural", &level.structural),
        ] {
            let _ = writeln!(
                out,
                "{:<8} {:<12} {:>5} {:>5} {:>5} {:>6.2}% {:>6.2}%",
                level.level,
                label,
                quality.true_positives,
                quality.false_positives,
                quality.false_negatives,
                quality.precision() * 100.0,
                quality.recall() * 100.0,
            );
        }
    }
    let _ = writeln!(out, "-- structural recovery of prefix-tier misses --");
    for level in &report.levels {
        let _ = writeln!(
            out,
            "  {:<8} {:>4}/{:<4} recovered {:>6.2}%",
            level.level,
            level.structural_recovered,
            level.prefix_misses,
            level.recovery_rate() * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DetectQualityReport {
        evaluate(&DetectQualityConfig {
            apps: 12,
            seed: 42,
            method_scale: 0.006,
            obfuscation_seed: 0x0bf5,
        })
    }

    #[test]
    fn unobfuscated_corpus_is_fully_detected_by_every_tier() {
        let report = small();
        let none = &report.levels[0];
        assert_eq!(none.level, "none");
        assert!(none.libraries > 0);
        for quality in [&none.trie, &none.exact_fp, &none.structural] {
            assert_eq!(quality.false_negatives, 0, "{none:?}");
            assert_eq!(quality.false_positives, 0, "{none:?}");
            assert_eq!(quality.recall(), 1.0);
        }
    }

    #[test]
    fn rename_kills_the_trie_but_not_the_exact_fingerprint() {
        let report = small();
        let rename = report.levels.iter().find(|l| l.level == "rename").unwrap();
        assert_eq!(rename.trie.true_positives, 0, "renamed roots must vanish");
        assert_eq!(rename.exact_fp.false_negatives, 0);
        assert_eq!(rename.exact_fp.false_positives, 0);
    }

    #[test]
    fn structural_tier_recovers_at_least_90_percent_of_mangled_prefix_misses() {
        let report = small();
        for label in ["mangle", "junk"] {
            let level = report.levels.iter().find(|l| l.level == label).unwrap();
            assert!(
                level.prefix_misses > 0,
                "{label}: obfuscation must defeat the prefix tier"
            );
            assert_eq!(
                level.exact_fp.true_positives, 0,
                "{label}: mangling must defeat the exact fingerprint"
            );
            assert!(
                level.structural_recovered * 10 >= level.prefix_misses * 9,
                "{label}: structural tier recovered {}/{} prefix misses",
                level.structural_recovered,
                level.prefix_misses
            );
        }
    }

    #[test]
    fn no_tier_ever_claims_first_party_code() {
        let report = small();
        for level in &report.levels {
            for (tier, quality) in [
                ("trie", &level.trie),
                ("exact_fp", &level.exact_fp),
                ("structural", &level.structural),
            ] {
                assert_eq!(
                    quality.false_positives, 0,
                    "{}/{tier}: zero false positives by construction",
                    level.level
                );
            }
        }
    }

    #[test]
    fn render_is_deterministic_and_covers_every_level() {
        let report = small();
        let text = render(&report);
        assert_eq!(text, render(&report));
        for level in ObfuscationTier::ALL {
            assert!(text.contains(level.label()), "{text}");
        }
    }
}
