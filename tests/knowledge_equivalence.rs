//! The corpus scan against a serial, unpruned rescan.
//!
//! `Knowledge::from_corpus` detects libraries over one feature table
//! per dex view, skips subtrees whose size rules a match out, and
//! detects apps in parallel. The reference here does none of that: for
//! every app in order it parses the owned dex, enumerates every package
//! prefix, fingerprints and profiles each one from scratch with the
//! frozen references under `crates/*/tests/support/`, scores every
//! profile, and merges as it goes. Both must agree on the aggregate,
//! both alias tables and the domain table, clean and at every
//! obfuscation tier.

use std::collections::{BTreeSet, HashMap};

use libspector::knowledge::Knowledge;
use spector_corpus::{obfuscate_corpus, AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};
use spector_dex::model::DexFile;
use spector_libradar::{AggregatedLibraries, PrefixAliases};
use spector_vtcat::{DomainCategory, Tokenizer};

#[path = "../crates/libradar/tests/support/fingerprint.rs"]
mod fingerprint;
#[path = "../crates/dex/tests/support/subtree.rs"]
mod subtree;

use fingerprint::fingerprint_subtree;
use subtree::subtree_profile;

/// Every package prefix (each hierarchy level) of the dex's methods.
fn every_package_prefix(dex: &DexFile) -> BTreeSet<String> {
    let mut prefixes = BTreeSet::new();
    for method in &dex.methods {
        let pkg = method.sig.package();
        if pkg.is_empty() {
            continue;
        }
        let parts: Vec<&str> = pkg.split('.').collect();
        for level in 1..=parts.len() {
            prefixes.insert(parts[..level].join("."));
        }
    }
    prefixes
}

struct Reference {
    aggregated: AggregatedLibraries,
    exact_aliases: PrefixAliases,
    structural_aliases: PrefixAliases,
    domain_categories: HashMap<String, DomainCategory>,
}

fn serial_rescan(corpus: &Corpus) -> Reference {
    let mut aggregated = AggregatedLibraries::new();
    let mut exact_aliases = PrefixAliases::new();
    let mut structural_aliases = PrefixAliases::new();
    for app in &corpus.apps {
        let Ok(dex) = app.apk.dex().map(|view| view.to_dex()) else {
            continue;
        };
        let prefixes = every_package_prefix(&dex);
        for prefix in &prefixes {
            let found =
                fingerprint_subtree(&dex, prefix).and_then(|fp| corpus.library_db.lookup(&fp));
            if let Some((name, category)) = found {
                aggregated.record(name, category);
                exact_aliases.insert(prefix, name);
            }
        }
        for prefix in &prefixes {
            let profile = subtree_profile(&dex, prefix);
            if let Some(matched) = corpus.structural_index.best_match(&profile) {
                aggregated.record(&matched.name, matched.category);
                structural_aliases.insert(prefix, &matched.name);
            }
        }
    }
    let tokenizer = Tokenizer::new();
    let domain_categories = corpus
        .domains
        .domains()
        .iter()
        .map(|domain| {
            (
                domain.name.clone(),
                tokenizer.classify(&domain.vendor_labels),
            )
        })
        .collect();
    Reference {
        aggregated,
        exact_aliases,
        structural_aliases,
        domain_categories,
    }
}

/// Asserts `Knowledge::from_corpus` equals the reference on 50-app
/// corpora at `tier`, legacy-only and half modern.
fn assert_scan_equals_rescan(tier: ObfuscationTier) {
    for (seed, modern_fraction) in [(1501u64, 0.0), (1502, 0.5)] {
        let mut corpus = Corpus::generate(&CorpusConfig {
            apps: 50,
            seed,
            appgen: AppGenConfig {
                method_scale: 0.004,
                modern_fraction,
                ..Default::default()
            },
            ..Default::default()
        });
        if tier != ObfuscationTier::None {
            obfuscate_corpus(&mut corpus, tier, seed);
        }
        let context = format!("seed {seed}, modern {modern_fraction}, {tier:?}");
        let knowledge = Knowledge::from_corpus(&corpus);
        let reference = serial_rescan(&corpus);
        assert!(!reference.aggregated.is_empty(), "{context}");
        assert_eq!(
            serde_json::to_string(&knowledge.aggregated).unwrap(),
            serde_json::to_string(&reference.aggregated).unwrap(),
            "aggregate, {context}"
        );
        assert_eq!(
            knowledge.exact_aliases, reference.exact_aliases,
            "exact aliases, {context}"
        );
        assert_eq!(
            knowledge.structural_aliases, reference.structural_aliases,
            "structural aliases, {context}"
        );
        assert_eq!(
            knowledge.domain_categories, reference.domain_categories,
            "domain table, {context}"
        );
        // Each tier populates the alias table it should.
        let (exact, structural) = match tier {
            ObfuscationTier::None => (false, false),
            ObfuscationTier::Rename => (true, true),
            ObfuscationTier::Mangle | ObfuscationTier::Junk => (false, true),
        };
        assert_eq!(!knowledge.exact_aliases.is_empty(), exact, "{context}");
        assert_eq!(
            !knowledge.structural_aliases.is_empty(),
            structural,
            "{context}"
        );
    }
}

#[test]
fn clean_corpus_scan_equals_the_serial_rescan() {
    assert_scan_equals_rescan(ObfuscationTier::None);
}

#[test]
fn renamed_corpus_scan_equals_the_serial_rescan() {
    assert_scan_equals_rescan(ObfuscationTier::Rename);
}

#[test]
fn mangled_corpus_scan_equals_the_serial_rescan() {
    assert_scan_equals_rescan(ObfuscationTier::Mangle);
}

#[test]
fn junk_corpus_scan_equals_the_serial_rescan() {
    assert_scan_equals_rescan(ObfuscationTier::Junk);
}
