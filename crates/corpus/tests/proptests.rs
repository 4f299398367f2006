//! Property tests for the corpus generator: `Corpus::generate`, which
//! plans every app in order on the calling thread and builds the apps
//! and the library indexes in parallel, equals the single-pass
//! generator it replaced, byte for byte.

use proptest::prelude::*;
use proptest::TestCaseError;
use spector_corpus::libraries::{instantiate, LibraryOps, LIBRARY_TEMPLATES};
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig, GeneratedApp};
use spector_dex::model::{Connector, DexFile, NetworkOp, WireShape};

#[path = "../../libradar/tests/support/fingerprint.rs"]
mod fingerprint;
#[path = "support/generator.rs"]
mod generator;
#[path = "../../dex/tests/support/subtree.rs"]
mod subtree;

/// Fails unless `app` equals the reference's `expected` in every field,
/// with every apk entry equal byte for byte.
fn same_app(app: &GeneratedApp, expected: &GeneratedApp) -> Result<(), TestCaseError> {
    prop_assert_eq!(&app.package, &expected.package);
    prop_assert_eq!(app.category.name, expected.category.name);
    prop_assert_eq!(app.archetype, expected.archetype);
    prop_assert_eq!(&app.truth, &expected.truth);
    prop_assert_eq!(&app.system_ops, &expected.system_ops);
    let entries = app.apk.entries();
    let expected_entries = expected.apk.entries();
    prop_assert_eq!(entries.len(), expected_entries.len());
    for (entry, expected_entry) in entries.iter().zip(expected_entries) {
        prop_assert_eq!(&entry.name, &expected_entry.name);
        prop_assert!(
            entry.data == expected_entry.data,
            "{}: entry {} differs",
            app.package,
            entry.name
        );
    }
    Ok(())
}

/// A template's dex alone, instantiated at method 0 with placeholder
/// operands (which move neither fingerprints nor profiles).
fn template_dex(index: usize) -> DexFile {
    let op = NetworkOp {
        domain: "placeholder.invalid".into(),
        port: 443,
        send_bytes: 0,
        recv_bytes: 0,
        connector: Connector::AndroidOkHttp,
        shape: WireShape::Plain,
    };
    let ops = LibraryOps {
        bg0: op.clone(),
        bg1: op.clone(),
        refresh: op,
    };
    DexFile {
        methods: instantiate(&LIBRARY_TEMPLATES[index], 0, &ops).methods,
        classes: vec![],
    }
}

/// Fails unless `corpus` equals the single-pass reference for `config`:
/// every app, the domain universe, and both library indexes (every
/// template is found under the reference's fingerprint and profile).
fn equals_reference(corpus: &Corpus, config: &CorpusConfig) -> Result<(), TestCaseError> {
    let (apps, domains) = generator::generate(config);
    prop_assert_eq!(corpus.apps.len(), apps.len());
    for (app, expected) in corpus.apps.iter().zip(&apps) {
        same_app(app, expected)?;
    }
    prop_assert_eq!(corpus.domains.domains(), domains.domains());

    prop_assert_eq!(corpus.library_db.len(), LIBRARY_TEMPLATES.len());
    prop_assert_eq!(corpus.structural_index.len(), LIBRARY_TEMPLATES.len());
    for (index, template) in LIBRARY_TEMPLATES.iter().enumerate() {
        let dex = template_dex(index);
        let fingerprint = fingerprint::fingerprint_subtree(&dex, template.package)
            .expect("a template has methods");
        prop_assert_eq!(
            corpus.library_db.lookup(&fingerprint),
            Some((template.package, template.category))
        );
        let profile = subtree::subtree_profile(&dex, template.package);
        let matched = corpus.structural_index.best_match(&profile);
        prop_assert!(
            matched.is_some_and(|m| m.name == template.package && m.score == 1.0),
            "{} is not its own best structural match",
            template.package
        );
    }
    Ok(())
}

fn config() -> impl Strategy<Value = CorpusConfig> {
    (
        0usize..=12,
        any::<u64>(),
        2u32..=20,
        5u32..=100,
        prop::sample::select(vec![0.0, 0.3, 1.0]),
        // Universes of a few dozen domains or fewer run out of unused
        // domains in some categories: `sample_unused` falls back.
        prop_oneof![Just(None), (1usize..=60).prop_map(Some)],
    )
        .prop_map(
            |(apps, seed, method_permille, volume_percent, modern_fraction, domain_count)| {
                CorpusConfig {
                    apps,
                    seed,
                    domain_count,
                    appgen: AppGenConfig {
                        method_scale: f64::from(method_permille) / 1_000.0,
                        volume_scale: f64::from(volume_percent) / 100.0,
                        modern_fraction,
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generate_equals_the_single_pass_reference(config in config()) {
        equals_reference(&Corpus::generate(&config), &config)?;
    }
}

#[test]
fn a_one_domain_universe_takes_the_fallback_and_still_matches() {
    // One domain per category: every app's second op in a category
    // exhausts `sample_unused`'s retries and takes its fallback draw.
    let config = CorpusConfig {
        apps: 6,
        seed: 5,
        domain_count: Some(1),
        appgen: AppGenConfig {
            method_scale: 0.002,
            ..Default::default()
        },
    };
    let corpus = Corpus::generate(&config);
    let reused = corpus.apps.iter().any(|app| {
        let mut domains: Vec<&str> = app.truth.iter().map(|t| t.domain.as_str()).collect();
        domains.sort_unstable();
        domains.windows(2).any(|pair| pair[0] == pair[1])
    });
    assert!(reused, "no app reused a domain: the fallback never ran");
    equals_reference(&corpus, &config).unwrap();
}
