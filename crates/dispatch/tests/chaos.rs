//! Chaos properties of the hardened campaign runner.
//!
//! The contract under test: for *any* seeded `FaultPlan`, the
//! accounting invariant holds and no panic escapes the pool; for the
//! *same* plan, results are byte-identical across worker counts; and
//! for the zero-fault plan, the hardened path reproduces the plain
//! `run_corpus` output exactly; and a campaign killed mid-run resumes
//! from its store campaign's sealed segments (its checkpoint) to the
//! uninterrupted outcome. Byte identity is asserted on the serialized
//! outcome, not field samples.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use libspector::knowledge::Knowledge;
use proptest::prelude::*;
use spector_analysis::{storeq, FullReport};
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_dispatch::{
    run_campaign, run_campaign_stored, run_corpus, CampaignConfig, CampaignOutcome, DispatchConfig,
    RetryPolicy,
};
use spector_faults::{FaultPlan, FaultProfile};
use spector_store::{
    CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreReader, StoreWriter,
    MANIFEST_FILE,
};

/// Injected panics are expected here; keep them out of test output.
/// (The hook is process-global, but every test in this binary that
/// panics on purpose wants the same silence.)
fn silence_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

fn tiny_corpus(apps: usize, seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        apps,
        seed,
        appgen: AppGenConfig {
            method_scale: 0.004,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn chaos_config(workers: usize, plan: FaultPlan) -> CampaignConfig {
    let mut dispatch = DispatchConfig {
        workers,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = 40;
    CampaignConfig {
        dispatch,
        chaos: Some(plan),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 0,
            max_backoff_micros: 0,
        },
        ..Default::default()
    }
}

fn outcome_bytes(outcome: &CampaignOutcome) -> Vec<u8> {
    serde_json::to_vec(outcome).expect("outcome serializes")
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spector-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_meta(corpus: &Corpus, config: &CampaignConfig) -> CampaignMeta {
    CampaignMeta {
        seed: config.dispatch.experiment.monkey.seed,
        apps: corpus.apps.len(),
        monkey_events: config.dispatch.experiment.monkey.events as usize,
        kind: CampaignKind::Run,
    }
}

/// Opens `dir` for `config`'s campaign, sealing a segment per analysis.
fn open_store(
    dir: &Path,
    corpus: &Corpus,
    config: &CampaignConfig,
    resume: bool,
) -> io::Result<StoreWriter> {
    let options = StoreOptions {
        seal_every: 1,
        ..StoreOptions::default()
    };
    let fingerprint = config.fingerprint(corpus.apps.len());
    let meta = store_meta(corpus, config);
    Ok(StoreWriter::open(
        dir,
        &meta,
        &fingerprint,
        resume,
        options,
    )?)
}

/// Runs `config`'s campaign into `writer` and seals it.
fn run_stored(
    corpus: &Corpus,
    knowledge: &Knowledge,
    config: &CampaignConfig,
    writer: StoreWriter,
    progress: Option<&(dyn Fn(usize) + Sync)>,
) -> CampaignOutcome {
    let writer = Mutex::new(writer);
    let outcome =
        run_campaign_stored(corpus, knowledge, config, None, progress, Some(&writer)).unwrap();
    let meta = store_meta(corpus, config);
    writer
        .into_inner()
        .unwrap()
        .finish(&CampaignSealRecord {
            seed: meta.seed,
            apps: meta.apps,
            monkey_events: meta.monkey_events,
            failures: outcome.failures.clone(),
        })
        .unwrap();
    outcome
}

fn arb_profile() -> impl Strategy<Value = FaultProfile> {
    // Per-mille rates; the vendored proptest has no f64 range strategy.
    let p = |permille: u32| permille as f64 / 1000.0;
    (
        0u32..400,
        0u32..300,
        0u32..300,
        0u32..300,
        0u32..200,
        0u32..50,
        0u32..300,
        0u32..400,
        0u32..300,
        0u32..200,
    )
        .prop_map(
            move |(loss, dup, reorder, trunc, flip, frame, death, boot, hang, panic)| {
                FaultProfile {
                    report_loss: p(loss),
                    report_duplication: p(dup),
                    report_reorder: p(reorder),
                    report_truncation: p(trunc),
                    report_bit_flip: p(flip),
                    frame_truncation: p(frame),
                    capture_death: p(death),
                    boot_failure: p(boot),
                    monkey_hang: p(hang),
                    worker_panic: p(panic),
                }
            },
        )
}

proptest! {
    // Each case runs a full (tiny) campaign; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn accounting_invariant_holds_under_any_plan(
        seed in any::<u64>(),
        profile in arb_profile(),
    ) {
        silence_panics();
        let corpus = tiny_corpus(3, 31);
        let knowledge = Knowledge::from_corpus(&corpus);
        let config = chaos_config(2, FaultPlan::new(seed, profile));
        let outcome = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();
        // Every app lands in exactly one bucket, retries accounted.
        prop_assert_eq!(outcome.total(), corpus.apps.len());
        let failure_attempts: usize = outcome
            .failures
            .iter()
            .map(|f| f.attempts as usize)
            .sum();
        prop_assert!(outcome.retried + outcome.failures.len() >= failure_attempts,
            "retried {} failures {} attempts {}", outcome.retried, outcome.failures.len(), failure_attempts);
        for failure in &outcome.failures {
            prop_assert!(failure.attempts >= 1);
            prop_assert!(failure.attempts <= config.retry.max_attempts);
            prop_assert!(!failure.error.is_empty());
        }
        // App order is preserved in both buckets.
        let analysis_packages: Vec<&str> =
            outcome.analyses.iter().map(|a| a.package.as_str()).collect();
        let mut expected = analysis_packages.clone();
        expected.sort_by_key(|p| corpus.apps.iter().position(|a| a.package == *p));
        prop_assert_eq!(analysis_packages, expected);
    }

    #[test]
    fn same_plan_is_byte_identical_across_worker_counts(
        seed in any::<u64>(),
        profile in arb_profile(),
    ) {
        silence_panics();
        let corpus = tiny_corpus(3, 32);
        let knowledge = Knowledge::from_corpus(&corpus);
        let plan = FaultPlan::new(seed, profile);
        let serial = run_campaign(&corpus, &knowledge, &chaos_config(1, plan), None, None).unwrap();
        let parallel = run_campaign(&corpus, &knowledge, &chaos_config(4, plan), None, None).unwrap();
        prop_assert_eq!(outcome_bytes(&serial), outcome_bytes(&parallel));
    }
}

#[test]
fn zero_fault_plan_reproduces_plain_run_corpus_exactly() {
    let corpus = tiny_corpus(4, 33);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers: 2,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = 40;
    let plain = run_corpus(&corpus, &knowledge, &dispatch, None);
    // Chaos machinery armed — retries allowed, plan present — but the
    // profile is all zeros, so nothing may change.
    let mut config = chaos_config(2, FaultPlan::new(987, FaultProfile::none()));
    config.dispatch = dispatch;
    let hardened = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();
    assert_eq!(outcome_bytes(&plain), outcome_bytes(&hardened));
}

#[test]
fn no_panic_escapes_the_pool() {
    silence_panics();
    let corpus = tiny_corpus(3, 34);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut profile = FaultProfile::none();
    profile.worker_panic = 1.0;
    let config = chaos_config(2, FaultPlan::new(5, profile));
    // Every attempt panics; the campaign must still return, with every
    // app recorded as a failure (panics are not retryable).
    let outcome = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();
    assert_eq!(outcome.analyses.len(), 0);
    assert_eq!(outcome.failures.len(), 3);
    for failure in &outcome.failures {
        assert!(failure.error.contains("panicked"), "{}", failure.error);
        assert_eq!(failure.attempts, 1);
    }
}

#[test]
fn retryable_faults_are_retried_with_bounded_attempts() {
    silence_panics();
    let corpus = tiny_corpus(6, 35);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut profile = FaultProfile::none();
    profile.boot_failure = 0.6;
    let config = chaos_config(2, FaultPlan::new(77, profile));
    let outcome = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();
    assert_eq!(outcome.total(), 6);
    assert!(
        outcome.retried > 0,
        "a 60% boot-failure rate must trigger retries"
    );
    assert!(
        !outcome.analyses.is_empty(),
        "with 3 attempts at 60% failure, some app must eventually boot"
    );
    for failure in &outcome.failures {
        // Only the retryable fault fires, so every failure exhausted
        // its attempts.
        assert_eq!(failure.attempts, config.retry.max_attempts);
        assert!(failure.error.contains("boot"), "{}", failure.error);
    }
}

#[test]
fn injected_deadline_hangs_are_retried() {
    silence_panics();
    let corpus = tiny_corpus(3, 36);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut profile = FaultProfile::none();
    profile.monkey_hang = 1.0;
    let mut config = chaos_config(2, FaultPlan::new(6, profile));
    config.deadline_micros = Some(1_000_000_000);
    let outcome = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();
    assert_eq!(outcome.analyses.len(), 0);
    assert_eq!(outcome.failures.len(), 3);
    assert_eq!(
        outcome.retried,
        3 * (config.retry.max_attempts as usize - 1)
    );
    for failure in &outcome.failures {
        assert!(failure.error.contains("hang"), "{}", failure.error);
        assert_eq!(failure.attempts, config.retry.max_attempts);
    }
}

#[test]
fn real_deadline_fires_on_virtual_clock() {
    let corpus = tiny_corpus(2, 37);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut config = chaos_config(1, FaultPlan::new(0, FaultProfile::none()));
    config.deadline_micros = Some(1); // Every run exceeds 1µs.
    let outcome = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();
    assert_eq!(outcome.analyses.len(), 0);
    assert_eq!(outcome.failures.len(), 2);
    for failure in &outcome.failures {
        assert!(
            failure.error.contains("deadline exceeded"),
            "{}",
            failure.error
        );
    }
}

#[test]
fn resumed_campaign_matches_uninterrupted_run() {
    silence_panics();
    let corpus = tiny_corpus(5, 38);
    let knowledge = Knowledge::from_corpus(&corpus);
    let config = chaos_config(2, FaultPlan::new(41, FaultProfile::light()));
    let uninterrupted = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();

    // A collector killed after two sealed segments: the writer
    // vanishes without finish() or Drop.
    let dir = temp_store("resume");
    let mut writer = open_store(&dir, &corpus, &config, false).unwrap();
    for analysis in uninterrupted.analyses.iter().take(2) {
        let index = corpus
            .apps
            .iter()
            .position(|app| app.package == analysis.package)
            .unwrap();
        writer.append_analysis(index as u32, analysis).unwrap();
    }
    std::mem::forget(writer);

    // Resume: only the apps the store does not hold re-run.
    let reran = AtomicUsize::new(0);
    let progress = |_done: usize| {
        reran.fetch_add(1, Ordering::Relaxed);
    };
    let writer = open_store(&dir, &corpus, &config, true).unwrap();
    let resumed = run_stored(&corpus, &knowledge, &config, writer, Some(&progress));
    assert_eq!(reran.load(Ordering::Relaxed), 3);
    assert_eq!(
        serde_json::to_vec(&resumed.analyses).unwrap(),
        serde_json::to_vec(&uninterrupted.analyses).unwrap(),
        "resumed analyses must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        serde_json::to_vec(&resumed.failures).unwrap(),
        serde_json::to_vec(&uninterrupted.failures).unwrap(),
    );

    // The store holds one campaign, the resumed one, sealed, whose
    // segment numbering ran on past the crash.
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.campaigns().len(), 1);
    assert!(reader.campaigns()[0].sealed);
    let seqs: Vec<u32> = reader.segments().iter().map(|s| s.seq).collect();
    assert_eq!(seqs, (0..seqs.len() as u32).collect::<Vec<_>>());
    assert_eq!(
        storeq::report_from_store(&reader, 0).render(),
        FullReport::build(&uninterrupted.analyses).render()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_foreign_checkpoint() {
    let corpus = tiny_corpus(2, 39);
    let config = chaos_config(1, FaultPlan::new(1, FaultProfile::none()));
    let dir = temp_store("foreign");
    // An unsealed campaign, as a killed run leaves it.
    drop(open_store(&dir, &corpus, &config, false).unwrap());
    let manifest = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();

    // Same store, different chaos seed: refused, store untouched.
    let other = chaos_config(1, FaultPlan::new(2, FaultProfile::none()));
    let err = open_store(&dir, &corpus, &other, true).err().unwrap();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
    assert_eq!(std::fs::read(dir.join(MANIFEST_FILE)).unwrap(), manifest);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_resume_checkpoint_starts_fresh() {
    let corpus = tiny_corpus(2, 40);
    let knowledge = Knowledge::from_corpus(&corpus);
    let config = chaos_config(1, FaultPlan::new(3, FaultProfile::none()));
    let dir = temp_store("fresh");
    // No store yet, then a store whose only campaign is sealed: both
    // times there is nothing to resume, so a new campaign runs.
    for campaign in 0..2u32 {
        let writer = open_store(&dir, &corpus, &config, true).unwrap();
        assert_eq!(writer.campaign_id(), campaign);
        let outcome = run_stored(&corpus, &knowledge, &config, writer, None);
        assert_eq!(outcome.total(), 2);
        assert_eq!(outcome.analyses.len(), 2);
    }
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.campaigns().iter().all(|c| c.sealed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_surfaces_in_degraded_mode_accounting() {
    let corpus = tiny_corpus(3, 42);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut profile = FaultProfile::none();
    profile.report_truncation = 1.0;
    let config = chaos_config(2, FaultPlan::new(13, profile));
    let outcome = run_campaign(&corpus, &knowledge, &config, None, None).unwrap();
    assert_eq!(outcome.analyses.len(), 3);
    assert!(outcome.injected.reports_truncated > 0);
    let truncated: usize = outcome
        .analyses
        .iter()
        .map(|a| a.integrity.reports_truncated)
        .sum();
    assert_eq!(
        truncated, outcome.injected.reports_truncated,
        "every injected truncation must be observed by the decoder"
    );
    assert!(outcome.analyses.iter().all(|a| a.integrity.is_degraded()));
}
