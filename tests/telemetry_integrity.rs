//! Telemetry-vs-ground-truth agreement: the counters a campaign's
//! metrics snapshot reports must equal, exactly, the totals the
//! campaign outcome itself carries — under every chaos profile.
//!
//! Three independent accounting systems observe the same campaign:
//! the [`RunIntegrity`] ledgers embedded in each accepted analysis,
//! the [`PerturbStats`] the fault layer accumulates, and the
//! telemetry counters incremented at the instrumentation points.
//! Any drift between them means an instrumentation point is missing,
//! double-counted, or misplaced.

use std::sync::Arc;

use libspector::attribution::OriginKind;
use libspector::experiment::{resolver_for, run_corpus_app, ExperimentConfig, RawRun};
use libspector::knowledge::Knowledge;
use libspector::pipeline::{DetectStats, RunIntegrity};
use spector_corpus::{obfuscate_corpus, AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};
use spector_dispatch::{
    run_campaign, CampaignConfig, CampaignOutcome, DispatchConfig, RetryPolicy,
};
use spector_faults::{perturb_capture, FaultPlan, FaultProfile};
use spector_live::{LiveConfig, LiveEngine};
use spector_sampling::{SamplingConfig, SamplingLedger, TraceBudget};
use spector_telemetry::{MetricsSnapshot, Telemetry};

fn run_with_profile(
    profile: FaultProfile,
    seed: u64,
    apps: usize,
) -> (CampaignOutcome, MetricsSnapshot) {
    run_sampled(profile, SamplingConfig::default(), seed, apps)
}

fn run_sampled(
    profile: FaultProfile,
    sampling: SamplingConfig,
    seed: u64,
    apps: usize,
) -> (CampaignOutcome, MetricsSnapshot) {
    let corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed,
        appgen: AppGenConfig {
            method_scale: 0.006,
            ..Default::default()
        },
        ..Default::default()
    });
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers: 2,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = 80;
    dispatch.experiment.monkey.seed = seed;
    dispatch.experiment.supervisor.sampling = sampling;
    let chaos = (!profile.is_noop()).then(|| FaultPlan::new(seed ^ 0xc4a5, profile));
    let telemetry = Telemetry::enabled();
    let config = CampaignConfig {
        dispatch,
        retry: if chaos.is_some() {
            RetryPolicy::default()
        } else {
            RetryPolicy::never()
        },
        chaos,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let outcome = run_campaign(&corpus, &knowledge, &config, None, None).expect("campaign runs");
    (outcome, telemetry.snapshot())
}

/// [`run_with_profile`] without chaos, but with the corpus obfuscated
/// at `tier` before knowledge extraction — the knowledge bases stay
/// canonical, so the campaign's verdict lookups must bridge obfuscated
/// origins through the fingerprint/structural tiers.
fn run_obfuscated(
    tier: ObfuscationTier,
    seed: u64,
    apps: usize,
) -> (CampaignOutcome, MetricsSnapshot) {
    let mut corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed,
        appgen: AppGenConfig {
            method_scale: 0.006,
            ..Default::default()
        },
        ..Default::default()
    });
    obfuscate_corpus(&mut corpus, tier, seed ^ 0x0bf5);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers: 2,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = 80;
    dispatch.experiment.monkey.seed = seed;
    let telemetry = Telemetry::enabled();
    let config = CampaignConfig {
        dispatch,
        retry: RetryPolicy::never(),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let outcome = run_campaign(&corpus, &knowledge, &config, None, None).expect("campaign runs");
    (outcome, telemetry.snapshot())
}

/// Field-wise sum of the per-analysis integrity ledgers.
fn integrity_totals(outcome: &CampaignOutcome) -> RunIntegrity {
    let mut total = RunIntegrity::default();
    for analysis in &outcome.analyses {
        total.frames_truncated += analysis.integrity.frames_truncated;
        total.frames_malformed += analysis.integrity.frames_malformed;
        total.frames_bad_checksum += analysis.integrity.frames_bad_checksum;
        total.reports_truncated += analysis.integrity.reports_truncated;
        total.reports_malformed += analysis.integrity.reports_malformed;
        total.synthesized_flows += analysis.integrity.synthesized_flows;
    }
    total
}

fn assert_agreement(outcome: &CampaignOutcome, snapshot: &MetricsSnapshot, label: &str) {
    // 1. Integrity counters equal the field-wise RunIntegrity sums —
    //    record_integrity fires exactly once per accepted analysis.
    let integrity = integrity_totals(outcome);
    let pairs = [
        ("frames_truncated", integrity.frames_truncated),
        ("frames_malformed", integrity.frames_malformed),
        ("frames_bad_checksum", integrity.frames_bad_checksum),
        ("reports_truncated", integrity.reports_truncated),
        ("reports_malformed", integrity.reports_malformed),
        ("synthesized_flows", integrity.synthesized_flows),
    ];
    for (field, expected) in pairs {
        assert_eq!(
            snapshot.counter(&format!("spector_integrity_{field}_total")),
            expected as u64,
            "{label}: integrity counter {field} disagrees with analyses"
        );
    }

    // 2. Fault counters equal the outcome's accumulated PerturbStats —
    //    recorded in the collector exactly where `injected` merges.
    let injected = &outcome.injected;
    let faults = [
        ("reports_dropped", injected.reports_dropped),
        ("reports_duplicated", injected.reports_duplicated),
        ("reports_reordered", injected.reports_reordered),
        ("reports_truncated", injected.reports_truncated),
        ("reports_bit_flipped", injected.reports_bit_flipped),
        ("frames_truncated", injected.frames_truncated),
        (
            "frames_lost_to_capture_death",
            injected.frames_lost_to_capture_death,
        ),
    ];
    for (field, expected) in faults {
        assert_eq!(
            snapshot.counter(&format!("spector_fault_{field}_total")),
            expected as u64,
            "{label}: fault counter {field} disagrees with outcome.injected"
        );
    }

    // 3. Campaign lifecycle counters equal the outcome lens.
    assert_eq!(
        snapshot.counter("spector_campaign_apps_ok_total"),
        outcome.analyses.len() as u64,
        "{label}: apps_ok"
    );
    assert_eq!(
        snapshot.counter("spector_campaign_apps_failed_total"),
        outcome.failures.len() as u64,
        "{label}: apps_failed"
    );
    assert_eq!(
        snapshot.counter("spector_campaign_retries_total"),
        outcome.retried as u64,
        "{label}: retries"
    );

    // 4. Pipeline join balance and per-analysis flow accounting.
    let reports = snapshot.counter("spector_pipeline_reports_total");
    let attributed = snapshot.counter("spector_pipeline_flows_attributed_total");
    let duplicates = snapshot.counter("spector_pipeline_duplicate_reports_total");
    let orphans = snapshot.counter("spector_pipeline_reports_without_flow_total");
    assert_eq!(
        reports,
        attributed + duplicates + orphans,
        "{label}: join balance"
    );
    let flows: u64 = outcome.analyses.iter().map(|a| a.flows.len() as u64).sum();
    let unattributed: u64 = outcome
        .analyses
        .iter()
        .map(|a| a.unattributed_flows as u64)
        .sum();
    let orphaned: u64 = outcome
        .analyses
        .iter()
        .map(|a| a.reports_without_flow as u64)
        .sum();
    assert_eq!(attributed, flows, "{label}: attributed flows");
    assert_eq!(
        snapshot.counter("spector_pipeline_flows_unattributed_total"),
        unattributed,
        "{label}: unattributed flows"
    );
    assert_eq!(orphans, orphaned, "{label}: flow-less reports");

    // 5. Detection-cascade balance: one lookup per attributed
    //    library-origin flow, each resolved by exactly one tier. The
    //    `spector_detect_*` counters must equal the per-analysis
    //    DetectStats sums, per tier.
    let mut detect = DetectStats::default();
    for analysis in &outcome.analyses {
        assert_eq!(
            analysis.detect.lookups,
            analysis.detect.tier_sum(),
            "{label}: {} per-app tier counts must sum to lookups",
            analysis.package
        );
        detect.merge(&analysis.detect);
    }
    let library_flows = outcome
        .analyses
        .iter()
        .flat_map(|a| &a.flows)
        .filter(|f| matches!(f.origin, OriginKind::Library { .. }))
        .count() as u64;
    assert_eq!(
        detect.lookups, library_flows,
        "{label}: one cascade lookup per library-origin flow"
    );
    let tiers = [
        ("lookups", detect.lookups),
        ("trie_hit", detect.trie_hits),
        ("exact_fp_hit", detect.exact_fp_hits),
        ("structural_hit", detect.structural_hits),
        ("miss", detect.misses),
    ];
    for (tier, expected) in tiers {
        assert_eq!(
            snapshot.counter(&format!("spector_detect_{tier}_total")),
            expected,
            "{label}: detect counter {tier} disagrees with analyses"
        );
    }
    assert_eq!(
        snapshot.counter("spector_detect_lookups_total"),
        snapshot.counter("spector_detect_trie_hit_total")
            + snapshot.counter("spector_detect_exact_fp_hit_total")
            + snapshot.counter("spector_detect_structural_hit_total")
            + snapshot.counter("spector_detect_miss_total"),
        "{label}: detect tier counters must sum to lookups"
    );
}

/// Scripted experiment runs (the live engine's input shape), with the
/// wire damage of `profile` applied per run and `modern_fraction` of
/// the corpus traffic generated in the modern socket shapes (IPv6,
/// pooled streams, TLS-like, CONNECT); 0.0 is the legacy corpus.
fn perturbed_runs_mixed(
    profile: FaultProfile,
    seed: u64,
    apps: usize,
    modern_fraction: f64,
) -> (Knowledge, Vec<RawRun>, u16) {
    let corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed,
        appgen: AppGenConfig {
            method_scale: 0.006,
            modern_fraction,
            ..Default::default()
        },
        ..Default::default()
    });
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 100;
    let port = config.supervisor.collector_port;
    let plan = FaultPlan::new(seed ^ 0x11ce, profile);
    let runs: Vec<RawRun> = (0..corpus.apps.len())
        .map(|index| {
            let mut raw = run_corpus_app(&corpus, &resolver, &config, index).unwrap();
            let capture = std::mem::take(&mut raw.capture);
            let (capture, _) = perturb_capture(&plan, index, 0, capture, port);
            raw.capture = capture;
            raw
        })
        .collect();
    (Knowledge::from_corpus(&corpus), runs, port)
}

/// The live ingress balance sheet: every raw frame accepted at the
/// producer is accounted for by exactly one shard-side class counter —
/// decoded TCP/DNS/report, or one of the five decode-error classes.
/// The identity must hold *merged across shards*, at any width and
/// batch size, under any chaos profile.
fn assert_live_ingress_balances(profile: FaultProfile, seed: u64, label: &str) {
    assert_live_ingress_balances_mixed(profile, seed, label, 0.0);
}

fn assert_live_ingress_balances_mixed(
    profile: FaultProfile,
    seed: u64,
    label: &str,
    modern_fraction: f64,
) {
    let (knowledge, runs, port) = perturbed_runs_mixed(profile, seed, 4, modern_fraction);
    let knowledge = Arc::new(knowledge);
    let total_frames: u64 = runs.iter().map(|r| r.capture.len() as u64).sum();
    let mut class_counts: Vec<Vec<u64>> = Vec::new();
    for (shards, batch_events) in [(1usize, 64usize), (2, 1), (4, 7)] {
        let engine = LiveEngine::start(
            Arc::clone(&knowledge),
            LiveConfig {
                shards,
                collector_port: port,
                batch_events,
                telemetry: Telemetry::enabled(),
                ..Default::default()
            },
        );
        for (index, raw) in runs.iter().enumerate() {
            engine.push_run(index as u32, &raw.capture);
        }
        let (summary, metrics) = engine.finish_with_metrics();
        let counter = |name: &str| metrics.counter(name);
        let events = counter("spector_live_events_total");
        assert_eq!(
            events, total_frames,
            "{label}: every raw frame counts once at ingress ({shards} shards)"
        );
        let classes = [
            counter("spector_live_tcp_events_total"),
            counter("spector_live_dns_events_total"),
            counter("spector_live_report_events_total"),
            counter("spector_live_ingress_frames_truncated_total"),
            counter("spector_live_ingress_frames_malformed_total"),
            counter("spector_live_ingress_frames_bad_checksum_total"),
            counter("spector_live_ingress_reports_truncated_total"),
            counter("spector_live_ingress_reports_malformed_total"),
        ];
        assert_eq!(
            events,
            classes.iter().sum::<u64>(),
            "{label}: merged ingress counters must balance exactly ({shards} shards)"
        );
        // Address-family partition: every *decoded* event (TCP, DNS,
        // report) is counted by exactly one family counter. The two
        // partitions of the same population must agree — merged across
        // shards, at any width, under any chaos profile.
        let by_family = [
            counter("spector_shape_ipv4_total"),
            counter("spector_shape_ipv6_total"),
        ];
        assert_eq!(
            classes[..3].iter().sum::<u64>(),
            by_family.iter().sum::<u64>(),
            "{label}: decoded-event and family partitions must agree ({shards} shards)"
        );
        if modern_fraction > 0.0 {
            assert!(
                by_family[1] > 0,
                "{label}: a mixed corpus must put IPv6 frames on the wire"
            );
        }
        // The telemetry error counters are the summary ledger, which in
        // turn equals the offline RunIntegrity sums (live_equivalence).
        assert_eq!(
            classes[3], summary.integrity.frames_truncated as u64,
            "{label}"
        );
        assert_eq!(
            classes[4], summary.integrity.frames_malformed as u64,
            "{label}"
        );
        assert_eq!(
            classes[5], summary.integrity.frames_bad_checksum as u64,
            "{label}"
        );
        assert_eq!(
            classes[6], summary.integrity.reports_truncated as u64,
            "{label}"
        );
        assert_eq!(
            classes[7], summary.integrity.reports_malformed as u64,
            "{label}"
        );
        assert_eq!(counter("spector_live_dropped_events_total"), 0, "{label}");
        let mut classes = classes.to_vec();
        classes.extend(by_family);
        class_counts.push(classes);
    }
    // Width and batch geometry never move a frame between classes.
    assert_eq!(class_counts[0], class_counts[1], "{label}: 1 vs 2 shards");
    assert_eq!(class_counts[0], class_counts[2], "{label}: 1 vs 4 shards");
}

#[test]
fn live_ingress_balances_without_chaos() {
    assert_live_ingress_balances(FaultProfile::none(), 601, "live/none");
}

#[test]
fn live_ingress_balances_under_light_chaos() {
    assert_live_ingress_balances(FaultProfile::light(), 602, "live/light");
}

#[test]
fn live_ingress_balances_under_heavy_chaos() {
    assert_live_ingress_balances(FaultProfile::heavy(), 603, "live/heavy");
}

#[test]
fn shape_counters_balance_mixed_without_chaos() {
    assert_live_ingress_balances_mixed(FaultProfile::none(), 611, "shape/none", 0.6);
}

#[test]
fn shape_counters_balance_mixed_under_light_chaos() {
    assert_live_ingress_balances_mixed(FaultProfile::light(), 612, "shape/light", 0.6);
}

#[test]
fn shape_counters_balance_mixed_under_heavy_chaos() {
    assert_live_ingress_balances_mixed(FaultProfile::heavy(), 613, "shape/heavy", 0.6);
}

#[test]
fn clean_campaign_telemetry_agrees_with_outcome() {
    let (outcome, snapshot) = run_with_profile(FaultProfile::none(), 501, 8);
    assert_eq!(outcome.failures.len(), 0, "no chaos, no failures");
    assert_eq!(outcome.injected.total(), 0);
    assert_agreement(&outcome, &snapshot, "none/501");
    // Without chaos every fault counter is zero.
    assert_eq!(
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("spector_fault_"))
            .map(|(_, v)| *v)
            .sum::<u64>(),
        0
    );
}

#[test]
fn clean_campaign_resolves_every_lookup_in_the_trie_tier() {
    let (outcome, snapshot) = run_with_profile(FaultProfile::none(), 504, 6);
    assert_agreement(&outcome, &snapshot, "none/504");
    // Unobfuscated origins carry their canonical packages, so the trie
    // tier answers everything the cascade is asked; the fallback tiers
    // stay cold.
    assert!(snapshot.counter("spector_detect_lookups_total") > 0);
    assert_eq!(snapshot.counter("spector_detect_exact_fp_hit_total"), 0);
    assert_eq!(snapshot.counter("spector_detect_structural_hit_total"), 0);
}

#[test]
fn renamed_campaign_exercises_the_exact_fingerprint_tier() {
    let (outcome, snapshot) = run_obfuscated(ObfuscationTier::Rename, 701, 6);
    assert_agreement(&outcome, &snapshot, "rename/701");
    // Renamed roots defeat the trie, but the subtree fingerprints are
    // rename-invariant: the exact tier must pick up real traffic.
    assert!(
        snapshot.counter("spector_detect_exact_fp_hit_total") > 0,
        "renamed libraries must resolve through the exact tier"
    );
}

#[test]
fn mangled_campaign_exercises_the_structural_tier() {
    let (outcome, snapshot) = run_obfuscated(ObfuscationTier::Mangle, 702, 6);
    assert_agreement(&outcome, &snapshot, "mangle/702");
    // Identifier mangling breaks the exact fingerprints too; only the
    // structural profiles survive.
    assert!(
        snapshot.counter("spector_detect_structural_hit_total") > 0,
        "mangled libraries must resolve through the structural tier"
    );
    assert_eq!(
        snapshot.counter("spector_detect_exact_fp_hit_total"),
        0,
        "mangling must defeat the exact-fingerprint tier"
    );
}

#[test]
fn light_chaos_telemetry_agrees_with_outcome() {
    let (outcome, snapshot) = run_with_profile(FaultProfile::light(), 502, 8);
    assert!(
        outcome.injected.total() > 0,
        "light chaos must inject something at this scale"
    );
    assert_agreement(&outcome, &snapshot, "light/502");
}

#[test]
fn heavy_chaos_telemetry_agrees_with_outcome() {
    let (outcome, snapshot) = run_with_profile(FaultProfile::heavy(), 503, 8);
    assert!(outcome.injected.total() > 0);
    // Heavy chaos corrupts reports on the wire: the integrity ledgers
    // (and therefore the counters checked below) see real damage.
    assert_agreement(&outcome, &snapshot, "heavy/503");
}

/// The store's append ledger balances against both itself and the
/// campaign ground truth: `records_appended` is exactly the sum of its
/// three parts, analyses/flows match the outcome, and the one extra
/// report is the campaign seal.
#[test]
fn store_counters_balance_against_the_campaign() {
    use spector_dispatch::run_campaign_stored;
    use spector_store::{
        CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreReader, StoreTelemetry,
        StoreWriter,
    };

    let dir = std::env::temp_dir().join(format!("spector-telemetry-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let corpus = Corpus::generate(&CorpusConfig {
        apps: 6,
        seed: 808,
        appgen: AppGenConfig {
            method_scale: 0.006,
            ..Default::default()
        },
        ..Default::default()
    });
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers: 2,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = 80;
    dispatch.experiment.monkey.seed = 808;
    let telemetry = Telemetry::enabled();
    let config = CampaignConfig {
        dispatch,
        retry: RetryPolicy::never(),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let meta = CampaignMeta {
        seed: 808,
        apps: 6,
        monkey_events: 80,
        kind: CampaignKind::Run,
    };
    let options = StoreOptions {
        seal_every: 2, // several segments, not one
        telemetry: StoreTelemetry::new(&telemetry),
    };
    let writer =
        std::sync::Mutex::new(StoreWriter::create(&dir, &meta, options).expect("store opens"));
    let outcome = run_campaign_stored(&corpus, &knowledge, &config, None, None, Some(&writer))
        .expect("campaign runs");
    writer
        .into_inner()
        .unwrap()
        .finish(&CampaignSealRecord {
            seed: 808,
            apps: 6,
            monkey_events: 80,
            failures: vec![],
        })
        .expect("campaign seals");
    let snapshot = telemetry.snapshot();

    // 1. Internal balance: the total is exactly the sum of its parts.
    let appended = snapshot.counter("spector_store_records_appended_total");
    let analyses = snapshot.counter("spector_store_analyses_appended_total");
    let flows = snapshot.counter("spector_store_flows_appended_total");
    let reports = snapshot.counter("spector_store_reports_appended_total");
    assert_eq!(
        appended,
        analyses + flows + reports,
        "records_appended must equal analyses + flows + reports"
    );

    // 2. Ground truth: one analysis row per accepted app, one flow row
    //    per analyzed flow, one report row (the campaign seal).
    assert_eq!(analyses, outcome.analyses.len() as u64);
    let total_flows: u64 = outcome.analyses.iter().map(|a| a.flows.len() as u64).sum();
    assert_eq!(flows, total_flows);
    assert_eq!(reports, 1, "exactly the campaign seal record");

    // 3. The bytes/segments the writer claims are what landed on disk,
    //    and reading them back rejects nothing.
    let reader =
        StoreReader::open_with(&dir, StoreTelemetry::new(&telemetry)).expect("store reads back");
    assert_eq!(
        reader.integrity().segments_ok as u64,
        snapshot.counter("spector_store_segments_written_total"),
    );
    assert_eq!(reader.integrity().rejected.len(), 0);
    assert_eq!(snapshot.counter("spector_store_segments_rejected_total"), 0);
    assert_eq!(reader.campaign_analyses(0).len(), outcome.analyses.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sampled-tracing balance wall: the `spector_sampling_*` counters
/// must equal the field-wise sum of the per-analysis ledgers, every
/// stored ledger must balance internally, and
/// `reports_emitted + sampled_out + budget_suppressed` must equal
/// `reports_observed` — suppression is *counted*, never silent.
fn assert_sampling_balance(outcome: &CampaignOutcome, snapshot: &MetricsSnapshot, label: &str) {
    let mut total = SamplingLedger::default();
    for analysis in &outcome.analyses {
        assert!(
            analysis.sampling.is_balanced(),
            "{label}: {} ships an unbalanced ledger: {:?}",
            analysis.package,
            analysis.sampling
        );
        total.merge(&analysis.sampling);
    }
    let counter = |field: &str| snapshot.counter(&format!("spector_sampling_{field}_total"));
    let pairs = [
        ("reports_observed", total.reports_observed),
        ("reports_emitted", total.reports_emitted),
        ("sampled_out", total.sampled_out),
        ("budget_suppressed", total.budget_suppressed),
        ("windows_exhausted", total.windows_exhausted),
        ("ledgers_lost", total.ledgers_lost),
    ];
    for (field, expected) in pairs {
        assert_eq!(
            counter(field),
            expected,
            "{label}: sampling counter {field} disagrees with analyses"
        );
    }
    assert_eq!(
        counter("reports_observed"),
        counter("reports_emitted") + counter("sampled_out") + counter("budget_suppressed"),
        "{label}: sampling balance wall"
    );
}

/// Exact configuration (the default) must leave every sampling counter
/// at zero and every per-analysis ledger empty: the layer is invisible
/// until asked for.
#[test]
fn exact_campaigns_carry_no_sampling_ledger() {
    let (outcome, snapshot) = run_with_profile(FaultProfile::none(), 901, 5);
    assert_sampling_balance(&outcome, &snapshot, "exact/901");
    assert_eq!(
        snapshot.counter("spector_sampling_reports_observed_total"),
        0
    );
    assert!(outcome.analyses.iter().all(|a| a.sampling.is_empty()));
}

/// Sampled campaigns balance under every chaos profile — and the rest
/// of the accounting (integrity, faults, join, detect) still agrees,
/// because sampling thins what the hooks *emit*, not what the
/// downstream ledgers count.
#[test]
fn sampled_campaigns_balance_across_chaos_profiles() {
    let sampling = SamplingConfig {
        rate: 0.5,
        seed: 0xfeed,
        budget: None,
    };
    for (profile, seed) in [
        (FaultProfile::none(), 911u64),
        (FaultProfile::light(), 912),
        (FaultProfile::heavy(), 913),
    ] {
        let label = format!("sampled/{profile:?}/{seed}");
        let (outcome, snapshot) = run_sampled(profile, sampling, seed, 8);
        assert_sampling_balance(&outcome, &snapshot, &label);
        assert_agreement(&outcome, &snapshot, &label);
        let observed = snapshot.counter("spector_sampling_reports_observed_total");
        let sampled_out = snapshot.counter("spector_sampling_sampled_out_total");
        assert!(observed > 0, "{label}: ledgers must arrive");
        assert!(sampled_out > 0, "{label}: rate 0.5 must thin something");
    }
}

/// Budget exhaustion degrades *counted*: a tight per-window budget
/// under heavy chaos still accounts for every observed report, tallies
/// the exhausted windows, and never loses a report silently.
#[test]
fn budget_exhaustion_is_counted_never_silent() {
    let sampling = SamplingConfig {
        rate: 1.0,
        seed: 0xb007,
        budget: Some(TraceBudget {
            max_reports: 1,
            window_micros: 0,
        }),
    };
    let (outcome, snapshot) = run_sampled(FaultProfile::heavy(), sampling, 914, 8);
    assert_sampling_balance(&outcome, &snapshot, "budget/heavy/914");
    assert_agreement(&outcome, &snapshot, "budget/heavy/914");
    let suppressed = snapshot.counter("spector_sampling_budget_suppressed_total");
    let windows = snapshot.counter("spector_sampling_windows_exhausted_total");
    assert!(suppressed > 0, "one report per run must exhaust the budget");
    assert!(windows > 0, "exhausted windows are tallied");
    assert_eq!(
        snapshot.counter("spector_sampling_sampled_out_total"),
        0,
        "rate 1.0 never samples out; only the budget suppresses"
    );
}

/// Seed sweep: agreement is a property of the instrumentation points,
/// not of any particular trace, so it must hold for every seed.
#[test]
fn agreement_holds_across_profiles_and_seeds() {
    for profile in [
        FaultProfile::none(),
        FaultProfile::light(),
        FaultProfile::heavy(),
    ] {
        for seed in [9_001u64, 9_002] {
            let label = format!("{profile:?}/{seed}");
            let (outcome, snapshot) = run_with_profile(profile, seed, 5);
            assert_agreement(&outcome, &snapshot, &label);
        }
    }
}
