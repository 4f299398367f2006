//! Shared fixtures for the benchmark targets.
//!
//! Every table/figure bench needs a completed campaign to aggregate
//! over; [`campaign`] builds one lazily (once per bench process) at a
//! scale that keeps bench startup in seconds while still producing
//! hundreds of flows.

use std::sync::OnceLock;

use libspector::experiment::{resolver_for, run_app, ExperimentConfig, RawRun};
use libspector::knowledge::Knowledge;
use libspector::pipeline::AppAnalysis;
use spector_corpus::{obfuscate_corpus, AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};

/// Number of apps in the benchmark campaign.
pub const BENCH_APPS: usize = 40;
/// Monkey events per app in the benchmark campaign.
pub const BENCH_EVENTS: u32 = 120;

/// Generates the benchmark corpus (deterministic, seed 7777).
pub fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        Corpus::generate(&CorpusConfig {
            apps: BENCH_APPS,
            seed: 7_777,
            appgen: AppGenConfig {
                method_scale: 0.006,
                ..Default::default()
            },
            ..Default::default()
        })
    })
}

/// Corpus knowledge (LibRadar aggregate + domain labels).
pub fn knowledge() -> &'static Knowledge {
    static KNOWLEDGE: OnceLock<Knowledge> = OnceLock::new();
    KNOWLEDGE.get_or_init(|| Knowledge::from_corpus(corpus()))
}

/// The completed campaign all figure benches aggregate over.
pub fn campaign() -> &'static Vec<AppAnalysis> {
    static CAMPAIGN: OnceLock<Vec<AppAnalysis>> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let mut dispatch = DispatchConfig::default();
        dispatch.experiment.monkey.events = BENCH_EVENTS;
        dispatch.experiment.monkey.seed = 7_777;
        let config = CampaignConfig {
            dispatch,
            ..Default::default()
        };
        run_campaign(corpus(), knowledge(), &config, None, None)
            .expect("a campaign without a store does no I/O")
            .analyses
    })
}

/// Number of apps in the offline-analysis throughput campaign — the
/// paper's §IV scale (400 selected apps).
pub const THROUGHPUT_APPS: usize = 400;

/// Fixture for the `perf/throughput` benches: corpus knowledge, one
/// recorded [`RawRun`] per app of a 400-app store, and the collector
/// port to analyze against. The runs are recorded once per bench
/// process (the expensive part is the emulation, which is not what
/// those benches measure); each bench iteration replays the *offline*
/// pipeline over all of them.
pub fn throughput_fixture() -> &'static (Knowledge, Vec<RawRun>, u16) {
    static FIXTURE: OnceLock<(Knowledge, Vec<RawRun>, u16)> = OnceLock::new();
    FIXTURE.get_or_init(|| record_throughput_runs(ObfuscationTier::None))
}

/// [`throughput_fixture`] with the 400-app corpus obfuscated at `tier`
/// before knowledge extraction — the fixture for the `perf/detect`
/// cascade benches. The knowledge bases stay canonical, so verdict
/// lookups exercise exactly one fallback tier per obfuscation level
/// (Rename → exact fingerprint, Mangle/Junk → structural). Not cached:
/// each bench process builds the one tier it measures.
pub fn obfuscated_throughput_fixture(tier: ObfuscationTier) -> (Knowledge, Vec<RawRun>, u16) {
    record_throughput_runs(tier)
}

fn record_throughput_runs(tier: ObfuscationTier) -> (Knowledge, Vec<RawRun>, u16) {
    let mut corpus = Corpus::generate(&CorpusConfig {
        apps: THROUGHPUT_APPS,
        seed: 7_778,
        appgen: AppGenConfig {
            method_scale: 0.004,
            ..Default::default()
        },
        ..Default::default()
    });
    if tier != ObfuscationTier::None {
        obfuscate_corpus(&mut corpus, tier, 7_778 ^ 0x0bf5);
    }
    let knowledge = Knowledge::from_corpus(&corpus);
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 60;
    let raws = corpus
        .apps
        .iter()
        .map(|app| {
            let system: Vec<_> = app
                .system_ops
                .iter()
                .map(|s| (s.op.clone(), s.dispatcher))
                .collect();
            run_app(&app.apk, &resolver, &system, &config).expect("bench app must run")
        })
        .collect();
    (knowledge, raws, config.supervisor.collector_port)
}
