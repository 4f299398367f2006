//! Streaming-vs-offline equivalence: the tentpole guarantee of the
//! `spector-live` engine. Replaying finished runs through the live
//! engine — any shard count, any batch size — must produce exactly the
//! summary [`libspector::analyze_run`] yields for the same runs, with
//! every unjoined report accounted as orphaned or evicted. One
//! projection defines "exactly": `live.offline_view() ==
//! LiveSummary::from_analyses(&analyses)`, whole-struct.

use std::net::Ipv4Addr;
use std::sync::Arc;

use libspector::experiment::{resolver_for, run_app, ExperimentConfig, RawRun};
use libspector::knowledge::Knowledge;
use libspector::pipeline::{analyze_run, AppAnalysis};
use spector_corpus::{obfuscate_corpus, AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};
use spector_dex::sha256::Sha256;
use spector_faults::{perturb_capture, FaultPlan, FaultProfile};
use spector_hooks::{SocketReport, SupervisorConfig};
use spector_live::{LiveConfig, LiveEngine, LiveSummary};
use spector_netsim::packet::SocketPair;
use spector_netsim::{Clock, NetStack};

/// What a fixture campaign's wire looks like.
#[derive(Debug, Clone, Copy)]
struct Inputs {
    /// Obfuscation applied to the corpus before knowledge extraction,
    /// so verdict lookups fall through to the exact-fingerprint or
    /// structural cascade tiers.
    obfuscation: ObfuscationTier,
    /// Supervisor sampling rate: below 1.0 the report stream is thinned
    /// at capture time and each run carries a sampling-ledger datagram.
    sample_rate: f64,
    /// Share of modern ops (IPv6, TLS-like framing, CONNECT proxying,
    /// pooled connections); 0.0 is a pure IPv4 plain-HTTP wire.
    modern_fraction: f64,
}

const LEGACY: Inputs = Inputs {
    obfuscation: ObfuscationTier::None,
    sample_rate: 1.0,
    modern_fraction: 0.0,
};

fn campaign(apps: usize, seed: u64, inputs: Inputs) -> (Knowledge, Vec<RawRun>, u16) {
    let mut corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed,
        appgen: AppGenConfig {
            method_scale: 0.006,
            modern_fraction: inputs.modern_fraction,
            ..Default::default()
        },
        ..Default::default()
    });
    if inputs.obfuscation != ObfuscationTier::None {
        obfuscate_corpus(&mut corpus, inputs.obfuscation, seed ^ 0x0bf5);
    }
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 120;
    config.supervisor.sampling.rate = inputs.sample_rate;
    config.supervisor.sampling.seed = seed ^ 0x5a4d;
    let runs: Vec<RawRun> = corpus
        .apps
        .iter()
        .enumerate()
        .map(|(index, app)| {
            let mut experiment = config.clone();
            experiment.monkey.seed ^= (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let system: Vec<_> = app
                .system_ops
                .iter()
                .map(|s| (s.op.clone(), s.dispatcher))
                .collect();
            run_app(&app.apk, &resolver, &system, &experiment).unwrap()
        })
        .collect();
    let knowledge = Knowledge::from_corpus(&corpus);
    (knowledge, runs, config.supervisor.collector_port)
}

fn offline(knowledge: &Knowledge, runs: &[RawRun], port: u16) -> Vec<AppAnalysis> {
    runs.iter()
        .map(|raw| analyze_run(raw, knowledge, port))
        .collect()
}

/// A running engine of the given geometry with every run pushed.
fn stream(
    knowledge: &Knowledge,
    runs: &[RawRun],
    port: u16,
    shards: usize,
    batch_events: usize,
) -> LiveEngine {
    let engine = LiveEngine::start(
        Arc::new(knowledge.clone()),
        LiveConfig {
            shards,
            collector_port: port,
            batch_events,
            ..Default::default()
        },
    );
    for (index, raw) in runs.iter().enumerate() {
        engine.push_run(index as u32, &raw.capture);
    }
    engine
}

/// The one equivalence: a live summary of the runs, projected, equals
/// the offline fold of their analyses as a whole struct.
fn assert_equivalent(live: &LiveSummary, analyses: &[AppAnalysis]) {
    assert_eq!(live.offline_view(), LiveSummary::from_analyses(analyses));
}

/// The in-process sweep: every input combination — obfuscation {none,
/// rename, mangle} × sample rate {1.0, 0.25} × wire {legacy, modern} —
/// is generated once and streamed at every geometry — shards {1, 2, 8}
/// × batch {1, 64} — 72 streams, each equivalent to the offline
/// analyses of its inputs.
#[test]
fn every_input_streams_equivalently_at_every_geometry() {
    let mut streams = 0;
    for obfuscation in [
        ObfuscationTier::None,
        ObfuscationTier::Rename,
        ObfuscationTier::Mangle,
    ] {
        for sample_rate in [1.0, 0.25] {
            for modern_fraction in [0.0, 0.6] {
                let inputs = Inputs {
                    obfuscation,
                    sample_rate,
                    modern_fraction,
                };
                let (knowledge, runs, port) = campaign(3, 77, inputs);
                let expected = LiveSummary::from_analyses(&offline(&knowledge, &runs, port));
                for shards in [1usize, 2, 8] {
                    for batch_events in [1usize, 64] {
                        let live = stream(&knowledge, &runs, port, shards, batch_events).finish();
                        assert_eq!(
                            live.offline_view(),
                            expected,
                            "{inputs:?} at {shards} shard(s), batches of {batch_events}"
                        );
                        streams += 1;
                    }
                }
            }
        }
    }
    assert_eq!(streams, 72);
}

/// Modern socket realism: a campaign mixing IPv4, IPv6, TLS-like,
/// CONNECT-proxied, and pooled multi-stream flows streams to identical
/// summaries at 1, 2, and 8 shards.
#[test]
fn protocol_mix_streams_to_identical_volumes_at_any_width() {
    let inputs = Inputs {
        modern_fraction: 0.6,
        ..LEGACY
    };
    let (knowledge, runs, port) = campaign(5, 76, inputs);
    let analyses = offline(&knowledge, &runs, port);
    let offline_view = LiveSummary::from_analyses(&analyses);
    assert!(offline_view.flows_v6 > 0, "mixed corpus must produce IPv6");
    assert!(offline_view.flows_tls > 0, "mixed corpus must produce TLS");
    assert!(
        offline_view.flows_proxied > 0,
        "mixed corpus must produce CONNECT-proxied flows"
    );
    assert!(
        offline_view.pooled_streams > 0,
        "mixed corpus must produce pooled multi-stream connections"
    );
    for shards in [1usize, 2, 8] {
        let live = stream(&knowledge, &runs, port, shards, 64).finish();
        assert_eq!(live.dropped_events, 0);
        assert_equivalent(&live, &analyses);
    }
}

#[test]
fn finished_campaign_streams_to_identical_volumes() {
    let (knowledge, runs, port) = campaign(5, 71, LEGACY);
    let analyses = offline(&knowledge, &runs, port);
    assert!(analyses.iter().any(|a| !a.flows.is_empty()));
    let engine = stream(&knowledge, &runs, port, 1, 64);
    let live = engine.snapshot();
    assert_eq!(live.dropped_events, 0, "Block policy never drops");
    assert_equivalent(&live, &analyses);
    // finish() after a snapshot returns the same final state.
    assert_eq!(engine.finish(), live);
}

/// The adversarial extreme of the batched ingress: every frame ships
/// as its own single-item batch, at several widths. Equivalence is a
/// property of routing + shard-local decode, not of batch geometry.
#[test]
fn tiny_batches_preserve_equivalence_at_any_width() {
    let (knowledge, runs, port) = campaign(3, 74, LEGACY);
    let analyses = offline(&knowledge, &runs, port);
    for (shards, batch_events) in [(1usize, 1usize), (2, 1), (8, 3)] {
        let live = stream(&knowledge, &runs, port, shards, batch_events).finish();
        assert_eq!(live.dropped_events, 0);
        assert_equivalent(&live, &analyses);
    }
}

/// Chaos-damaged captures stream to the same answer the offline
/// pipeline computes from the same damaged bytes — including the
/// frame/report error ledgers, at every shard width: truncated frames
/// and corrupted reports are *counted*, identically, wherever the
/// decode runs.
#[test]
fn chaos_damaged_streams_stay_equivalent() {
    let (knowledge, runs, port) = campaign(4, 75, LEGACY);
    let plan = FaultPlan::new(0xBAD5EED, FaultProfile::heavy());
    let damaged: Vec<RawRun> = runs
        .into_iter()
        .enumerate()
        .map(|(index, mut raw)| {
            let capture = std::mem::take(&mut raw.capture);
            let (capture, _) = perturb_capture(&plan, index, 0, capture, port);
            raw.capture = capture;
            raw
        })
        .collect();
    let analyses = offline(&knowledge, &damaged, port);
    let offline_view = LiveSummary::from_analyses(&analyses);
    assert!(
        offline_view.frames_truncated
            + offline_view.reports_truncated
            + offline_view.reports_malformed
            > 0,
        "heavy chaos at this scale must damage something on the wire"
    );
    for shards in [1usize, 2, 8] {
        let live = stream(&knowledge, &damaged, port, shards, 64).finish();
        assert_equivalent(&live, &analyses);
    }
}

#[test]
fn shard_count_is_invisible_in_the_summary() {
    let (knowledge, runs, port) = campaign(4, 72, LEGACY);
    let analyses = offline(&knowledge, &runs, port);
    let one = stream(&knowledge, &runs, port, 1, 64).finish();
    let four = stream(&knowledge, &runs, port, 4, 64).finish();
    assert_eq!(one, four, "sharding changes throughput, never results");
    assert_equivalent(&one, &analyses);
}

#[test]
fn mid_campaign_snapshots_equal_offline_prefixes() {
    let (knowledge, runs, port) = campaign(4, 73, LEGACY);
    let analyses = offline(&knowledge, &runs, port);
    let engine = stream(&knowledge, &[], port, 2, 64);
    for (index, raw) in runs.iter().enumerate() {
        engine.push_run(index as u32, &raw.capture);
        // After each whole run, the live view equals the offline view
        // of exactly the runs streamed so far.
        assert_equivalent(&engine.snapshot(), &analyses[..=index]);
    }
    engine.finish();
}

/// The crafted pathological run from the offline pipeline tests:
/// a duplicated report datagram (must claim its epoch once) plus a
/// report whose 4-tuple has no packets at all (must end up orphaned
/// or evicted, mirroring `reports_without_flow`).
#[test]
fn duplicates_and_orphans_account_identically() {
    let config = SupervisorConfig::default();
    let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
    let ip = stack.resolve("dup.example.net", Ipv4Addr::new(198, 51, 100, 7));
    let sock = stack.tcp_connect(ip, 443);
    let pair = stack.socket_pair(sock).unwrap();
    let report = SocketReport {
        stream: None,
        apk_sha256: Sha256::digest(b"dup-apk"),
        pair,
        timestamp_micros: stack.clock().now_micros(),
        frames: vec![
            "java.net.Socket.connect".into(),
            "com.thirdparty.sdk.Net.call".into(),
        ],
    };
    stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
    stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
    let orphan = SocketReport {
        pair: SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15),
            61_000,
            Ipv4Addr::new(203, 0, 113, 80),
            443,
        ),
        ..report.clone()
    };
    stack.udp_send(config.collector_ip, config.collector_port, &orphan.encode());
    stack.tcp_transfer(sock, 100, 2_000);
    stack.tcp_close(sock);

    let raw = RawRun {
        package: "com.app.dup".into(),
        app_category: "Tools".into(),
        apk_sha256: Sha256::digest(b"dup-apk"),
        capture: stack.into_capture(),
        executed_methods: Default::default(),
        dex_signatures: Default::default(),
        monkey: Default::default(),
        runtime_stats: Default::default(),
        duration_micros: 0,
    };
    let knowledge = Knowledge::new(Default::default(), Default::default(), Default::default());
    let analysis = analyze_run(&raw, &knowledge, config.collector_port);
    assert_eq!(analysis.reports_without_flow, 1);

    let live = stream(
        &knowledge,
        std::slice::from_ref(&raw),
        config.collector_port,
        1,
        64,
    )
    .finish();
    assert_eq!(live.flows, 1, "duplicate claimed once");
    assert_eq!(live.report_packets, 3);
    assert_eq!(live.unjoined_reports(), 1, "the orphan is visible");
    assert_equivalent(&live, std::slice::from_ref(&analysis));
}
