//! Ablation studies: remove one design element at a time and measure
//! the damage — evidence for why each piece of the paper's design
//! exists.
//!
//! * stock bounded-buffer profiler vs the modified unique-method tracer
//!   (§II-B1: why the ART modification was necessary);
//! * the footnote 2 builtin-frame filter (§III-C: why attribution
//!   filters stacks before picking the origin frame);
//! * supervisor report loss (the UDP side channel is lossy in
//!   principle; unmatched flows become unattributable);
//! * listening on the wrong collector port (collection-server
//!   misconfiguration leaves every flow unattributed).

use libspector::attribution::BuiltinFilter;
use libspector::experiment::{resolver_for, run_app, ExperimentConfig};
use libspector::knowledge::Knowledge;
use libspector::pipeline::analyze_run;
use libspector::OriginKind;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_hooks::report::SocketReport;
use spector_netsim::packet::{decode_frame_ref, TransportRef};
use spector_runtime::TraceMode;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        apps: 4,
        seed: 77,
        appgen: AppGenConfig {
            method_scale: 0.01,
            ..Default::default()
        },
        ..Default::default()
    })
}

#[test]
fn stock_profiler_buffer_loses_coverage() {
    let corpus = corpus();
    let app = &corpus.apps[0];
    let resolver = resolver_for(&corpus.domains);

    let run_with = |mode: TraceMode| {
        let mut config = ExperimentConfig::default();
        config.monkey.events = 150;
        config.runtime.trace_mode = mode;
        run_app(&app.apk, &resolver, &[], &config).unwrap()
    };
    let unique = run_with(TraceMode::UniqueMethods);
    // A severely bounded stock buffer, as the paper observed: "filled
    // within seconds of app initialization".
    let stock = run_with(TraceMode::StockBuffer { capacity: 64 });

    let unique_methods = unique.executed_methods.len();
    let stock_methods = stock.executed_methods.len();
    assert!(
        stock_methods < unique_methods,
        "stock buffer ({stock_methods}) must lose methods vs unique mode ({unique_methods})"
    );
    // The traffic itself is identical — only the *measurement* differs.
    assert_eq!(unique.capture.len(), stock.capture.len());
}

#[test]
fn removing_builtin_filter_destroys_attribution() {
    let corpus = corpus();
    let app = &corpus.apps[0];
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 100;
    let raw = run_app(&app.apk, &resolver, &[], &config).unwrap();

    let knowledge = Knowledge::from_corpus(&corpus);
    let with_filter = analyze_run(&raw, &knowledge, config.supervisor.collector_port);

    let mut ablated = knowledge.clone();
    ablated.builtin = BuiltinFilter::disabled();
    let without_filter = analyze_run(&raw, &ablated, config.supervisor.collector_port);

    // With the filter, origins match ground truth (validated elsewhere);
    // without it, the chronologically-first frame is a scheduler or
    // Zygote frame, so origins collapse into framework packages.
    let framework_origins = |analysis: &libspector::pipeline::AppAnalysis| {
        analysis
            .flows
            .iter()
            .filter(|f| match &f.origin {
                OriginKind::Library { origin_library, .. } => {
                    origin_library.starts_with("java.")
                        || origin_library.starts_with("android.")
                        || origin_library.starts_with("com.android.internal")
                }
                OriginKind::Builtin => false,
            })
            .count()
    };
    assert_eq!(framework_origins(&with_filter), 0);
    assert_eq!(
        framework_origins(&without_filter),
        without_filter.flows.len(),
        "every flow should attribute to framework internals without the filter"
    );
}

#[test]
fn dropped_reports_become_unattributed_flows() {
    let corpus = corpus();
    let app = &corpus.apps[1];
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 100;
    let mut raw = run_app(&app.apk, &resolver, &[], &config).unwrap();
    let knowledge = Knowledge::from_corpus(&corpus);

    let baseline = analyze_run(&raw, &knowledge, config.supervisor.collector_port);
    assert!(baseline.flows.len() >= 4, "need several flows to drop");
    assert_eq!(baseline.unattributed_flows, 0);

    // Drop every second supervisor report datagram from the capture,
    // simulating UDP loss between emulator and collection server.
    let mut report_index = 0usize;
    raw.capture.retain(|packet| {
        let Ok(frame) = decode_frame_ref(&packet.data) else {
            return true;
        };
        let TransportRef::Udp { payload } = frame.transport else {
            return true;
        };
        if frame.pair.dst_port == config.supervisor.collector_port
            && SocketReport::is_report_payload(payload)
        {
            report_index += 1;
            return report_index.is_multiple_of(2);
        }
        true
    });
    let lossy = analyze_run(&raw, &knowledge, config.supervisor.collector_port);
    let dropped = baseline.flows.len() - lossy.flows.len();
    assert!(dropped > 0, "some reports must have been dropped");
    assert_eq!(lossy.unattributed_flows, dropped);
    // The flows that survived are byte-identical to their baseline
    // counterparts (loss affects attribution coverage, not accounting).
    for flow in &lossy.flows {
        assert!(baseline.flows.contains(flow));
    }
}

#[test]
fn corrupted_capture_degrades_gracefully() {
    // Flip a byte in every 7th packet: checksums reject the damaged
    // frames, the rest of the pipeline proceeds, and accounting only
    // ever shrinks.
    let corpus = corpus();
    let app = &corpus.apps[3];
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 80;
    let mut raw = run_app(&app.apk, &resolver, &[], &config).unwrap();
    let knowledge = Knowledge::from_corpus(&corpus);
    let baseline = analyze_run(&raw, &knowledge, config.supervisor.collector_port);

    for (index, packet) in raw.capture.iter_mut().enumerate() {
        if index % 7 == 0 && !packet.data.is_empty() {
            let at = packet.data.len() / 2;
            packet.data[at] ^= 0xff;
        }
    }
    let corrupted = analyze_run(&raw, &knowledge, config.supervisor.collector_port);
    let total = |a: &libspector::pipeline::AppAnalysis| a.total_sent() + a.total_recv();
    assert!(total(&corrupted) <= total(&baseline));
    assert!(corrupted.flows.len() <= baseline.flows.len());
    // Every surviving flow is still well-formed.
    for flow in &corrupted.flows {
        assert!(flow.sent_payload <= flow.sent_bytes);
        assert!(flow.recv_payload <= flow.recv_bytes);
    }
}

#[test]
fn wrong_collector_port_leaves_everything_unattributed() {
    let corpus = corpus();
    let app = &corpus.apps[2];
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 80;
    let raw = run_app(&app.apk, &resolver, &[], &config).unwrap();
    let knowledge = Knowledge::from_corpus(&corpus);

    let analysis = analyze_run(&raw, &knowledge, config.supervisor.collector_port + 1);
    assert!(analysis.flows.is_empty());
    assert!(analysis.unattributed_flows > 0);
    assert_eq!(analysis.report_packets, 0);
}
