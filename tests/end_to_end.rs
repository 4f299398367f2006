//! End-to-end integration: corpus → experiment → wire formats →
//! pipeline → aggregation, asserting cross-crate invariants that no
//! single crate can check alone.

use libspector::experiment::{resolver_for, run_app, run_corpus_app, ExperimentConfig};
use libspector::knowledge::Knowledge;
use libspector::pipeline::analyze_run;
use spector_analysis::FullReport;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};
use spector_hooks::supervisor::extract_reports;
use spector_netsim::pcap::{read_pcap, write_pcap};

#[path = "../crates/netsim/tests/support/walks.rs"]
mod walks;

fn small_corpus(apps: usize, seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        apps,
        seed,
        appgen: AppGenConfig {
            method_scale: 0.006,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn quick_experiment(events: u32) -> ExperimentConfig {
    let mut config = ExperimentConfig::default();
    config.monkey.events = events;
    config
}

#[test]
fn capture_is_a_valid_pcap_file_and_reparses_identically() {
    let corpus = small_corpus(1, 31);
    let app = &corpus.apps[0];
    let resolver = resolver_for(&corpus.domains);
    let raw = run_app(&app.apk, &resolver, &[], &quick_experiment(80)).unwrap();
    // Serialize the capture through the real pcap format and back.
    let bytes = write_pcap(&raw.capture);
    let reparsed = read_pcap(&bytes).expect("capture must be a valid pcap");
    assert_eq!(reparsed, raw.capture);
}

#[test]
fn reports_flows_and_dns_are_mutually_consistent() {
    let corpus = small_corpus(1, 32);
    let app = &corpus.apps[0];
    let resolver = resolver_for(&corpus.domains);
    let config = quick_experiment(120);
    let system: Vec<_> = app
        .system_ops
        .iter()
        .map(|s| (s.op.clone(), s.dispatcher))
        .collect();
    let raw = run_app(&app.apk, &resolver, &system, &config).unwrap();

    let flows = walks::flow_table(&raw.capture);
    let reports = extract_reports(&raw.capture, config.supervisor.collector_port);
    let dns = walks::dns_map(&raw.capture);

    // One report per TCP connection; each joins to a flow; each flow's
    // destination has a DNS-resolvable domain.
    assert_eq!(reports.len(), flows.len());
    for report in &reports {
        assert_eq!(report.apk_sha256, app.apk.sha256());
        let flow = flows
            .lookup(&report.pair, report.timestamp_micros)
            .expect("every report joins a flow");
        assert!(
            dns.domain_for(flow.pair.dst_ip).is_some(),
            "flow to {} has no DNS context",
            flow.pair.dst_ip
        );
        // Stack traces end at the connect syscall.
        assert_eq!(
            report.frames.first().map(String::as_str),
            Some("java.net.Socket.connect")
        );
    }
}

#[test]
fn campaign_aggregation_conserves_bytes() {
    let corpus = small_corpus(6, 33);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers: 2,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = 60;
    let config = CampaignConfig {
        dispatch,
        ..Default::default()
    };
    let analyses = run_campaign(&corpus, &knowledge, &config, None, None)
        .expect("a campaign without a store does no I/O")
        .analyses;
    let report = FullReport::build(&analyses);

    // Headline totals equal the sums over per-app analyses.
    let direct_total: u64 = analyses
        .iter()
        .flat_map(|a| a.flows.iter())
        .map(|f| f.sent_bytes + f.recv_bytes)
        .sum();
    assert_eq!(report.headline.total_bytes, direct_total);
    // Figure 9's matrix total equals the headline total.
    assert_eq!(report.fig9.total, direct_total);
    // Figure 2's per-app-category sums also add up to the same total.
    let fig2_total: u64 = report
        .fig2
        .bytes
        .values()
        .flat_map(|per_lib| per_lib.values())
        .sum();
    assert_eq!(fig2_total, direct_total);
}

#[test]
fn per_app_analysis_equals_campaign_member() {
    // Running one app standalone must produce the same analysis as the
    // same app inside a campaign (given the same derived monkey seed).
    let corpus = small_corpus(3, 34);
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers: 1,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = 50;
    let config = CampaignConfig {
        dispatch: dispatch.clone(),
        ..Default::default()
    };
    let campaign = run_campaign(&corpus, &knowledge, &config, None, None)
        .expect("a campaign without a store does no I/O")
        .analyses;

    let index = 1usize;
    let resolver = resolver_for(&corpus.domains);
    let experiment = &dispatch.experiment;
    let raw = run_corpus_app(&corpus, &resolver, experiment, index).unwrap();
    let standalone = analyze_run(&raw, &knowledge, experiment.supervisor.collector_port);
    assert_eq!(standalone.flows, campaign[index].flows);
    assert_eq!(standalone.coverage, campaign[index].coverage);
}

#[test]
fn http_user_agents_ride_the_wire_and_are_partially_attributable() {
    let corpus = small_corpus(4, 36);
    let knowledge = Knowledge::from_corpus(&corpus);
    let resolver = resolver_for(&corpus.domains);
    let config = quick_experiment(120);
    let mut ua = libspector::baseline::UaComparison::default();
    let mut http_flows = 0usize;
    for app in &corpus.apps {
        let raw = run_app(&app.apk, &resolver, &[], &config).unwrap();
        let analysis = analyze_run(&raw, &knowledge, config.supervisor.collector_port);
        http_flows += analysis
            .flows
            .iter()
            .filter(|f| f.http_user_agent.is_some())
            .count();
        let c = libspector::baseline::compare_user_agent(std::slice::from_ref(&analysis));
        ua.flows += c.flows;
        ua.tagged_flows += c.tagged_flows;
        ua.tagged_matching_context += c.tagged_matching_context;
        ua.generic_flows += c.generic_flows;
        ua.non_http_flows += c.non_http_flows;
        ua.tagged_bytes += c.tagged_bytes;
        ua.total_bytes += c.total_bytes;
    }
    // HTTP request heads are parseable from the captures...
    assert!(http_flows > 10, "only {http_flows} HTTP flows");
    // ...but only a minority of flows carry an SDK identifier, and some
    // flows are raw sockets — the paper's "generic identifiers" problem.
    assert!(ua.tagged_flows > 0, "no SDK-tagged UAs at all");
    assert!(
        ua.tagged_flows < ua.flows,
        "every flow UA-tagged: too easy for header-based classifiers"
    );
    assert!(ua.generic_flows > 0, "no generic-UA flows");
    // Where a tag exists, it is usually consistent with the stack-based
    // origin (it names the code that issued the request).
    assert!(ua.tagged_matching_context * 2 >= ua.tagged_flows);
}

#[test]
fn arm_only_apps_are_filtered_by_store_selection() {
    use spector_corpus::store::{select_apks, ArchivedApk};
    let corpus = small_corpus(40, 35);
    let archive: Vec<ArchivedApk> = corpus
        .apps
        .iter()
        .map(|app| ArchivedApk {
            package: app.package.clone(),
            apk: app.apk.clone(),
        })
        .collect();
    let selection = select_apks(archive);
    assert_eq!(
        selection.selected.len() + selection.rejected.len(),
        corpus.apps.len()
    );
    for chosen in &selection.selected {
        assert!(chosen.apk.supports_x86());
    }
    for (package, _) in &selection.rejected {
        let app = corpus.apps.iter().find(|a| &a.package == package).unwrap();
        assert!(!app.apk.supports_x86());
    }
}
