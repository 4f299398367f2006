//! Online policy enforcement (§IV-E "Security"): the OnlineEnforcer
//! runs *inside* the instrumented emulator, applies the attribution
//! heuristic to the live stack at connect time, and blocks blacklisted
//! library traffic before any payload moves.

use std::sync::Arc;

use libspector::experiment::{resolver_for, run_app, run_app_with_hooks, ExperimentConfig};
use libspector::knowledge::Knowledge;
use libspector::pipeline::analyze_run;
use libspector::policy::{Action, Matcher, OnlineEnforcer, Policy};
use spector_corpus::{
    obfuscate_corpus, AppGenConfig, Archetype, Corpus, CorpusConfig, ObfuscationTier,
};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        apps: 10,
        seed: 88,
        appgen: AppGenConfig {
            method_scale: 0.008,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn ip_to_domain(corpus: &Corpus) -> std::collections::HashMap<std::net::IpAddr, String> {
    corpus
        .domains
        .domains()
        .iter()
        .map(|d| (std::net::IpAddr::V4(d.ip), d.name.clone()))
        .collect()
}

#[test]
fn blocking_ant_eliminates_ant_payload_but_keeps_other_traffic() {
    let corpus = corpus();
    let knowledge = Arc::new(Knowledge::from_corpus(&corpus));
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 100;

    // Pick a Mixed app so both AnT and non-AnT traffic exist.
    let app = corpus
        .apps
        .iter()
        .find(|a| a.archetype == Archetype::Mixed)
        .expect("corpus has mixed apps");
    let baseline_raw = run_app(&app.apk, &resolver, &[], &config).unwrap();
    let baseline = analyze_run(&baseline_raw, &knowledge, config.supervisor.collector_port);
    assert!(baseline.ant_bytes() > 0, "mixed app must have AnT traffic");

    let policy = Policy::allow_by_default().with_rule("no-ant", Matcher::AnyAnt, Action::Block);
    let enforcer = OnlineEnforcer::new(policy, Arc::clone(&knowledge), ip_to_domain(&corpus));
    let enforced_raw =
        run_app_with_hooks(&app.apk, &resolver, &[], &config, vec![Box::new(enforcer)]).unwrap();
    assert!(enforced_raw.runtime_stats.blocked_ops > 0);
    let enforced = analyze_run(&enforced_raw, &knowledge, config.supervisor.collector_port);

    // Blocked connections still appear (handshake + report happened)
    // but carry no payload.
    for flow in enforced.flows.iter().filter(|f| f.is_ant) {
        assert_eq!(
            flow.recv_payload, 0,
            "AnT flow to {:?} moved payload despite the block",
            flow.domain
        );
    }
    // Non-AnT traffic is untouched: same non-AnT payload as baseline.
    let non_ant_payload = |analysis: &libspector::pipeline::AppAnalysis| -> u64 {
        analysis
            .flows
            .iter()
            .filter(|f| !f.is_ant)
            .map(|f| f.recv_payload)
            .sum()
    };
    assert_eq!(non_ant_payload(&enforced), non_ant_payload(&baseline));
    // And the app saved real bytes.
    assert!(enforced.total_recv() < baseline.total_recv());
}

/// Renamed SDKs are AnT only through the knowledge base's
/// exact-fingerprint tier. The enforcer resolves verdicts through the
/// same cascade as the offline analysis, so it blocks them online too.
#[test]
fn blocking_ant_reaches_renamed_sdks() {
    let mut corpus = corpus();
    obfuscate_corpus(&mut corpus, ObfuscationTier::Rename, 0x0bf5);
    let knowledge = Arc::new(Knowledge::from_corpus(&corpus));
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 100;
    let port = config.supervisor.collector_port;
    let ant_payload = |analysis: &libspector::pipeline::AppAnalysis| -> u64 {
        analysis
            .flows
            .iter()
            .filter(|f| f.is_ant)
            .map(|f| f.sent_payload + f.recv_payload)
            .sum()
    };
    let mut apps_with_ant = 0;
    for app in &corpus.apps {
        let baseline = analyze_run(
            &run_app(&app.apk, &resolver, &[], &config).unwrap(),
            &knowledge,
            port,
        );
        if ant_payload(&baseline) == 0 {
            continue;
        }
        apps_with_ant += 1;
        assert!(
            baseline.detect.exact_fp_hits > 0,
            "{}: renamed AnT must resolve through the exact fingerprint",
            app.package
        );
        let policy = Policy::allow_by_default().with_rule("no-ant", Matcher::AnyAnt, Action::Block);
        let enforcer = OnlineEnforcer::new(policy, Arc::clone(&knowledge), ip_to_domain(&corpus));
        let enforced_raw =
            run_app_with_hooks(&app.apk, &resolver, &[], &config, vec![Box::new(enforcer)])
                .unwrap();
        assert!(
            enforced_raw.runtime_stats.blocked_ops > 0,
            "{}: no renamed AnT connection was blocked",
            app.package
        );
        let enforced = analyze_run(&enforced_raw, &knowledge, port);
        assert_eq!(
            ant_payload(&enforced),
            0,
            "{}: AnT payload flowed",
            app.package
        );
    }
    assert!(
        apps_with_ant > 0,
        "the renamed corpus must carry AnT traffic"
    );
}

#[test]
fn library_prefix_blacklist_blocks_only_that_family() {
    let corpus = corpus();
    let knowledge = Arc::new(Knowledge::from_corpus(&corpus));
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 80;

    // Find an app with traffic from at least two distinct 2-level
    // origins, then blacklist exactly one of them.
    for app in &corpus.apps {
        let raw = run_app(&app.apk, &resolver, &[], &config).unwrap();
        let analysis = analyze_run(&raw, &knowledge, config.supervisor.collector_port);
        let mut two_levels: Vec<String> = analysis
            .flows
            .iter()
            .filter_map(|f| match &f.origin {
                libspector::OriginKind::Library { two_level, .. } => Some(two_level.clone()),
                libspector::OriginKind::Builtin => None,
            })
            .collect();
        two_levels.sort();
        two_levels.dedup();
        if two_levels.len() < 2 {
            continue;
        }
        let target = two_levels[0].clone();
        let policy = Policy::allow_by_default().with_rule(
            "blacklist-one",
            Matcher::LibraryPrefix(target.clone()),
            Action::Block,
        );
        let enforcer = OnlineEnforcer::new(policy, Arc::clone(&knowledge), ip_to_domain(&corpus));
        let enforced_raw =
            run_app_with_hooks(&app.apk, &resolver, &[], &config, vec![Box::new(enforcer)])
                .unwrap();
        let enforced = analyze_run(&enforced_raw, &knowledge, config.supervisor.collector_port);
        for flow in &enforced.flows {
            if let libspector::OriginKind::Library { two_level, .. } = &flow.origin {
                if two_level == &target {
                    assert_eq!(flow.recv_payload, 0, "blacklisted family moved payload");
                } else if !flow.is_ant {
                    // Unrelated libraries keep flowing.
                    continue;
                }
            }
        }
        assert!(enforced_raw.runtime_stats.blocked_ops > 0);
        return; // one qualifying app is enough
    }
    panic!("no app with two distinct 2-level origins found");
}

#[test]
fn allow_by_default_policy_changes_nothing() {
    let corpus = corpus();
    let knowledge = Arc::new(Knowledge::from_corpus(&corpus));
    let resolver = resolver_for(&corpus.domains);
    let mut config = ExperimentConfig::default();
    config.monkey.events = 60;
    let app = &corpus.apps[0];

    let baseline = run_app(&app.apk, &resolver, &[], &config).unwrap();
    let enforcer = OnlineEnforcer::new(
        Policy::allow_by_default(),
        Arc::clone(&knowledge),
        ip_to_domain(&corpus),
    );
    let enforced =
        run_app_with_hooks(&app.apk, &resolver, &[], &config, vec![Box::new(enforcer)]).unwrap();
    assert_eq!(enforced.runtime_stats.blocked_ops, 0);
    assert_eq!(enforced.capture.len(), baseline.capture.len());
}
