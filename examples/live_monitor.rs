//! Live monitor: watch a campaign's attribution as it streams.
//!
//! Runs a small campaign through the dispatcher while a sharded
//! [`LiveEngine`] consumes every run's capture concurrently, printing
//! a one-line summary after each app finishes and the full live report
//! at the end — then proves the streaming view equals the offline
//! pipeline's answer.
//!
//! ```text
//! cargo run -p spector-cli --release --example live_monitor
//! ```

use std::sync::Arc;

use libspector::knowledge::Knowledge;
use spector_corpus::{Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig};
use spector_live::{LiveConfig, LiveEngine, LiveSummary};

fn main() {
    let corpus = Corpus::generate(&CorpusConfig {
        apps: 12,
        seed: 99,
        ..Default::default()
    });
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut config = CampaignConfig::default();
    config.dispatch.experiment.monkey.events = 200;

    let live = LiveEngine::start(
        Arc::new(knowledge.clone()),
        LiveConfig {
            shards: 2,
            collector_port: config.dispatch.experiment.supervisor.collector_port,
            ..Default::default()
        },
    );

    let total = corpus.apps.len();
    println!("streaming {total} apps through 2 shards...\n");
    let outcome = {
        let live = &live;
        run_campaign(
            &corpus,
            &knowledge,
            &config,
            Some(live),
            Some(&move |done| {
                println!(
                    "[{done:>2}/{total}] {}",
                    spector_analysis::live::brief(&live.snapshot())
                );
            }),
        )
        .expect("no store, no i/o")
    };
    for failure in &outcome.failures {
        eprintln!(
            "app {} ({}) failed: {}",
            failure.index, failure.package, failure.error
        );
    }

    let live = live.finish();
    println!("\n{}", spector_analysis::live::render(&live));

    // The punchline: the streaming view is the offline answer.
    assert_eq!(
        live.offline_view(),
        LiveSummary::from_analyses(&outcome.analyses)
    );
    println!(
        "offline equivalence: OK ({} flows, {} libraries)",
        live.flows,
        live.per_library.len()
    );
}
