//! Store sweep: a miniature §IV measurement campaign.
//!
//! Generates a multi-category app store, runs every app through the
//! instrumented emulator in parallel, and prints the full evaluation
//! report — all tables and figures at campaign scale — exactly what the
//! `libspector run` command does, shown here as library usage.
//!
//! ```text
//! cargo run --release -p spector-cli --example store_sweep
//! ```

use libspector::knowledge::Knowledge;
use spector_analysis::FullReport;
use spector_corpus::{Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};

fn main() {
    let apps = std::env::args()
        .nth(1)
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(60usize);
    eprintln!("generating a {apps}-app store (seed 42)...");
    let corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed: 42,
        ..Default::default()
    });

    // The §III-D pre-scan: LibRadar aggregate + domain labels.
    let knowledge = Knowledge::from_corpus(&corpus);
    eprintln!(
        "knowledge: {} aggregated libraries, {} labeled domains",
        knowledge.aggregated.len(),
        knowledge.domain_categories.len()
    );

    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 250;
    let progress = |done: usize| {
        if done.is_multiple_of(20) {
            eprintln!("  {done}/{apps} apps analyzed");
        }
    };
    let config = CampaignConfig {
        dispatch,
        ..Default::default()
    };
    let analyses = run_campaign(&corpus, &knowledge, &config, None, Some(&progress))
        .expect("a campaign without a store does no I/O")
        .analyses;

    let report = FullReport::build(&analyses);
    println!("{}", report.render());

    // The paper's RQ2 check, computed live: how much ad-library traffic
    // would a DNS-only classifier misattribute?
    let fig9 = &report.fig9;
    let ad_to_cdn = fig9.column_share(
        spector_vtcat::DomainCategory::Cdn,
        spector_libradar::LibCategory::Advertisement,
    );
    println!(
        "RQ2: {:.1}% of advertisement-library traffic terminates at CDN domains — a\n\
         name-based classifier would label all of it 'CDN', missing the ad context.",
        ad_to_cdn * 100.0
    );
}
