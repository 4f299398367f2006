//! Coverage study: the paper's §IV-C event-budget calibration.
//!
//! Before the large-scale run, the authors exercised 100 apps with 10,
//! 100, 500, 1,000, 5,000 and 10,000 monkey events and found that going
//! past 1,000 events "did not provide any significant benefits over the
//! number of methods called". This example repeats that pre-study on a
//! smaller corpus and prints the coverage curve.
//!
//! ```text
//! cargo run --release -p spector-cli --example coverage_study
//! ```

use libspector::knowledge::Knowledge;
use spector_analysis::FullReport;
use spector_corpus::{Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};

fn main() {
    let apps = 25;
    let corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed: 99,
        ..Default::default()
    });
    let knowledge = Knowledge::from_corpus(&corpus);

    println!(
        "{:>8} {:>16} {:>16} {:>14}",
        "events", "mean coverage", "executed/app", "MB per app"
    );
    let mut previous_coverage = 0.0f64;
    for events in [10u32, 100, 500, 1_000, 5_000] {
        let mut dispatch = DispatchConfig::default();
        dispatch.experiment.monkey.events = events;
        dispatch.experiment.monkey.seed = 99;
        let config = CampaignConfig {
            dispatch,
            ..Default::default()
        };
        let analyses = run_campaign(&corpus, &knowledge, &config, None, None)
            .expect("a campaign without a store does no I/O")
            .analyses;
        let report = FullReport::build(&analyses);
        let executed: usize = analyses
            .iter()
            .map(|a| a.coverage.executed_methods)
            .sum::<usize>()
            / analyses.len().max(1);
        let mb_per_app =
            report.headline.total_bytes as f64 / 1_048_576.0 / analyses.len().max(1) as f64;
        let coverage = report.fig10.mean_coverage_percent;
        let delta = coverage - previous_coverage;
        println!(
            "{events:>8} {coverage:>15.2}% {executed:>16} {mb_per_app:>14.3}   (+{delta:.2} pp)"
        );
        previous_coverage = coverage;
    }
    println!(
        "\nDiminishing returns past ~1,000 events justify the paper's choice of\n\
         1,000 events @ 500 ms per app for the 25,000-app campaign."
    );
}
