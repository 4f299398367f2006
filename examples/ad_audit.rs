//! Ad audit: what do advertisement libraries cost the user?
//!
//! Runs a small campaign, isolates advertisement/tracker (AnT) traffic,
//! ranks the ad libraries by bytes, and applies the paper's §IV-D
//! monetary and energy models — the "is this app's ad load worth it"
//! question a store auditor or MDM operator would ask.
//!
//! ```text
//! cargo run -p spector-cli --example ad_audit
//! ```

use std::collections::BTreeMap;

use libspector::cost::{DataPlan, EnergyModel};
use libspector::knowledge::Knowledge;
use libspector::OriginKind;
use spector_corpus::{Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};

fn main() {
    let apps = 40;
    let corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed: 2024,
        ..Default::default()
    });
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 200;
    eprintln!("running {apps}-app campaign...");
    let config = CampaignConfig {
        dispatch,
        ..Default::default()
    };
    let analyses = run_campaign(&corpus, &knowledge, &config, None, None)
        .expect("a campaign without a store does no I/O")
        .analyses;

    // Rank AnT origin-libraries by bytes.
    let mut per_lib: BTreeMap<String, u64> = BTreeMap::new();
    let mut ant_total = 0u64;
    let mut grand_total = 0u64;
    let mut ant_apps = 0usize;
    for analysis in &analyses {
        let app_ant = analysis.ant_bytes();
        if app_ant > 0 {
            ant_apps += 1;
        }
        ant_total += app_ant;
        for flow in &analysis.flows {
            grand_total += flow.total_bytes();
            if !flow.is_ant {
                continue;
            }
            if let OriginKind::Library { origin_library, .. } = &flow.origin {
                *per_lib.entry(origin_library.clone()).or_default() += flow.total_bytes();
            }
        }
    }
    let mut ranked: Vec<(String, u64)> = per_lib.into_iter().collect();
    ranked.sort_by_key(|(_, b)| std::cmp::Reverse(*b));

    println!("top advertisement/tracker origin-libraries:");
    for (library, bytes) in ranked.iter().take(12) {
        println!("  {library:<48} {:>9.3} MB", *bytes as f64 / 1_048_576.0);
    }
    println!(
        "\nAnT traffic: {:.2} MB of {:.2} MB total ({:.1}%), present in {}/{} apps",
        ant_total as f64 / 1_048_576.0,
        grand_total as f64 / 1_048_576.0,
        ant_total as f64 / grand_total.max(1) as f64 * 100.0,
        ant_apps,
        analyses.len()
    );

    // Cost models (paper constants).
    let plan = DataPlan::default();
    let energy = EnergyModel::default();
    let per_app_session = ant_total as f64 / analyses.len().max(1) as f64;
    println!(
        "per-app ad session volume {:.2} MB -> ${:.3}/hour on a $10/GB plan",
        per_app_session / 1_048_576.0,
        plan.hourly_cost_usd(per_app_session)
    );
    println!(
        "energy: {:.0} J per session ({:.1}% of an 11.55 Wh battery)",
        energy.joules_for_bytes(per_app_session),
        energy.battery_fraction_for_bytes(per_app_session) * 100.0
    );
}
