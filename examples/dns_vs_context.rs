//! RQ2, live: context-aware attribution vs a DNS-only baseline, plus
//! the BorderPatrol policy hand-off (§IV-B, §IV-E).
//!
//! Runs a campaign, classifies the same traffic twice — once with
//! Libspector's stack-trace context, once the way name-based systems do
//! (from the destination domain category alone) — and quantifies the
//! disagreement. Then derives a blacklist from the measured AnT traffic
//! and replays it as a policy to show what enforcement would save.
//!
//! ```text
//! cargo run --release -p spector-cli --example dns_vs_context
//! ```

use libspector::baseline;
use libspector::cost::DataPlan;
use libspector::knowledge::Knowledge;
use libspector::policy::{apply, suggest_blacklist, Action, Matcher, Policy};
use spector_corpus::{Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};

fn main() {
    let apps = 60;
    let corpus = Corpus::generate(&CorpusConfig {
        apps,
        seed: 1337,
        ..Default::default()
    });
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 250;
    eprintln!("running {apps}-app campaign...");
    let config = CampaignConfig {
        dispatch,
        ..Default::default()
    };
    let analyses = run_campaign(&corpus, &knowledge, &config, None, None)
        .expect("a campaign without a store does no I/O")
        .analyses;

    // --- RQ2: how wrong is a DNS-only classifier? ---------------------
    let comparison = baseline::compare(&analyses);
    println!("== DNS-only baseline vs context-aware attribution ==");
    println!(
        "  total {:.2} MB | agree {:.2} MB | conflict {:.2} MB | invisible {:.2} MB",
        mb(comparison.total_bytes),
        mb(comparison.agree_bytes),
        mb(comparison.conflict_bytes),
        mb(comparison.invisible_bytes)
    );
    println!(
        "  misclassified or invisible: {:.1}% of all bytes",
        comparison.misclassified_fraction() * 100.0
    );
    println!(
        "  known-origin traffic terminating at CDNs: {:.1}% of all bytes (paper: 19.3%)",
        comparison.known_origin_cdn_fraction() * 100.0
    );
    println!(
        "  advertisement bytes a DNS-only view misses: {:.1}%",
        comparison.ad_miss_fraction() * 100.0
    );

    // --- The User-Agent baseline (Xu et al. / Maier et al.) -----------
    let ua = baseline::compare_user_agent(&analyses);
    println!("\n== User-Agent baseline ==");
    println!(
        "  {} flows: {} SDK-tagged ({} consistent with stack context), {} generic-UA, {} non-HTTP",
        ua.flows, ua.tagged_flows, ua.tagged_matching_context, ua.generic_flows, ua.non_http_flows
    );
    println!(
        "  header-visible identifiers cover only {:.1}% of bytes",
        ua.attributable_fraction() * 100.0
    );

    // --- §IV-E Security: derive and replay a blacklist ----------------
    let suggestions = suggest_blacklist(&analyses, 512 * 1024);
    println!("\n== suggested blacklist (AnT 2-level origins ≥ 0.5 MB) ==");
    let mut policy = Policy::allow_by_default();
    for (origin, bytes) in suggestions.iter().take(8) {
        println!("  {origin:<28} {:>8.2} MB", mb(*bytes));
        policy = policy.with_rule(
            &format!("block {origin}"),
            Matcher::LibraryPrefix(origin.clone()),
            Action::Block,
        );
    }
    let report = apply(&policy, &analyses);
    println!("\n== policy what-if (block the suggested origins) ==");
    println!(
        "  would block {} of {} flows, {:.2} MB of traffic",
        report.blocked_flows,
        report.flows,
        mb(report.blocked_bytes)
    );
    println!(
        "  {} apps would lose their entire network traffic",
        report.fully_blocked_apps
    );
    println!(
        "  user savings: ${:.3}/hour on a $10/GB plan",
        report.hourly_savings_usd(&DataPlan::default(), analyses.len())
    );
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1_048_576.0
}
