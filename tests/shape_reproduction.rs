//! Shape reproduction: a mid-size campaign must reproduce the paper's
//! qualitative findings — who wins, by roughly what factor, and where
//! the crossovers fall. Absolute numbers scale with corpus size; the
//! assertions below use generous bands around the paper's values.

use libspector::knowledge::Knowledge;
use spector_analysis::FullReport;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};
use spector_libradar::LibCategory;
use spector_vtcat::DomainCategory;

/// One shared campaign for all shape assertions (expensive to run).
fn campaign() -> FullReport {
    let corpus = Corpus::generate(&CorpusConfig {
        apps: 150,
        seed: 4242,
        appgen: AppGenConfig {
            method_scale: 0.006,
            ..Default::default()
        },
        ..Default::default()
    });
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 250;
    dispatch.experiment.monkey.seed = 4242;
    let config = CampaignConfig {
        dispatch,
        ..Default::default()
    };
    let analyses = run_campaign(&corpus, &knowledge, &config, None, None)
        .expect("a campaign without a store does no I/O")
        .analyses;
    FullReport::build(&analyses)
}

#[test]
fn paper_shapes_hold_at_campaign_scale() {
    let report = campaign();
    let headline = &report.headline;

    // §IV-A: advertisement libraries cause "over a quarter" of traffic;
    // Development Aid and Unknown are the other two big blocks.
    let ads = headline.share(LibCategory::Advertisement);
    assert!((18.0..40.0).contains(&ads), "ad share {ads}%");
    let dev = headline.share(LibCategory::DevelopmentAid);
    assert!((15.0..38.0).contains(&dev), "dev-aid share {dev}%");
    let unknown = headline.share(LibCategory::Unknown);
    assert!((14.0..38.0).contains(&unknown), "unknown share {unknown}%");
    // Game engines land near 10 %.
    let games = headline.share(LibCategory::GameEngine);
    assert!((3.0..22.0).contains(&games), "game-engine share {games}%");
    // The three big categories dominate, in the paper's order bands.
    assert!(ads > games && dev > games);

    // §IV-A: apps receive far more than they send.
    assert!(
        headline.recv_bytes > headline.sent_bytes * 8,
        "recv {} sent {}",
        headline.recv_bytes,
        headline.sent_bytes
    );

    // Figure 6: AnT prevalence — ~35 % AnT-only, ~89 % some AnT, ~10 %
    // AnT-free.
    let fig6 = &report.fig6;
    assert!(
        (0.20..0.50).contains(&fig6.ant_only_fraction),
        "ant-only {}",
        fig6.ant_only_fraction
    );
    assert!(
        (0.75..0.98).contains(&fig6.some_ant_fraction),
        "some-ant {}",
        fig6.some_ant_fraction
    );
    assert!(
        (0.02..0.25).contains(&fig6.ant_free_fraction),
        "ant-free {}",
        fig6.ant_free_fraction
    );
    // AnT libraries are roughly twice as "aggressive" as common libs.
    assert!(
        fig6.ant_recv_sent_ratio > fig6.common_recv_sent_ratio * 1.3,
        "AnT {} vs CL {}",
        fig6.ant_recv_sent_ratio,
        fig6.common_recv_sent_ratio
    );

    // Figure 7: CDN domains receive far more per domain than
    // advertisement domains (paper: ~11×; require ≥3×).
    let fig7 = &report.fig7;
    let cdn = fig7.domain_average("cdn");
    let ads_avg = fig7.domain_average("advertisements");
    assert!(
        cdn > ads_avg * 3.0,
        "cdn/domain {cdn} vs ads/domain {ads_avg}"
    );

    // Figure 9: cross-category traffic exists — ad libraries send a
    // substantial share (paper ~24-29 %) of their bytes to CDN domains.
    let ad_to_cdn = report
        .fig9
        .column_share(DomainCategory::Cdn, LibCategory::Advertisement);
    assert!(
        (0.10..0.45).contains(&ad_to_cdn),
        "ads→cdn share {ad_to_cdn}"
    );
    // And analytics traffic lands in business/finance domains too.
    let analytics_to_biz = report.fig9.column_share(
        DomainCategory::BusinessAndFinance,
        LibCategory::MobileAnalytics,
    );
    assert!(analytics_to_biz > 0.0, "no analytics→business traffic");

    // Figure 10: coverage is partial — around the paper's 9.5 % mean.
    let coverage = report.fig10.mean_coverage_percent;
    assert!((2.0..30.0).contains(&coverage), "mean coverage {coverage}%");

    // Figure 3: a minority of 2-level libraries carries the majority of
    // bytes (paper: top 25 of 4,793 carried 72.5 %).
    assert!(
        report.fig3.top25_two_level_share > 0.5,
        "top-25 share {}",
        report.fig3.top25_two_level_share
    );

    // Table I: business/finance has many domains, CDN very few.
    let table1 = &report.table1;
    assert!(
        table1.count(DomainCategory::BusinessAndFinance) > table1.count(DomainCategory::Cdn),
        "biz {} vs cdn {}",
        table1.count(DomainCategory::BusinessAndFinance),
        table1.count(DomainCategory::Cdn)
    );

    // §IV-D: ad traffic costs real money. The per-app granularity is
    // scale-free: the Figure 9 calibration (8.69 GB over 25,000 apps ≈
    // 0.35 MB/app/session) implies ≈ $0.026/hour per app; allow a wide
    // band for sampling variance.
    let hourly = report.cost.hourly(LibCategory::Advertisement);
    assert!(
        (0.004..0.20).contains(&hourly),
        "ad data cost ${hourly}/hour per app"
    );
    // And ads cost more than analytics at every granularity, as in the
    // paper ($1.17 vs $0.17 per hour).
    assert!(
        report.cost.hourly(LibCategory::Advertisement)
            > report.cost.hourly(LibCategory::MobileAnalytics)
    );
    assert!(
        report.cost.hourly_per_library(LibCategory::Advertisement)
            > report.cost.hourly_per_library(LibCategory::MobileAnalytics)
    );
}
