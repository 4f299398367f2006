//! Structured answers to the paper's four research questions (§IV).

use libspector::baseline::{compare, compare_user_agent, BaselineComparison, UaComparison};
use libspector::cost::{DataPlan, EnergyModel};
use libspector::pipeline::AppAnalysis;
use serde::{Deserialize, Serialize};
use spector_libradar::LibCategory;

use crate::fig10::Fig10;
use crate::fig5::Fig5;
use crate::headline::Headline;

/// RQ1 — properties of data transfer and flow ratios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rq1 {
    /// Share of traffic from advertisement libraries, percent.
    pub ad_share_percent: f64,
    /// Total bytes received over bytes sent.
    pub aggregate_recv_over_sent: f64,
    /// Mean per-origin-library recv/sent ratio.
    pub lib_ratio_mean: f64,
}

/// RQ2 — is context (origin-library) tracking necessary, or does
/// network-only classification suffice?
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rq2 {
    /// The full baseline comparison.
    pub baseline: BaselineComparison,
    /// Percent of all bytes a DNS-only classifier gets wrong or cannot
    /// attribute despite a known origin.
    pub misclassified_percent: f64,
    /// Percent of all bytes that are known-origin traffic to CDNs
    /// (paper: 19.3 %).
    pub known_origin_cdn_percent: f64,
    /// The User-Agent baseline (Xu et al. / Maier et al. style).
    pub user_agent: UaComparison,
    /// Percent of bytes a UA-based classifier can attribute at all.
    pub ua_attributable_percent: f64,
}

/// RQ3 — how comprehensive is the dynamic analysis?
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rq3 {
    /// Mean method coverage, percent.
    pub mean_coverage_percent: f64,
    /// Fraction of apps above the mean.
    pub above_mean_fraction: f64,
}

/// RQ4 — monetary and energy cost to users.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rq4 {
    /// $/hour of advertisement traffic, per-app granularity.
    pub ad_hourly_usd_per_app: f64,
    /// Battery fraction of per-app ad traffic.
    pub ad_battery_fraction: f64,
}

/// All four answers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RqAnswers {
    /// Transfer properties.
    pub rq1: Rq1,
    /// Context necessity.
    pub rq2: Rq2,
    /// Coverage.
    pub rq3: Rq3,
    /// Cost.
    pub rq4: Rq4,
}

/// Computes the research-question summary from the campaign and the
/// headline, Figure 5 and Figure 10 already built over it.
pub fn compute(
    analyses: &[AppAnalysis],
    headline: &Headline,
    fig5: &Fig5,
    fig10: &Fig10,
) -> RqAnswers {
    let baseline = compare(analyses);
    let user_agent = compare_user_agent(analyses);
    let plan = DataPlan::default();
    let energy = EnergyModel::default();

    let ad_bytes: u64 = analyses
        .iter()
        .flat_map(|a| a.flows.iter())
        .filter(|f| f.lib_category == LibCategory::Advertisement)
        .map(|f| f.sent_bytes + f.recv_bytes)
        .sum();
    let ad_per_app = ad_bytes as f64 / analyses.len().max(1) as f64;

    RqAnswers {
        rq1: Rq1 {
            ad_share_percent: headline.share(LibCategory::Advertisement),
            aggregate_recv_over_sent: if headline.sent_bytes == 0 {
                0.0
            } else {
                headline.recv_bytes as f64 / headline.sent_bytes as f64
            },
            lib_ratio_mean: fig5.lib_mean,
        },
        rq2: Rq2 {
            misclassified_percent: baseline.misclassified_fraction() * 100.0,
            known_origin_cdn_percent: baseline.known_origin_cdn_fraction() * 100.0,
            baseline,
            ua_attributable_percent: user_agent.attributable_fraction() * 100.0,
            user_agent,
        },
        rq3: Rq3 {
            mean_coverage_percent: fig10.mean_coverage_percent,
            above_mean_fraction: fig10.above_mean_fraction,
        },
        rq4: Rq4 {
            ad_hourly_usd_per_app: plan.hourly_cost_usd(ad_per_app),
            ad_battery_fraction: energy.battery_fraction_for_bytes(ad_per_app),
        },
    }
}

/// Renders the answers as text.
pub fn render(answers: &RqAnswers) -> String {
    format!(
        "== Research questions ==\n\
         RQ1 transfer: ads {:.1}% of traffic; apps receive {:.1}x what they send; \
         per-library ratio mean {:.1}\n\
         RQ2 context: DNS-only misclassifies/misses {:.1}% of bytes; \
         known-origin CDN traffic {:.1}% (paper 19.3%); UA headers attribute \
         only {:.1}% of bytes -> context required\n\
         RQ3 coverage: mean {:.2}% with {:.1}% of apps above mean (lower bound)\n\
         RQ4 cost: ads cost ${:.3}/hour per app and {:.2}% of battery per session\n",
        answers.rq1.ad_share_percent,
        answers.rq1.aggregate_recv_over_sent,
        answers.rq1.lib_ratio_mean,
        answers.rq2.misclassified_percent,
        answers.rq2.known_origin_cdn_percent,
        answers.rq2.ua_attributable_percent,
        answers.rq3.mean_coverage_percent,
        answers.rq3.above_mean_fraction * 100.0,
        answers.rq4.ad_hourly_usd_per_app,
        answers.rq4.ad_battery_fraction * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{app, flow};
    use spector_vtcat::DomainCategory;

    /// The answers over `analyses`, from freshly built parts.
    fn answers(analyses: &[AppAnalysis]) -> RqAnswers {
        compute(
            analyses,
            &crate::headline::compute(analyses),
            &crate::fig5::compute(analyses),
            &crate::fig10::compute(analyses),
        )
    }

    #[test]
    fn answers_cover_all_questions() {
        let analyses = vec![app(
            "com.a",
            "TOOLS",
            vec![
                flow(
                    Some(("ads.x", "ads.x")),
                    LibCategory::Advertisement,
                    "a",
                    DomainCategory::Advertisements,
                    100,
                    5_000,
                ),
                flow(
                    Some(("ads.x", "ads.x")),
                    LibCategory::Advertisement,
                    "c",
                    DomainCategory::Cdn,
                    100,
                    3_000,
                ),
            ],
        )];
        let answers = answers(&analyses);
        assert!(answers.rq1.ad_share_percent > 99.0);
        assert!(answers.rq1.aggregate_recv_over_sent > 10.0);
        // Half-ish of ad bytes go to CDN: RQ2 must flag it.
        assert!(answers.rq2.known_origin_cdn_percent > 30.0);
        assert!(answers.rq2.misclassified_percent > 30.0);
        assert!(answers.rq3.mean_coverage_percent > 0.0);
        assert!(answers.rq4.ad_hourly_usd_per_app > 0.0);
        let text = render(&answers);
        assert!(text.contains("RQ1"));
        assert!(text.contains("RQ4"));
    }

    #[test]
    fn empty_campaign_is_all_zero() {
        let answers = answers(&[]);
        assert_eq!(answers.rq1.ad_share_percent, 0.0);
        assert_eq!(answers.rq2.misclassified_percent, 0.0);
        assert_eq!(answers.rq4.ad_hourly_usd_per_app, 0.0);
    }
}
