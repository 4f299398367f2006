//! Evaluation aggregations: every table and figure of §IV.
//!
//! Input is always the per-app [`AppAnalysis`] list a campaign
//! produced; each module computes one of the paper's results:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`headline`] | §IV-A headline statistics |
//! | [`table1`]   | Table I — domain-category tokenization counts |
//! | [`fig2`]     | Figure 2 — per-app-category traffic by library category |
//! | [`fig3`]     | Figure 3 — top origin-libraries and 2-level libraries |
//! | [`fig4`]     | Figure 4 — CDFs of flow sizes (apps / libs / domains) |
//! | [`fig5`]     | Figure 5 — transfer-flow ratios with means |
//! | [`fig6`]     | Figure 6 — AnT vs common-library transfer ratios |
//! | [`fig7`]     | Figure 7 — averages per library / domain category |
//! | [`fig8`]     | Figure 8 — average transfer per app category |
//! | [`fig9`]     | Figure 9 — library × domain category heatmap |
//! | [`fig10`]    | Figure 10 — method coverage distribution |
//! | [`cost`]     | §IV-D — monetary & energy cost of library traffic |
//!
//! [`render`] turns each result into the aligned text tables the CLI
//! and EXPERIMENTS.md use; [`stats`] holds the CDF/quantile machinery.

pub mod cost;
pub mod detect;
pub mod export;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod live;
pub mod paper;
pub mod profile;
pub mod render;
pub mod rq;
pub mod sampling;
pub mod shapes;
pub mod stats;
pub mod storeq;
pub mod table1;

use libspector::pipeline::{AnalyzedFlow, AppAnalysis};
use libspector::OriginKind;
use serde::{Deserialize, Serialize};

/// Key under which a flow's origin is aggregated: the origin-library
/// package, or a `*-<domain category>` bucket for platform-created
/// sockets (Figure 3's asterisk entries).
pub fn origin_key(flow: &AnalyzedFlow) -> String {
    match &flow.origin {
        OriginKind::Library { origin_library, .. } => origin_library.clone(),
        OriginKind::Builtin => format!("*-{}", flow.domain_category),
    }
}

/// 2-level reduction of a flow's origin.
pub fn two_level_key(flow: &AnalyzedFlow) -> String {
    match &flow.origin {
        OriginKind::Library { two_level, .. } => two_level.clone(),
        OriginKind::Builtin => "*".to_owned(),
    }
}

/// The complete evaluation over one campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullReport {
    /// §IV-A headline statistics.
    pub headline: headline::Headline,
    /// Table I.
    pub table1: table1::Table1,
    /// Figure 2.
    pub fig2: fig2::Fig2,
    /// Figure 3.
    pub fig3: fig3::Fig3,
    /// Figure 4.
    pub fig4: fig4::Fig4,
    /// Figure 5.
    pub fig5: fig5::Fig5,
    /// Figure 6.
    pub fig6: fig6::Fig6,
    /// Figure 7.
    pub fig7: fig7::Fig7,
    /// Figure 8.
    pub fig8: fig8::Fig8,
    /// Figure 9.
    pub fig9: fig9::Fig9,
    /// Figure 10.
    pub fig10: fig10::Fig10,
    /// §IV-D cost estimates.
    pub cost: cost::CostReport,
    /// §IV research-question answers, incl. the RQ2 baseline comparison.
    pub rq: rq::RqAnswers,
    /// Sampled-tracing volume recovery (inactive for exact campaigns).
    #[serde(default)]
    pub sampling: sampling::SamplingReport,
    /// Socket-shape mix (inactive for legacy v4-plain campaigns).
    #[serde(default)]
    pub shapes: shapes::ShapeMix,
}

impl FullReport {
    /// Computes every aggregation over `analyses`.
    pub fn build(analyses: &[AppAnalysis]) -> Self {
        let headline = headline::compute(analyses);
        let fig5 = fig5::compute(analyses);
        let fig10 = fig10::compute(analyses);
        let rq = rq::compute(analyses, &headline, &fig5, &fig10);
        FullReport {
            headline,
            table1: table1::compute(analyses),
            fig2: fig2::compute(analyses),
            fig3: fig3::compute(analyses),
            fig4: fig4::compute(analyses),
            fig5,
            fig6: fig6::compute(analyses),
            fig7: fig7::compute(analyses),
            fig8: fig8::compute(analyses),
            fig9: fig9::compute(analyses),
            fig10,
            cost: cost::compute(analyses),
            rq,
            sampling: sampling::compute(analyses),
            shapes: shapes::compute(analyses),
        }
    }

    /// Renders the whole report as text.
    pub fn render(&self) -> String {
        render::render_full(self)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use libspector::coverage::CoverageReport;
    use libspector::pipeline::{AnalyzedFlow, AppAnalysis};
    use libspector::OriginKind;
    use spector_libradar::LibCategory;
    use spector_vtcat::DomainCategory;

    /// Builds an analyzed flow with the fields tests care about.
    pub fn flow(
        origin: Option<(&str, &str)>,
        lib_category: LibCategory,
        domain: &str,
        domain_category: DomainCategory,
        sent: u64,
        recv: u64,
    ) -> AnalyzedFlow {
        AnalyzedFlow {
            domain: Some(domain.to_owned()),
            domain_category,
            origin: match origin {
                Some((lib, two)) => OriginKind::Library {
                    origin_library: lib.to_owned(),
                    two_level: two.to_owned(),
                },
                None => OriginKind::Builtin,
            },
            lib_category,
            is_ant: matches!(
                lib_category,
                LibCategory::Advertisement | LibCategory::MobileAnalytics
            ),
            is_common: false,
            sent_bytes: sent,
            recv_bytes: recv,
            sent_payload: sent,
            recv_payload: recv,
            start_micros: 0,
            http_user_agent: None,
            family: Default::default(),
            shape: Default::default(),
            stream: None,
        }
    }

    /// Builds an app analysis around flows.
    pub fn app(package: &str, category: &str, flows: Vec<AnalyzedFlow>) -> AppAnalysis {
        AppAnalysis {
            package: package.to_owned(),
            app_category: category.to_owned(),
            flows,
            unattributed_flows: 0,
            reports_without_flow: 0,
            coverage: CoverageReport {
                total_methods: 1_000,
                executed_methods: 95,
                external_methods: 10,
            },
            dns_packets: 2,
            report_packets: 1,
            integrity: Default::default(),
            detect: Default::default(),
            sampling: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{app, flow};
    use super::*;
    use spector_libradar::LibCategory;
    use spector_vtcat::DomainCategory;

    #[test]
    fn origin_keys() {
        let lib = flow(
            Some(("com.unity3d.ads.cache", "com.unity3d")),
            LibCategory::Advertisement,
            "a.b",
            DomainCategory::Advertisements,
            10,
            100,
        );
        assert_eq!(origin_key(&lib), "com.unity3d.ads.cache");
        assert_eq!(two_level_key(&lib), "com.unity3d");
        let builtin = flow(
            None,
            LibCategory::Unknown,
            "c.d",
            DomainCategory::Advertisements,
            1,
            2,
        );
        assert_eq!(origin_key(&builtin), "*-advertisements");
        assert_eq!(two_level_key(&builtin), "*");
    }

    #[test]
    fn full_report_builds_on_synthetic_data() {
        let analyses = vec![
            app(
                "com.a",
                "GAME_ACTION",
                vec![flow(
                    Some(("com.unity3d.ads", "com.unity3d")),
                    LibCategory::Advertisement,
                    "ads.x",
                    DomainCategory::Advertisements,
                    100,
                    10_000,
                )],
            ),
            app("com.b", "TOOLS", vec![]),
        ];
        let report = FullReport::build(&analyses);
        assert_eq!(report.headline.apps, 2);
        let text = report.render();
        assert!(text.contains("Table I"));
        assert!(text.contains("Figure 9"));
    }
}
