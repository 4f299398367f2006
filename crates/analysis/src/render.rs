//! Text rendering of evaluation results — the tables the CLI prints and
//! EXPERIMENTS.md embeds.

use std::fmt::Write as _;

use spector_libradar::LibCategory;
use spector_vtcat::DomainCategory;

use crate::FullReport;

const MB: f64 = 1_048_576.0;

pub(crate) fn mb(bytes: u64) -> f64 {
    bytes as f64 / MB
}

/// One independently renderable section of the full report — the unit
/// the golden-snapshot suite pins (`tests/golden_render.rs`, one file
/// per section under `tests/golden/`). Figures 4 and 5 share a section
/// because they have always rendered as one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// §IV-A headline statistics.
    Headline,
    /// Table I — domain-category tokenization counts.
    Table1,
    /// Figure 2 — traffic per app category.
    Fig2,
    /// Figure 3 — top origin-libraries and 2-level libraries.
    Fig3,
    /// Figures 4+5 — flow-size CDFs and transfer ratios.
    Fig4And5,
    /// Figure 6 — AnT vs common-library comparison.
    Fig6,
    /// Figure 7 — averages per library / domain category.
    Fig7,
    /// Figure 8 — average transfer per app category.
    Fig8,
    /// Figure 9 — library × domain category heatmap.
    Fig9,
    /// Figure 10 — method coverage distribution.
    Fig10,
    /// §IV-D monetary and energy cost.
    Cost,
    /// §IV research-question summaries.
    Rq,
}

impl Section {
    /// Every section, in the order [`render_full`] emits them.
    pub const ALL: [Section; 12] = [
        Section::Headline,
        Section::Table1,
        Section::Fig2,
        Section::Fig3,
        Section::Fig4And5,
        Section::Fig6,
        Section::Fig7,
        Section::Fig8,
        Section::Fig9,
        Section::Fig10,
        Section::Cost,
        Section::Rq,
    ];

    /// Stable file-name slug (`tests/golden/<slug>.txt`).
    pub fn slug(self) -> &'static str {
        match self {
            Section::Headline => "headline",
            Section::Table1 => "table1",
            Section::Fig2 => "fig2",
            Section::Fig3 => "fig3",
            Section::Fig4And5 => "fig4_5",
            Section::Fig6 => "fig6",
            Section::Fig7 => "fig7",
            Section::Fig8 => "fig8",
            Section::Fig9 => "fig9",
            Section::Fig10 => "fig10",
            Section::Cost => "cost",
            Section::Rq => "rq",
        }
    }
}

/// Renders one section exactly as [`render_full`] would emit it.
pub fn render_section(report: &FullReport, section: Section) -> String {
    let mut out = String::new();
    match section {
        Section::Headline => render_headline(&mut out, report),
        Section::Table1 => render_table1(&mut out, report),
        Section::Fig2 => render_fig2(&mut out, report),
        Section::Fig3 => render_fig3(&mut out, report),
        Section::Fig4And5 => render_fig4_5(&mut out, report),
        Section::Fig6 => render_fig6(&mut out, report),
        Section::Fig7 => render_fig7(&mut out, report),
        Section::Fig8 => render_fig8(&mut out, report),
        Section::Fig9 => render_fig9(&mut out, report),
        Section::Fig10 => render_fig10(&mut out, report),
        Section::Cost => render_cost(&mut out, report),
        Section::Rq => out.push_str(&crate::rq::render(&report.rq)),
    }
    out
}

/// Renders the complete report. The sampled-tracing recovery section
/// is appended after the pinned sections, and only for campaigns that
/// shipped sampling ledgers — exact reports stay byte-identical to
/// what this function has always produced.
pub fn render_full(report: &FullReport) -> String {
    let mut out = String::new();
    for section in Section::ALL {
        out.push_str(&render_section(report, section));
    }
    if report.shapes.active {
        out.push_str(&render_shape_mix(report));
    }
    if report.sampling.active {
        render_sampling(&mut out, report);
    }
    out
}

/// The socket-shape mix section: family split, framing shapes, and the
/// streams-per-connection histogram. Like the sampling section, it is
/// deliberately not a [`Section`] variant — `Section::ALL` is pinned
/// by the golden suite and legacy campaigns never render this block.
/// Mixed campaigns pin it through `tests/golden/shape_mix.txt`.
pub fn render_shape_mix(report: &FullReport) -> String {
    let s = &report.shapes;
    let mut out = String::new();
    let _ = writeln!(out, "== Socket shapes: family and stream mix ==");
    let _ = writeln!(
        out,
        "  family: v4 {} flows ({:.3} MB) | v6 {} flows ({:.3} MB)",
        s.v4_flows,
        mb(s.v4_bytes),
        s.v6_flows,
        mb(s.v6_bytes)
    );
    let _ = writeln!(
        out,
        "  shape: plain {} | tls-like {} (sni-attributed {}) | connect-proxy {}",
        s.plain_flows, s.tls_flows, s.sni_attributed, s.proxy_flows
    );
    let h = s.stream_histogram();
    let _ = writeln!(
        out,
        "  streams/connection: 1={} 2={} 3={} 4+={} | pooled connections {}",
        h[0], h[1], h[2], h[3], s.pooled_connections
    );
    out
}

/// The sampled-tracing recovery section. Deliberately not a
/// [`Section`] variant: `Section::ALL` is pinned by the golden suite
/// and this section has no exact-campaign rendering.
fn render_sampling(out: &mut String, report: &FullReport) {
    let s = &report.sampling;
    let l = &s.ledger;
    let _ = writeln!(out, "== Sampled tracing: volume recovery ==");
    let _ = writeln!(
        out,
        "  ledger: observed {} | emitted {} | sampled-out {} | budget-suppressed {} | windows-exhausted {} | ledgers-lost {}",
        l.reports_observed,
        l.reports_emitted,
        l.sampled_out,
        l.budget_suppressed,
        l.windows_exhausted,
        l.ledgers_lost
    );
    let _ = writeln!(out, "  mean inclusion p = {:.4}", s.mean_inclusion);
    let fmt = |est: &crate::sampling::VolumeEstimate| {
        format!(
            "{:>9.3} -> {:>9.3} ± {:>7.3} MB",
            mb(est.observed_bytes),
            est.estimated_bytes / MB,
            est.ci95 / MB
        )
    };
    let _ = writeln!(out, "  per-library estimates (observed -> estimated):");
    for (name, est) in s.per_library.iter().take(15) {
        let _ = writeln!(out, "    {name:<44} {}", fmt(est));
    }
    let _ = writeln!(out, "  per-domain-category estimates:");
    for (name, est) in s.per_domain_category.iter().take(15) {
        let _ = writeln!(out, "    {name:<44} {}", fmt(est));
    }
    let _ = writeln!(out, "  {:<44} {}", "total", fmt(&s.total));
    let _ = writeln!(out);
}

fn render_headline(out: &mut String, report: &FullReport) {
    let h = &report.headline;
    let _ = writeln!(out, "== Headline (§IV-A) ==");
    let _ = writeln!(
        out,
        "apps {} | total {:.2} MB (recv {:.2} / sent {:.2}) | flows {} | origin-libraries {} | domains {}",
        h.apps,
        mb(h.total_bytes),
        mb(h.recv_bytes),
        mb(h.sent_bytes),
        h.flows,
        h.origin_libraries,
        h.domains
    );
    let _ = writeln!(out, "library-category shares of total traffic:");
    for (label, share) in &h.category_share_percent {
        let _ = writeln!(out, "  {label:<22} {share:6.2}%");
    }
    let _ = writeln!(out);
}

fn render_table1(out: &mut String, report: &FullReport) {
    let _ = writeln!(out, "== Table I: domain categories ==");
    let _ = writeln!(out, "{:<22} {:>8}", "generic category", "domains");
    for category in DomainCategory::ALL {
        let count = report.table1.count(category);
        if count > 0 {
            let _ = writeln!(out, "{:<22} {:>8}", category.label(), count);
        }
    }
    let _ = writeln!(out, "{:<22} {:>8}", "total", report.table1.total);
    let _ = writeln!(out);
}

fn render_fig2(out: &mut String, report: &FullReport) {
    let _ = writeln!(out, "== Figure 2: traffic per app category (top 12) ==");
    for category in report.fig2.category_order.iter().take(12) {
        let _ = writeln!(
            out,
            "  {category:<22} {:>10.2} MB",
            mb(report.fig2.category_total(category))
        );
    }
    let _ = writeln!(out);
}

fn render_fig3(out: &mut String, report: &FullReport) {
    let _ = writeln!(out, "== Figure 3: top origin-libraries ==");
    for (name, bytes) in report.fig3.top_origin_libraries.iter().take(15) {
        let _ = writeln!(out, "  {name:<48} {:>10.2} MB", mb(*bytes));
    }
    let _ = writeln!(out, "-- top 2-level libraries --");
    for (name, bytes) in report.fig3.top_two_level.iter().take(15) {
        let _ = writeln!(out, "  {name:<48} {:>10.2} MB", mb(*bytes));
    }
    let _ = writeln!(
        out,
        "mean per 2-level library {:.2} MB; top-25 share {:.1}%",
        report.fig3.mean_two_level_bytes / MB,
        report.fig3.top25_two_level_share * 100.0
    );
    let _ = writeln!(out);
}

fn render_fig4_5(out: &mut String, report: &FullReport) {
    let _ = writeln!(out, "== Figures 4+5: flow sizes and ratios ==");
    let quartiles = |cdf: &crate::stats::Cdf| -> String {
        if cdf.is_empty() {
            "(empty)".to_owned()
        } else {
            format!(
                "p25 {:.0} p50 {:.0} p90 {:.0} p99 {:.0}",
                cdf.quantile(0.25),
                cdf.quantile(0.50),
                cdf.quantile(0.90),
                cdf.quantile(0.99)
            )
        }
    };
    let f4 = &report.fig4;
    let _ = writeln!(out, "  app sent bytes: {}", quartiles(&f4.app_sent));
    let _ = writeln!(out, "  app recv bytes: {}", quartiles(&f4.app_recv));
    let _ = writeln!(out, "  lib recv bytes: {}", quartiles(&f4.lib_recv));
    let _ = writeln!(out, "  dns recv bytes: {}", quartiles(&f4.dns_recv));
    let f5 = &report.fig5;
    let _ = writeln!(
        out,
        "  recv/sent ratio means: apps {:.1} | libs {:.1} | domains {:.1} | top-decile libs {:.1}",
        f5.app_mean, f5.lib_mean, f5.dns_mean, f5.top_decile_lib_mean
    );
    let _ = writeln!(out);
}

fn render_fig6(out: &mut String, report: &FullReport) {
    let f = &report.fig6;
    let _ = writeln!(out, "== Figure 6: AnT vs common libraries ==");
    let _ = writeln!(
        out,
        "  AnT-only apps {:.1}% | some-AnT {:.1}% | AnT-free {:.1}%",
        f.ant_only_fraction * 100.0,
        f.some_ant_fraction * 100.0,
        f.ant_free_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  recv/sent: AnT {:.1} vs common libraries {:.1}",
        f.ant_recv_sent_ratio, f.common_recv_sent_ratio
    );
    let _ = writeln!(out);
}

fn render_fig7(out: &mut String, report: &FullReport) {
    let _ = writeln!(out, "== Figure 7: averages per category ==");
    let _ = writeln!(out, "  per library (MB/lib):");
    for (label, (_, count, avg)) in &report.fig7.per_lib_category {
        let _ = writeln!(
            out,
            "    {label:<22} {:>8.3} MB over {count} libs",
            avg / MB
        );
    }
    let _ = writeln!(out, "  per domain (MB/domain):");
    for (label, (_, count, avg)) in &report.fig7.per_domain_category {
        let _ = writeln!(
            out,
            "    {label:<22} {:>8.3} MB over {count} domains",
            avg / MB
        );
    }
    let _ = writeln!(out);
}

fn render_fig8(out: &mut String, report: &FullReport) {
    let _ = writeln!(
        out,
        "== Figure 8: average transfer per app category (top 12) =="
    );
    for category in report.fig8.order.iter().take(12) {
        let (apps, _, avg) = report.fig8.per_category[category];
        let _ = writeln!(
            out,
            "  {category:<22} {:>8.3} MB/app over {apps} apps",
            avg / MB
        );
    }
    let _ = writeln!(out);
}

fn render_fig9(out: &mut String, report: &FullReport) {
    let _ = writeln!(out, "== Figure 9: library × domain categories (MB) ==");
    // Header: abbreviated library categories.
    let _ = write!(out, "{:<22}", "");
    for lib in LibCategory::ALL {
        let _ = write!(out, "{:>8}", abbreviate(lib.label()));
    }
    let _ = writeln!(out);
    for domain in DomainCategory::ALL {
        if report.fig9.domain_total(domain) == 0 {
            continue;
        }
        let _ = write!(out, "{:<22}", domain.label());
        for lib in LibCategory::ALL {
            let _ = write!(out, "{:>8.1}", mb(report.fig9.cell(domain, lib)));
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
}

fn render_fig10(out: &mut String, report: &FullReport) {
    let f = &report.fig10;
    let _ = writeln!(out, "== Figure 10: method coverage ==");
    let _ = writeln!(
        out,
        "  mean coverage {:.2}% ({:.1}% of apps above mean); mean methods/apk {:.0} ({:.1}% above)",
        f.mean_coverage_percent,
        f.above_mean_fraction * 100.0,
        f.mean_methods,
        f.above_mean_methods_fraction * 100.0
    );
    let _ = writeln!(out);
}

fn render_cost(out: &mut String, report: &FullReport) {
    let _ = writeln!(out, "== Cost to users (§IV-D) ==");
    for (label, usd) in &report.cost.hourly_usd {
        let session = report
            .cost
            .avg_session_bytes
            .get(label)
            .copied()
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  {label:<22} {:>7.3} MB/session  ${usd:>6.3}/hour",
            session / MB
        );
    }
    let _ = writeln!(
        out,
        "  advertisement energy: {:.0} J (≈{:.1}% of an 11.55 Wh battery)",
        report.cost.ad_joules,
        report.cost.ad_battery_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  per-origin-library granularity (the paper's §IV-D averaging):"
    );
    for (label, usd) in &report.cost.hourly_usd_per_library {
        let per_lib = report
            .cost
            .per_library_bytes
            .get(label)
            .copied()
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "    {label:<22} {:>7.3} MB/library  ${usd:>6.3}/hour",
            per_lib / MB
        );
    }
    out.push('\n');
}

fn abbreviate(label: &str) -> String {
    let mut out: String = label
        .split([' ', '/'])
        .filter(|w| !w.is_empty())
        .map(|w| &w[..w.len().min(3)])
        .collect();
    out.truncate(7);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{app, flow};
    use spector_libradar::LibCategory;
    use spector_vtcat::DomainCategory;

    #[test]
    fn renders_all_sections() {
        let analyses = vec![app(
            "com.a",
            "GAME_ACTION",
            vec![flow(
                Some(("com.unity3d.ads", "com.unity3d")),
                LibCategory::Advertisement,
                "ads.host",
                DomainCategory::Advertisements,
                500,
                50_000,
            )],
        )];
        let report = FullReport::build(&analyses);
        let text = render_full(&report);
        for needle in [
            "Headline",
            "Table I",
            "Figure 2",
            "Figure 3",
            "Figures 4+5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Cost to users",
            "com.unity3d.ads",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn abbreviation_is_short() {
        assert!(abbreviate("Development Framework").len() <= 7);
        assert_eq!(abbreviate("Map/LBS"), "MapLBS");
    }
}
