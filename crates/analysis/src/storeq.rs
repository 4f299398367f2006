//! Store-backed analytics: the historical query engine behind
//! `libspector query`.
//!
//! Two paths out of a [`StoreReader`]:
//!
//! * [`report_from_store`] — materializes one campaign's analyses in
//!   corpus order and builds the ordinary [`FullReport`]; its
//!   `render()` is **byte-identical** to the in-memory report the
//!   campaign printed when it ran (the golden `query_report` test and
//!   the CI round-trip job hold this line).
//! * [`compute`]/[`render`] — columnar aggregation over arbitrary
//!   campaign sets, straight off the segment columns without
//!   materializing `AppAnalysis` structs. The traffic totals and the
//!   per-library and per-domain-category volumes are the live engine's
//!   own fold, [`LiveSummary::add_flow`], over the borrowed
//!   [`FlowRow`](libspector::FlowRow)s the columns decode to, so
//!   [`QueryStats::summary`] equals `LiveSummary::from_analyses` of the
//!   stored analyses. The scan adds per-domain and per-library-category
//!   volumes, top-N tables, and flow-size CDFs — EXPERIMENTS.md
//!   figures computed *from the store*. `libspector live` prints its
//!   totals line and volume tables through the same renderer.

use std::collections::BTreeMap;

use spector_live::{LiveSummary, Volume};
use spector_store::{StoreIntegrity, StoreReader};

use crate::render::mb;
use crate::stats::Cdf;
use crate::FullReport;

/// Rows per volume table unless `query --top N` says otherwise; the
/// `live` summary always prints this many.
pub const DEFAULT_TOP: usize = 20;

/// Everything one columnar scan aggregates.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Campaign ids covered by the scan, ascending.
    pub campaigns: Vec<u32>,
    /// Analysis records scanned.
    pub apps: u64,
    /// Report records scanned.
    pub reports: u64,
    /// The traffic fold of the scanned analysis and flow rows: flow,
    /// byte and AnT totals, per-library and per-domain-category
    /// volumes, and the runs' join, integrity and sampling counters.
    pub summary: LiveSummary,
    /// Per destination-domain volumes (unresolved under `(none)`).
    pub per_domain: BTreeMap<String, Volume>,
    /// Per library-category volumes, keyed by label.
    pub per_lib_category: BTreeMap<String, Volume>,
    /// Flow-size CDF (total wire bytes per flow).
    pub flow_bytes: Cdf,
    /// Per-app coverage CDF (percent).
    pub coverage_percent: Cdf,
    /// What the reader found when opening the store.
    pub integrity: StoreIntegrity,
}

/// Label for flows whose DNS name never resolved.
pub const NO_DOMAIN_LABEL: &str = "(none)";

/// Scans the store's columns over `campaigns` (`None` = all) and
/// aggregates every table the query report renders. No `AppAnalysis`
/// is materialized — this is the zero-copy path.
pub fn compute(reader: &StoreReader, campaigns: Option<&[u32]>) -> QueryStats {
    let mut stats = QueryStats {
        integrity: reader.integrity().clone(),
        ..QueryStats::default()
    };
    let mut flow_bytes = Vec::new();
    let mut coverage = Vec::new();
    for view in reader.views(campaigns) {
        if !stats.campaigns.contains(&view.campaign) {
            stats.campaigns.push(view.campaign);
        }
        let (analyses, _, reports) = view.counts();
        stats.apps += analyses as u64;
        stats.reports += reports as u64;
        for row in view.analyses() {
            let percent = if row.coverage[0] == 0 {
                0.0
            } else {
                row.coverage[1] as f64 * 100.0 / row.coverage[0] as f64
            };
            coverage.push(percent);
            // The per-run counters `LiveSummary::from_analyses` reads.
            stats.summary.merge(&LiveSummary {
                unattributed_flows: row.unattributed_flows as usize,
                orphaned_reports: row.reports_without_flow as usize,
                dns_packets: row.dns_packets as usize,
                report_packets: row.report_packets as usize,
                integrity: row.integrity,
                sampling: row.sampling,
                ..LiveSummary::default()
            });
        }
        for (_, flow) in view.flows() {
            stats.summary.add_flow(flow);
            let domain = flow.domain.unwrap_or(NO_DOMAIN_LABEL);
            Volume::add_to_bucket(&mut stats.per_domain, domain, &flow);
            Volume::add_to_bucket(
                &mut stats.per_lib_category,
                flow.lib_category.label(),
                &flow,
            );
            flow_bytes.push(flow.total_bytes() as f64);
        }
    }
    stats.campaigns.sort_unstable();
    stats.flow_bytes = Cdf::from_samples(flow_bytes);
    stats.coverage_percent = Cdf::from_samples(coverage);
    stats
}

/// Builds the standard campaign report from stored records. The
/// reader returns analyses in `(campaign, app_index)` order — corpus
/// order — so the result renders byte-identically to the in-memory
/// `FullReport` the campaign built when it ran.
pub fn report_from_store(reader: &StoreReader, campaign: u32) -> FullReport {
    FullReport::build(&reader.campaign_analyses(campaign))
}

/// The sent/recv/AnT totals line of a traffic summary, then a blank
/// line.
pub(crate) fn render_totals(out: &mut String, summary: &LiveSummary) {
    let total = summary.total_sent + summary.total_recv;
    out.push_str(&format!(
        "  sent {:.2} MB  recv {:.2} MB  AnT {:.2} MB ({:.1}%)\n\n",
        mb(summary.total_sent),
        mb(summary.total_recv),
        mb(summary.ant_bytes),
        if total > 0 {
            summary.ant_bytes as f64 * 100.0 / total as f64
        } else {
            0.0
        }
    ));
}

/// One volume table: the `top` largest buckets by total bytes (ties by
/// label), then the count and volume of the rest.
pub(crate) fn render_top(
    out: &mut String,
    title: &str,
    map: &BTreeMap<String, Volume>,
    top: usize,
) {
    out.push_str(&format!("== {title} (top {top} by volume) ==\n"));
    let mut rows: Vec<(&String, &Volume)> = map.iter().collect();
    rows.sort_by(|a, b| b.1.total_bytes().cmp(&a.1.total_bytes()).then(a.0.cmp(b.0)));
    out.push_str(&format!(
        "  {:<44} {:>8} {:>12} {:>12}\n",
        "bucket", "flows", "sent MB", "recv MB"
    ));
    for (label, volume) in rows.iter().take(top) {
        out.push_str(&format!(
            "  {:<44} {:>8} {:>12.3} {:>12.3}\n",
            label,
            volume.flows,
            mb(volume.sent_bytes),
            mb(volume.recv_bytes)
        ));
    }
    if rows.len() > top {
        let rest: u64 = rows.iter().skip(top).map(|(_, v)| v.total_bytes()).sum();
        out.push_str(&format!(
            "  ({} more buckets, {:.3} MB)\n",
            rows.len() - top,
            mb(rest)
        ));
    }
    out.push('\n');
}

fn render_cdf(out: &mut String, title: &str, cdf: &Cdf, unit: &str) {
    out.push_str(&format!("== {title} ==\n"));
    if cdf.is_empty() {
        out.push_str("  (no samples)\n\n");
        return;
    }
    out.push_str(&format!(
        "  n {}  mean {:.2} {unit}\n",
        cdf.len(),
        cdf.mean()
    ));
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        out.push_str(&format!(
            "  p{:<4} {:>14.2} {unit}\n",
            (q * 100.0) as u32,
            cdf.quantile(q)
        ));
    }
    out.push('\n');
}

/// Renders the full historical query report.
pub fn render(stats: &QueryStats, top: usize) -> String {
    let mut out = String::new();
    out.push_str("== store query ==\n");
    let campaigns: Vec<String> = stats.campaigns.iter().map(u32::to_string).collect();
    out.push_str(&format!(
        "  campaigns {} ({})  apps {}  flows {}  reports {}\n",
        stats.campaigns.len(),
        if campaigns.is_empty() {
            "-".to_owned()
        } else {
            campaigns.join(",")
        },
        stats.apps,
        stats.summary.flows,
        stats.reports
    ));
    out.push_str(&format!(
        "  segments ok {}  rejected {}  orphaned {}  unsealed campaigns {}\n",
        stats.integrity.segments_ok,
        stats.integrity.rejected.len(),
        stats.integrity.orphaned_segments,
        stats.integrity.unsealed_campaigns
    ));
    for (file, kind) in &stats.integrity.rejected {
        out.push_str(&format!("    rejected {file}: {}\n", kind.label()));
    }
    let summary = &stats.summary;
    render_totals(&mut out, summary);
    render_top(&mut out, "per origin-library", &summary.per_library, top);
    render_top(&mut out, "per domain", &stats.per_domain, top);
    render_top(
        &mut out,
        "per domain category",
        &summary.per_domain_category,
        top,
    );
    render_top(
        &mut out,
        "per library category",
        &stats.per_lib_category,
        top,
    );
    render_cdf(&mut out, "flow size CDF", &stats.flow_bytes, "bytes");
    render_cdf(
        &mut out,
        "per-app coverage CDF",
        &stats.coverage_percent,
        "%",
    );
    out
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use libspector::{
        AnalyzedFlow, AppAnalysis, CoverageReport, FlowShape, IpFamily, OriginKind, RunIntegrity,
        BUILTIN_ORIGIN_LABEL,
    };
    use spector_libradar::LibCategory;
    use spector_sampling::SamplingLedger;
    use spector_store::{
        CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreWriter,
    };
    use spector_vtcat::DomainCategory;

    use super::*;

    fn flow(origin: Option<&str>, domain: Option<&str>, sent: u64, recv: u64) -> AnalyzedFlow {
        AnalyzedFlow {
            domain: domain.map(str::to_owned),
            domain_category: DomainCategory::Advertisements,
            origin: match origin {
                Some(lib) => OriginKind::Library {
                    origin_library: lib.to_owned(),
                    two_level: lib.split('.').take(2).collect::<Vec<_>>().join("."),
                },
                None => OriginKind::Builtin,
            },
            lib_category: LibCategory::Advertisement,
            is_ant: origin.is_some(),
            is_common: false,
            sent_bytes: sent,
            recv_bytes: recv,
            sent_payload: sent.saturating_sub(40),
            recv_payload: recv.saturating_sub(40),
            start_micros: 1_000,
            http_user_agent: None,
            family: Default::default(),
            shape: Default::default(),
            stream: None,
        }
    }

    fn app(package: &str, flows: Vec<AnalyzedFlow>) -> AppAnalysis {
        AppAnalysis {
            package: package.to_owned(),
            app_category: "TOOLS".to_owned(),
            flows,
            unattributed_flows: 0,
            reports_without_flow: 0,
            coverage: CoverageReport {
                total_methods: 100,
                executed_methods: 40,
                external_methods: 5,
            },
            dns_packets: 0,
            report_packets: 0,
            integrity: Default::default(),
            detect: Default::default(),
            sampling: Default::default(),
        }
    }

    /// Writes `analyses` as one sealed campaign of a fresh store under
    /// the temp dir and returns its directory.
    fn store_of(tag: &str, analyses: &[AppAnalysis]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spector-storeq-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = CampaignMeta {
            seed: 3,
            apps: analyses.len(),
            monkey_events: 5,
            kind: CampaignKind::Run,
        };
        let options = StoreOptions {
            seal_every: 2,
            ..StoreOptions::default()
        };
        let mut writer = StoreWriter::create(&dir, &meta, options).unwrap();
        for (i, analysis) in analyses.iter().enumerate() {
            writer.append_analysis(i as u32, analysis).unwrap();
        }
        writer
            .finish(&CampaignSealRecord {
                seed: 3,
                apps: analyses.len(),
                monkey_events: 5,
                failures: vec![],
            })
            .unwrap();
        dir
    }

    fn open(dir: &Path) -> StoreReader {
        StoreReader::open(dir).unwrap()
    }

    #[test]
    fn columnar_scan_matches_materialized_report_and_renders() {
        let analyses = vec![
            app(
                "com.a",
                vec![
                    flow(Some("com.ads.sdk"), Some("ads.example.com"), 1_000, 9_000),
                    flow(None, None, 500, 700),
                ],
            ),
            app("com.b", vec![flow(Some("com.ads.sdk"), None, 10, 20)]),
        ];
        let dir = store_of("render", &analyses);
        let reader = open(&dir);
        // Byte-identity of the standard report path.
        let stored = report_from_store(&reader, 0).render();
        let in_memory = FullReport::build(&analyses).render();
        assert_eq!(stored, in_memory);

        // Columnar aggregation agrees with a straight fold.
        let stats = compute(&reader, None);
        assert_eq!(stats.apps, 2);
        assert_eq!(stats.summary.flows, 3);
        assert_eq!(stats.summary.total_sent, 1_510);
        assert_eq!(stats.summary.total_recv, 9_720);
        assert_eq!(stats.summary.ant_bytes, 1_000 + 9_000 + 10 + 20);
        assert_eq!(stats.summary.per_library["com.ads.sdk"].flows, 2);
        assert_eq!(stats.summary.per_library[BUILTIN_ORIGIN_LABEL].flows, 1);
        assert_eq!(stats.per_domain[NO_DOMAIN_LABEL].flows, 2);
        let rendered = render(&stats, 5);
        assert!(rendered.contains("== store query =="));
        assert!(rendered.contains("com.ads.sdk"));
        assert!(rendered.contains("flow size CDF"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scan's summary is the live fold of the stored analyses, as a
    /// whole struct, on rows that exercise every counter of the fold:
    /// v6, TLS-like, proxied and pooled flows, several domain
    /// categories, and non-zero join, integrity and sampling ledgers.
    #[test]
    fn summary_equals_the_live_fold_of_the_stored_analyses() {
        let mut v6 = flow(Some("com.ads.sdk"), Some("v6.example.net"), 300, 4_000);
        v6.family = IpFamily::V6;
        v6.domain_category = DomainCategory::Cdn;
        let mut tls = flow(Some("com.track.kit"), Some("t.example.org"), 900, 2_500);
        tls.shape = FlowShape::TlsLike;
        tls.domain_category = DomainCategory::Analytics;
        tls.is_ant = false;
        let mut proxied = flow(None, Some("proxy.example.com"), 120, 80);
        proxied.shape = FlowShape::ConnectProxy;
        let pooled: Vec<AnalyzedFlow> = (0..3)
            .map(|k| {
                let mut stream = flow(Some("com.ads.sdk"), Some("ads.example.com"), 50, 700);
                stream.stream = Some(k);
                stream
            })
            .collect();
        let mut first = app("com.a", vec![v6, tls, proxied]);
        first.unattributed_flows = 2;
        first.reports_without_flow = 1;
        first.dns_packets = 6;
        first.report_packets = 4;
        first.integrity = RunIntegrity {
            frames_truncated: 1,
            frames_malformed: 2,
            frames_bad_checksum: 3,
            reports_truncated: 4,
            reports_malformed: 5,
            synthesized_flows: 6,
        };
        let mut second = app("com.b", pooled);
        second.dns_packets = 2;
        second.report_packets = 3;
        second.sampling = SamplingLedger {
            reports_observed: 10,
            reports_emitted: 6,
            sampled_out: 3,
            budget_suppressed: 1,
            windows_exhausted: 1,
            ledgers_lost: 0,
        };
        let third = app("com.c", vec![flow(None, None, 5, 5)]);
        let analyses = vec![first, second, third];

        let dir = store_of("fold", &analyses);
        let stats = compute(&open(&dir), None);
        let expected = LiveSummary::from_analyses(&analyses);
        assert_eq!(stats.summary, expected);
        assert_eq!(
            (
                expected.flows_v6,
                expected.flows_tls,
                expected.flows_proxied,
                expected.pooled_streams
            ),
            (1, 1, 1, 3),
            "the fixture must exercise every shape counter"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
