//! Analyst-facing rendering of streaming ([`spector_live`]) summaries.
//!
//! The live engine's [`LiveSummary`] is raw counters; this module
//! turns it into the same terminal output `libspector query` prints —
//! the same totals line and the same volume-ranked top-N tables, from
//! [`crate::storeq`]'s renderer — so a campaign can be watched
//! mid-flight with the vocabulary of its stored query.

use spector_live::LiveSummary;

use crate::render::mb;
use crate::storeq::{render_top, render_totals, DEFAULT_TOP};

/// One-line progress view for periodic snapshots.
pub fn brief(summary: &LiveSummary) -> String {
    let total = summary.total_sent + summary.total_recv;
    let top = summary
        .per_library
        .iter()
        .max_by_key(|(_, volume)| volume.total_bytes())
        .map(|(label, volume)| format!("{label} {:.2} MB", mb(volume.total_bytes())))
        .unwrap_or_else(|| "no traffic yet".to_owned());
    format!(
        "{} flows, {:.2} MB ({:.2} MB AnT), {} pending, {} dropped | top: {}",
        summary.flows,
        mb(total),
        mb(summary.ant_bytes),
        summary.orphaned_reports,
        summary.dropped_events,
        top,
    )
}

/// Full report of a live summary: engine counters, then the totals
/// line and the per-origin-library and per-domain-category tables
/// exactly as `query` renders them, at its default of
/// [`DEFAULT_TOP`] rows.
pub fn render(summary: &LiveSummary) -> String {
    let mut out = String::new();
    out.push_str("== live attribution summary ==\n");
    out.push_str(&format!(
        "  events {}  dropped {}  flows {} (+{} unattributed)\n",
        summary.events, summary.dropped_events, summary.flows, summary.unattributed_flows,
    ));
    out.push_str(&format!(
        "  reports {} ({} orphaned, {} evicted)  dns {}\n",
        summary.report_packets,
        summary.orphaned_reports,
        summary.evicted_reports,
        summary.dns_packets,
    ));
    render_totals(&mut out, summary);
    render_top(
        &mut out,
        "per origin-library",
        &summary.per_library,
        DEFAULT_TOP,
    );
    render_top(
        &mut out,
        "per domain category",
        &summary.per_domain_category,
        DEFAULT_TOP,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> LiveSummary {
        let mut summary = LiveSummary {
            events: 100,
            flows: 3,
            total_sent: 1_048_576,
            total_recv: 3 * 1_048_576,
            ant_bytes: 2 * 1_048_576,
            ..Default::default()
        };
        summary
            .per_library
            .entry("com.ads.sdk".into())
            .or_default()
            .add_flow(1_048_576, 2 * 1_048_576);
        summary
            .per_library
            .entry("(builtin)".into())
            .or_default()
            .add_flow(0, 1_048_576);
        summary
            .per_domain_category
            .entry("Advertisement".into())
            .or_default()
            .add_flow(1_048_576, 3 * 1_048_576);
        summary
    }

    #[test]
    fn render_ranks_by_volume_and_reports_shares() {
        let text = render(&summary());
        let ads = text.find("com.ads.sdk").unwrap();
        let builtin = text.find("(builtin)").unwrap();
        assert!(ads < builtin, "larger bucket must rank first");
        assert!(text.contains("AnT 2.00 MB (50.0%)"));
        assert!(text.contains("Advertisement"));
    }

    #[test]
    fn brief_names_the_top_library() {
        let line = brief(&summary());
        assert!(line.contains("3 flows"));
        assert!(line.contains("top: com.ads.sdk"));
    }
}
