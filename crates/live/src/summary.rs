//! What the live engine reports: mergeable traffic counters.
//!
//! [`LiveSummary`] is the snapshot type and the one per-flow traffic
//! fold: [`add_flow`](LiveSummary::add_flow) reads a borrowed
//! [`FlowRow`], so the shards fold the rows their joiners emit, the
//! offline side folds [`AppAnalysis::flows`], and the store query
//! (`spector-analysis`'s `storeq`) folds flow rows straight off the
//! segment columns, all through it. Per-shard partial summaries
//! [`merge`](LiveSummary::merge) associatively into the engine-wide
//! view. Live/offline equivalence is one whole-struct equality:
//! `live.offline_view() == LiveSummary::from_analyses(&analyses)`
//! (asserted by `tests/live_equivalence.rs`).

use std::collections::BTreeMap;

use libspector::{AppAnalysis, FlowRow, FlowShape, IpFamily, RunIntegrity};
use serde::{Deserialize, Serialize};
use spector_sampling::SamplingLedger;

/// Flow count plus per-direction wire bytes for one accounting bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Volume {
    /// Attributed stream epochs in this bucket.
    pub flows: usize,
    /// Wire bytes sent by the app (initiator → responder).
    pub sent_bytes: u64,
    /// Wire bytes received by the app.
    pub recv_bytes: u64,
}

impl Volume {
    /// Adds one flow's volumes.
    pub fn add_flow(&mut self, sent_bytes: u64, recv_bytes: u64) {
        self.flows += 1;
        self.sent_bytes += sent_bytes;
        self.recv_bytes += recv_bytes;
    }

    /// Total wire bytes, both directions.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes + self.recv_bytes
    }

    /// Adds `flow` to the bucket `label` of `map`; the key is allocated
    /// only for the bucket's first flow.
    pub fn add_to_bucket(map: &mut BTreeMap<String, Volume>, label: &str, flow: &FlowRow<'_>) {
        let volume = match map.get_mut(label) {
            Some(volume) => volume,
            None => map.entry(label.to_owned()).or_default(),
        };
        volume.add_flow(flow.sent_bytes, flow.recv_bytes);
    }

    fn merge(&mut self, other: &Volume) {
        self.flows += other.flows;
        self.sent_bytes += other.sent_bytes;
        self.recv_bytes += other.recv_bytes;
    }

    /// Adds every bucket of `from` to the same bucket of `into`; a key
    /// is allocated only for a bucket `into` does not have yet.
    fn merge_buckets(into: &mut BTreeMap<String, Volume>, from: &BTreeMap<String, Volume>) {
        for (label, volume) in from {
            match into.get_mut(label) {
                Some(bucket) => bucket.merge(volume),
                None => {
                    into.insert(label.clone(), *volume);
                }
            }
        }
    }
}

/// A point-in-time view of everything the engine has attributed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LiveSummary {
    /// Raw frames accepted at ingress (counted by the producer's
    /// batcher, before sharding; a broadcast DNS frame counts once, and
    /// frames count whether or not their shard-local decode succeeds —
    /// failures show up in the error ledger below).
    pub events: u64,
    /// Events dropped by the backpressure policy — always counted,
    /// never silent. Zero under [`OverflowPolicy::Block`].
    ///
    /// [`OverflowPolicy::Block`]: crate::OverflowPolicy::Block
    pub dropped_events: u64,
    /// Attributed stream epochs (one per claimed flow).
    pub flows: usize,
    /// Stream epochs with no claiming report (yet).
    pub unattributed_flows: usize,
    /// Reports still waiting for their flow's packets.
    pub orphaned_reports: usize,
    /// Pending reports evicted by TTL.
    pub evicted_reports: usize,
    /// DNS datagrams observed.
    pub dns_packets: usize,
    /// Valid supervisor report datagrams observed.
    pub report_packets: usize,
    /// Degraded-mode accounting: frames and collector payloads the
    /// shard-local steps rejected, by class, and stream epochs opened
    /// without a SYN — the offline pipeline's [`RunIntegrity`], built
    /// by the same constructor.
    #[serde(default)]
    pub integrity: RunIntegrity,
    /// Sampled-tracing accounting, summed over decoded ledger
    /// datagrams (all-zero when every run was exact).
    #[serde(default)]
    pub sampling: SamplingLedger,
    /// Total wire bytes sent across attributed flows.
    pub total_sent: u64,
    /// Total wire bytes received across attributed flows.
    pub total_recv: u64,
    /// Wire bytes attributed to AnT origins.
    pub ant_bytes: u64,
    /// Attributed flow rows over genuinely-IPv6 canonical 4-tuples.
    #[serde(default)]
    pub flows_v6: usize,
    /// Attributed flow rows whose visible shape is TLS-like.
    #[serde(default)]
    pub flows_tls: usize,
    /// Attributed flow rows tunneled through a CONNECT-style proxy.
    #[serde(default)]
    pub flows_proxied: usize,
    /// Per-stream rows from reused (keep-alive) connections.
    #[serde(default)]
    pub pooled_streams: usize,
    /// Traffic per origin-library label ([`FlowRow::origin_label`]).
    pub per_library: BTreeMap<String, Volume>,
    /// Traffic per destination-domain category, keyed by the category's
    /// snake_case label (`DomainCategory::label`).
    pub per_domain_category: BTreeMap<String, Volume>,
}

impl LiveSummary {
    /// Reports that never joined a flow: the streaming counterpart of
    /// the offline join's `reports_without_flow`. For an in-order
    /// replay of a finished capture the two are equal.
    pub fn unjoined_reports(&self) -> usize {
        self.orphaned_reports + self.evicted_reports
    }

    /// Folds another (typically per-shard partial) summary into this
    /// one. Field-wise addition; map buckets merge by key.
    pub fn merge(&mut self, other: &LiveSummary) {
        self.events += other.events;
        self.dropped_events += other.dropped_events;
        self.flows += other.flows;
        self.unattributed_flows += other.unattributed_flows;
        self.orphaned_reports += other.orphaned_reports;
        self.evicted_reports += other.evicted_reports;
        self.dns_packets += other.dns_packets;
        self.report_packets += other.report_packets;
        self.integrity.merge(&other.integrity);
        self.sampling.merge(&other.sampling);
        self.total_sent += other.total_sent;
        self.total_recv += other.total_recv;
        self.ant_bytes += other.ant_bytes;
        self.flows_v6 += other.flows_v6;
        self.flows_tls += other.flows_tls;
        self.flows_proxied += other.flows_proxied;
        self.pooled_streams += other.pooled_streams;
        Volume::merge_buckets(&mut self.per_library, &other.per_library);
        Volume::merge_buckets(&mut self.per_domain_category, &other.per_domain_category);
    }

    /// Folds one attributed flow row into the summary: the only place a
    /// flow reaches the flow, byte and AnT totals, the shape counters
    /// and the per-library and per-domain-category maps.
    pub fn add_flow(&mut self, flow: FlowRow<'_>) {
        self.flows += 1;
        self.total_sent += flow.sent_bytes;
        self.total_recv += flow.recv_bytes;
        if flow.is_ant {
            self.ant_bytes += flow.total_bytes();
        }
        if flow.family == IpFamily::V6 {
            self.flows_v6 += 1;
        }
        match flow.shape {
            FlowShape::TlsLike => self.flows_tls += 1,
            FlowShape::ConnectProxy => self.flows_proxied += 1,
            FlowShape::Plain => {}
        }
        if flow.stream.is_some() {
            self.pooled_streams += 1;
        }
        Volume::add_to_bucket(&mut self.per_library, flow.origin_label(), &flow);
        Volume::add_to_bucket(
            &mut self.per_domain_category,
            flow.domain_category.label(),
            &flow,
        );
    }

    /// Folds offline per-app analyses into the live summary shape — the
    /// reference side of the equivalence guarantee. Offline joins never
    /// evict, so the whole `reports_without_flow` count lands in
    /// `orphaned_reports`, and the streaming-only counters (`events`,
    /// `dropped_events`) are zero.
    pub fn from_analyses<'a>(analyses: impl IntoIterator<Item = &'a AppAnalysis>) -> LiveSummary {
        let mut summary = LiveSummary::default();
        for analysis in analyses {
            summary.unattributed_flows += analysis.unattributed_flows;
            summary.orphaned_reports += analysis.reports_without_flow;
            summary.dns_packets += analysis.dns_packets;
            summary.report_packets += analysis.report_packets;
            summary.integrity.merge(&analysis.integrity);
            summary.sampling.merge(&analysis.sampling);
            for flow in &analysis.flows {
                summary.add_flow(flow.row());
            }
        }
        summary
    }

    /// The projection that defines live/offline equivalence: a final
    /// live summary of finished runs equals
    /// [`from_analyses`](Self::from_analyses) of the same runs as a
    /// whole struct once the streaming-only counters are zeroed and
    /// evicted reports are folded into the orphaned ones (offline,
    /// every unjoined report is `reports_without_flow`).
    pub fn offline_view(&self) -> LiveSummary {
        LiveSummary {
            events: 0,
            dropped_events: 0,
            orphaned_reports: self.unjoined_reports(),
            evicted_reports: 0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: &str, flows: usize, sent: u64, recv: u64) -> LiveSummary {
        let mut summary = LiveSummary {
            events: 10,
            flows,
            total_sent: sent,
            total_recv: recv,
            ..Default::default()
        };
        for _ in 0..flows {
            summary
                .per_library
                .entry(label.to_owned())
                .or_default()
                .add_flow(sent / flows as u64, recv / flows as u64);
        }
        summary
    }

    #[test]
    fn merge_is_fieldwise_and_bucketwise() {
        let mut a = sample("com.a", 2, 100, 2_000);
        let b = sample("com.a", 1, 50, 500);
        let c = sample("com.b", 1, 7, 70);
        a.merge(&b);
        a.merge(&c);
        assert_eq!(a.events, 30);
        assert_eq!(a.flows, 4);
        assert_eq!(a.total_sent, 157);
        assert_eq!(a.per_library["com.a"].flows, 3);
        assert_eq!(a.per_library["com.b"].total_bytes(), 77);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let summary = sample("com.vendor.sdk", 2, 200, 4_000);
        let json = serde_json::to_string(&summary).unwrap();
        let back: LiveSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(summary, back);
    }
}
