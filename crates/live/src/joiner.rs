//! The incremental report↔flow joiner.
//!
//! One [`LiveJoiner`] holds one run's streaming state: the growing
//! flow table and DNS map ([`CaptureTables`], fed by netsim's per-frame
//! step exactly as the offline capture index is), the run's
//! [`ReportJoin`], and a bounded buffer of reports that arrived before
//! the packets they describe.
//!
//! # Join semantics (and why they equal the offline join)
//!
//! The claim and row rules are not reimplemented here: they are
//! [`ReportJoin`]'s, the same type the offline pipeline drives over a
//! finished capture. What differs is only the table. Streaming cannot
//! see the future, but it does not need to: the virtual clock is
//! monotone in capture order, so every epoch that opens *after* a
//! report is delivered has a start time strictly greater than the
//! report's hook timestamp and can never be the "active at hook time"
//! epoch. An incremental
//! [`lookup_epoch`](spector_netsim::FlowTable::lookup_epoch) against
//! the table-so-far therefore returns the same epoch the offline join
//! would — whenever the report's pair has any epoch at all. Rows are
//! emitted at snapshot time against the table as it stands, which at
//! end of stream *is* the offline table.
//!
//! The one genuine ordering hazard is **report-before-SYN**: the hook
//! fires at `connect` time, and a collector can observe the datagram
//! before this engine has ingested the connection's first TCP segment.
//! Such reports [`pend`](LiveJoiner::on_report) instead of failing,
//! and are re-joined the moment the first TCP segment of their
//! canonical 4-tuple is ingested — at which point `lookup_epoch` is
//! again exact (including the offline join's first-epoch fallback for
//! hook timestamps that precede the observed SYN).
//!
//! # Eviction
//!
//! Pending reports cannot wait forever: a report whose connection's
//! packets never reach the capture (the offline
//! `reports_without_flow` case) would otherwise pin memory for the
//! lifetime of the stream. The joiner keeps a **watermark** — the
//! largest delivery timestamp seen — and evicts a pending report once
//! the watermark has advanced more than
//! [`JoinerConfig::pending_ttl_micros`] past its enqueue watermark.
//! Evictions are counted, never silent; reports still pending when the
//! stream finishes are counted as *orphaned*. For an in-order replay
//! of a finished capture, `evicted + orphaned` equals the offline
//! join's `reports_without_flow` exactly.

use std::collections::VecDeque;

use libspector::knowledge::Knowledge;
use libspector::{ClaimOutcome, PipelineTelemetry, ReportJoin};
use spector_hooks::SocketReport;
use spector_netsim::{CaptureTables, FrameErrorKind, Lane, SocketPair};

use crate::summary::LiveSummary;

/// Joiner tuning knobs.
#[derive(Debug, Clone)]
pub struct JoinerConfig {
    /// How long (virtual-clock microseconds of watermark advance) a
    /// pending report may wait for its flow before being evicted.
    pub pending_ttl_micros: u64,
}

impl Default for JoinerConfig {
    fn default() -> Self {
        JoinerConfig {
            // 5 s of virtual time: orders of magnitude beyond the hook
            // latency plus send path, so nothing joinable is ever
            // evicted, while lost-capture orphans drain promptly.
            pending_ttl_micros: 5_000_000,
        }
    }
}

/// A report waiting for its flow's first TCP segment.
#[derive(Debug, Clone)]
struct PendingReport {
    report: SocketReport,
    /// Watermark value when the report was enqueued; eviction compares
    /// against this, so a stalled stream never evicts anything.
    enqueued_micros: u64,
}

/// One run's incremental join state. See the module docs for the
/// ordering and eviction semantics.
#[derive(Debug, Default)]
pub struct LiveJoiner {
    tables: CaptureTables,
    join: ReportJoin,
    pending: VecDeque<PendingReport>,
    watermark: u64,
    evicted: usize,
    report_packets: usize,
    config: JoinerConfig,
    /// This joiner's fold as of its last snapshot, dropped by the next
    /// delivered event: a run that has not moved since is not folded
    /// again.
    folded: Option<LiveSummary>,
}

impl LiveJoiner {
    /// A fresh joiner for one run.
    pub fn new(config: JoinerConfig) -> Self {
        LiveJoiner {
            config,
            ..Default::default()
        }
    }

    /// Delivers one raw frame through netsim's per-frame step and
    /// returns its lane. A TCP segment or other UDP datagram advances
    /// the watermark; a TCP segment also re-joins any pending reports
    /// for its 4-tuple. A collector-port payload is left to the caller,
    /// which decodes it and hands any report to
    /// [`on_report`](Self::on_report). A frame that fails to decode
    /// changes nothing.
    pub fn on_frame<'a>(
        &mut self,
        timestamp_micros: u64,
        raw: &'a [u8],
        collector_port: u16,
        knowledge: &Knowledge,
    ) -> Result<Lane<'a>, FrameErrorKind> {
        let lane = self.tables.ingest(timestamp_micros, raw, collector_port)?;
        match lane {
            Lane::Tcp(pair) => {
                self.advance(timestamp_micros);
                self.rejoin_pending(&pair, knowledge);
            }
            Lane::Udp(_) => self.advance(timestamp_micros),
            Lane::Collector(_) => {}
        }
        Ok(lane)
    }

    /// Re-joins the pending reports for `pair`'s 4-tuple, in arrival
    /// order; entries for other pairs keep their queue position (and
    /// thus their eviction deadline).
    fn rejoin_pending(&mut self, pair: &SocketPair, knowledge: &Knowledge) {
        if self.pending.is_empty() {
            return;
        }
        let canonical = pair.canonical();
        let mut keep = VecDeque::with_capacity(self.pending.len());
        while let Some(entry) = self.pending.pop_front() {
            if entry.report.pair.canonical() == canonical && self.try_join(&entry.report, knowledge)
            {
                continue;
            }
            keep.push_back(entry);
        }
        self.pending = keep;
    }

    /// Delivers one decoded supervisor report whose datagram arrived at
    /// `arrival_micros`: joins immediately when the flow is already
    /// known, pends otherwise. Arrival time drives the watermark; the
    /// join keys off the report's own hook time, as offline.
    pub fn on_report(&mut self, arrival_micros: u64, report: SocketReport, knowledge: &Knowledge) {
        self.advance(arrival_micros);
        self.report_packets += 1;
        if !self.try_join(&report, knowledge) {
            self.pending.push_back(PendingReport {
                report,
                enqueued_micros: self.watermark,
            });
        }
    }

    /// Stream epochs opened without a SYN so far — this run's share of
    /// [`RunIntegrity::synthesized_flows`](libspector::RunIntegrity).
    pub fn synthesized_flows(&self) -> usize {
        self.tables.flows().synthesized_epochs()
    }

    /// Runs the shared claim rule against the table-so-far. Returns
    /// `true` when the report is consumed — it claimed a fresh slot or
    /// duplicated a claimed one — and `false` when its pair has no
    /// epochs yet.
    fn try_join(&mut self, report: &SocketReport, knowledge: &Knowledge) -> bool {
        let outcome = self.join.claim(
            report,
            self.tables.flows(),
            knowledge,
            PipelineTelemetry::disabled_ref(),
        );
        outcome != ClaimOutcome::NoFlow
    }

    /// Advances the watermark and evicts timed-out pending reports.
    /// Every delivered event passes through here, so this is also where
    /// the cached fold goes stale.
    fn advance(&mut self, timestamp_micros: u64) {
        self.folded = None;
        if timestamp_micros > self.watermark {
            self.watermark = timestamp_micros;
        }
        // FIFO enqueue watermarks are monotone, so expiry is a prefix.
        while let Some(front) = self.pending.front() {
            if self.watermark.saturating_sub(front.enqueued_micros) > self.config.pending_ttl_micros
            {
                self.pending.pop_front();
                self.evicted += 1;
            } else {
                break;
            }
        }
    }

    /// Folds this joiner's current rows into a summary. The shared row
    /// rule reads volumes and domains *now*, against the tables as of
    /// the latest delivered event — a mid-stream snapshot sees partial
    /// volumes and possibly unresolved domains; the final snapshot
    /// equals the offline analysis.
    ///
    /// `include_dns` guards the DNS datagram counter: DNS events are
    /// broadcast to every shard, so exactly one shard (shard 0) must
    /// contribute the count.
    pub fn snapshot_into(
        &mut self,
        knowledge: &Knowledge,
        include_dns: bool,
        out: &mut LiveSummary,
    ) {
        if include_dns {
            out.dns_packets += self.tables.dns().dns_packet_count;
        }
        let folded = self.folded.get_or_insert_with(|| {
            let table = self.tables.flows();
            let mut folded = LiveSummary {
                unattributed_flows: self.join.unattributed(table),
                orphaned_reports: self.pending.len(),
                evicted_reports: self.evicted,
                report_packets: self.report_packets,
                ..LiveSummary::default()
            };
            let pt = PipelineTelemetry::disabled_ref();
            for flow in self.join.rows(table, self.tables.dns(), knowledge, pt) {
                folded.add_flow(flow.row());
            }
            folded
        });
        out.merge(folded);
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    use spector_dex::sha256::Sha256;
    use spector_hooks::SupervisorConfig;
    use spector_netsim::packet::{decode_frame_ref, TransportRef};
    use spector_netsim::pcap::CapturedPacket;
    use spector_netsim::{Clock, NetStack};

    use super::*;
    use crate::{LiveConfig, LiveEngine};

    /// A one-shard engine: its raw-frame decode feeds one joiner per
    /// run, so these tests drive the joiner the way production does.
    fn engine(pending_ttl_micros: u64) -> LiveEngine {
        LiveEngine::start(
            Arc::new(Knowledge::new(
                Default::default(),
                Default::default(),
                Default::default(),
            )),
            LiveConfig {
                joiner: JoinerConfig { pending_ttl_micros },
                ..Default::default()
            },
        )
    }

    /// One flow plus its connect-time report datagram, and the index of
    /// that datagram in the capture.
    fn scripted_capture() -> (Vec<CapturedPacket>, usize) {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("api.example.net", Ipv4Addr::new(198, 51, 100, 7));
        let sock = stack.tcp_connect(ip, 443);
        let pair = stack.socket_pair(sock).unwrap();
        let report = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"apk"),
            pair,
            timestamp_micros: stack.clock().now_micros(),
            frames: vec![
                "java.net.Socket.connect".into(),
                "com.vendor.sdk.Net.call".into(),
            ],
        };
        stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        stack.tcp_transfer(sock, 300, 9_000);
        stack.tcp_close(sock);
        let capture = stack.into_capture();
        let report_at = capture
            .iter()
            .position(|packet| {
                matches!(
                    decode_frame_ref(&packet.data),
                    Ok(frame) if matches!(frame.transport, TransportRef::Udp { .. })
                        && frame.pair.dst_port == config.collector_port
                )
            })
            .expect("the report datagram is captured");
        (capture, report_at)
    }

    /// A report datagram whose 4-tuple never carries packets, captured
    /// at the very start of the virtual clock.
    fn orphan_frame() -> CapturedPacket {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let orphan = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"apk"),
            pair: SocketPair::new(
                Ipv4Addr::new(10, 0, 2, 15),
                61_000,
                Ipv4Addr::new(203, 0, 113, 80),
                443,
            ),
            timestamp_micros: 10,
            frames: vec!["com.lost.Sdk.go".into()],
        };
        stack.udp_send(config.collector_ip, config.collector_port, &orphan.encode());
        stack.into_capture().pop().unwrap()
    }

    #[test]
    fn in_order_stream_joins_immediately() {
        let (capture, report_at) = scripted_capture();
        let engine = engine(JoinerConfig::default().pending_ttl_micros);
        engine.push_run(0, &capture[..=report_at]);
        assert_eq!(
            engine.snapshot().orphaned_reports,
            0,
            "in-order reports never pend"
        );
        engine.push_run(0, &capture[report_at + 1..]);
        let summary = engine.finish();
        assert_eq!(summary.flows, 1);
        assert_eq!(summary.unattributed_flows, 0);
        assert_eq!(summary.evicted_reports, 0);
        assert!(summary.per_library.contains_key("com.vendor.sdk"));
    }

    #[test]
    fn report_before_syn_pends_then_joins() {
        let (mut capture, report_at) = scripted_capture();
        // Move the report datagram to the very front of the stream.
        let report = capture.remove(report_at);
        capture.insert(0, report);
        let engine = engine(JoinerConfig::default().pending_ttl_micros);
        engine.push_run(0, &capture[..1]);
        assert_eq!(
            engine.snapshot().orphaned_reports,
            1,
            "report must pend before its SYN"
        );
        engine.push_run(0, &capture[1..]);
        let summary = engine.finish();
        assert_eq!(summary.flows, 1, "SYN ingest must resolve the report");
        assert_eq!(summary.evicted_reports, 0);
        assert_eq!(summary.orphaned_reports, 0);
    }

    #[test]
    fn orphan_report_evicts_after_ttl_and_is_counted() {
        let (capture, _) = scripted_capture();
        let engine = engine(1_000);
        engine.push_run(0, &[orphan_frame()]);
        assert_eq!(engine.snapshot().orphaned_reports, 1);
        // Stream the real traffic; its timestamps blow past the TTL.
        engine.push_run(0, &capture);
        let summary = engine.finish();
        assert_eq!(summary.orphaned_reports, 0);
        assert_eq!(summary.evicted_reports, 1);
        assert_eq!(summary.flows, 1, "the real flow still joins");
    }

    #[test]
    fn duplicate_reports_claim_one_epoch() {
        let (mut capture, report_at) = scripted_capture();
        capture.push(capture[report_at].clone());
        let engine = engine(JoinerConfig::default().pending_ttl_micros);
        engine.push_run(0, &capture);
        let summary = engine.finish();
        assert_eq!(summary.flows, 1, "duplicate must not double-claim");
        assert_eq!(summary.report_packets, 2);
        assert_eq!(summary.unjoined_reports(), 0);
    }

    #[test]
    fn stalled_stream_never_evicts() {
        let engine = engine(1_000);
        engine.push_run(0, &[orphan_frame()]);
        // No further frames: the watermark holds, so nothing expires —
        // the report is orphaned, not evicted.
        let summary = engine.finish();
        assert_eq!(summary.orphaned_reports, 1);
        assert_eq!(summary.evicted_reports, 0);
    }
}
