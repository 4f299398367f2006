//! The sharded engine: worker threads, bounded queues, backpressure.
//!
//! [`LiveEngine::start`] spawns N shard threads. Each shard owns the
//! joiner state for the `(run, canonical 4-tuple)` keys that hash to
//! it and consumes a **bounded** crossbeam channel. Ingress is
//! two-phase (see [`crate::batch`]): the producer peeks raw frame
//! headers just far enough to route, ships batches of shared-buffer
//! ranges ([`FrameBytes`]), and the **full classified decode runs
//! here, on the owning shard**, through the offline pipeline's own
//! frame and collector steps — TCP segments and reports route to the
//! shard owning their pair (a report must land where its flow's epochs
//! live); DNS frames are broadcast by `Arc` clone, so every shard can
//! resolve destination domains locally without cross-shard chatter —
//! the merge takes the DNS datagram count from shard 0 only. Frames
//! the peek cannot route land on the run's deterministic fallback
//! shard, where the decode classifies and counts the failure exactly
//! once — error totals are shard-count-invariant.
//!
//! # Backpressure
//!
//! The queues are bounded by [`LiveConfig::queue_capacity`]. When a
//! queue is full, [`OverflowPolicy`] decides: `Block` stalls the
//! producer (lossless — the default, and what the equivalence
//! guarantee assumes), `DropNewest` sheds the incoming batch and
//! counts every frame in it into a counter surfaced as
//! [`LiveSummary::dropped_events`] — dropping is *never* silent.
//!
//! # Snapshot consistency
//!
//! [`LiveEngine::snapshot`] works by enqueueing a snapshot barrier
//! message on every shard's queue (always blocking, even under
//! `DropNewest` — a snapshot request is not sheddable). Channels are
//! FIFO, so each shard answers after processing everything enqueued
//! before the barrier; the reply is a per-shard partial summary and
//! the engine merges them. Determinism: per-key event order is
//! preserved (single channel per shard, one batcher per producer
//! call, one joiner per run), so the final summary is identical for
//! any shard count — sharding changes throughput, never results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use libspector::{Knowledge, RunIntegrity};
use spector_hooks::{Collected, CollectorStats, ReportErrorKind};
use spector_netsim::pcap::CapturedPacket;
use spector_netsim::shape::IpFamily;
use spector_netsim::{FrameErrorCounts, FrameErrorKind, Lane, SocketPair};
use spector_telemetry::{Counter, Histogram, MetricsSnapshot, Telemetry, COUNT_BOUNDS};

use crate::batch::{
    classify_route, fallback_shard, FrameBytes, RawBatch, RawFrame, RawItem, Route,
};
use crate::event::shard_of;
use crate::joiner::{JoinerConfig, LiveJoiner};
use crate::summary::LiveSummary;

/// What to do when a shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Stall the producer until the shard catches up (lossless).
    Block,
    /// Shed the incoming batch and count its frames (lossy but
    /// bounded-latency; the drop count is reported in every summary).
    DropNewest,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of shard threads. Clamped to at least 1.
    pub shards: usize,
    /// Per-shard queue capacity, in messages (a whole batch occupies
    /// one slot). Clamped to at least 1.
    pub queue_capacity: usize,
    /// Full-queue policy.
    pub overflow: OverflowPolicy,
    /// Collector UDP port, used when classifying raw frames.
    pub collector_port: u16,
    /// Target items per ingress batch: a producer's per-shard buffer
    /// ships once it holds this many raw frames (and always at the end
    /// of the producer call). Clamped to at least 1.
    pub batch_events: usize,
    /// Joiner tuning (pending-report TTL).
    pub joiner: JoinerConfig,
    /// Engine-level telemetry sink. When enabled, each shard also
    /// keeps a local counter-only registry whose snapshot folds into
    /// [`LiveEngine::snapshot_full`]; the per-class counters are
    /// designed so the merged snapshot balances identically for any
    /// shard count.
    pub telemetry: Telemetry,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            shards: 1,
            queue_capacity: 1_024,
            overflow: OverflowPolicy::Block,
            collector_port: spector_hooks::SupervisorConfig::default().collector_port,
            batch_events: 64,
            joiner: JoinerConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

enum ShardMsg {
    /// A batch of raw frames to decode shard-side.
    Batch(RawBatch),
    Snapshot(Sender<(LiveSummary, MetricsSnapshot)>),
    /// Test-only: acknowledge, then block until the gate closes — lets
    /// tests fill a queue deterministically to exercise backpressure.
    #[cfg(test)]
    Park {
        ack: Sender<()>,
        gate: Receiver<()>,
    },
}

/// Shard-local event counters. Deliberately counters only (no
/// wall-time histograms): every event lands on exactly one shard (DNS
/// broadcasts — both the datagram count and any decode error on a
/// broadcast copy — are counted on shard 0 only, mirroring the
/// summary's DNS convention), so the fold over shard snapshots is
/// independent of the shard count — pinned by the live telemetry
/// tests.
struct ShardTelemetry {
    registry: Telemetry,
    tcp_events: Counter,
    dns_events: Counter,
    report_events: Counter,
    frames_truncated: Counter,
    frames_malformed: Counter,
    frames_bad_checksum: Counter,
    reports_truncated: Counter,
    reports_malformed: Counter,
    ledger_events: Counter,
    shape_ipv4: Counter,
    shape_ipv6: Counter,
    count_dns: bool,
}

impl ShardTelemetry {
    fn new(shard_idx: usize, enabled: bool) -> ShardTelemetry {
        let registry = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        ShardTelemetry {
            tcp_events: registry.counter("spector_live_tcp_events_total"),
            dns_events: registry.counter("spector_live_dns_events_total"),
            report_events: registry.counter("spector_live_report_events_total"),
            frames_truncated: registry.counter("spector_live_ingress_frames_truncated_total"),
            frames_malformed: registry.counter("spector_live_ingress_frames_malformed_total"),
            frames_bad_checksum: registry.counter("spector_live_ingress_frames_bad_checksum_total"),
            reports_truncated: registry.counter("spector_live_ingress_reports_truncated_total"),
            reports_malformed: registry.counter("spector_live_ingress_reports_malformed_total"),
            ledger_events: registry.counter("spector_live_ledger_events_total"),
            shape_ipv4: registry.counter("spector_shape_ipv4_total"),
            shape_ipv6: registry.counter("spector_shape_ipv6_total"),
            count_dns: shard_idx == 0,
            registry,
        }
    }

    /// Counts the address family of one counted event's 4-tuple, in
    /// lockstep with the tcp/dns/report event counters (same shard-0
    /// gating for broadcasts), so the merged totals obey
    /// `tcp + dns + report == ipv4 + ipv6` at any shard count.
    fn count_family(&self, pair: &SocketPair) {
        match IpFamily::of(pair) {
            IpFamily::V4 => self.shape_ipv4.inc(),
            IpFamily::V6 => self.shape_ipv6.inc(),
        }
    }

    /// Counts one TCP or DNS-lane frame (collector payloads are counted
    /// by [`count_collected`](Self::count_collected)).
    fn count_lane(&self, lane: &Lane<'_>) {
        match lane {
            Lane::Tcp(pair) => {
                self.tcp_events.inc();
                self.count_family(pair);
            }
            Lane::Udp(pair) if self.count_dns => {
                self.dns_events.inc();
                self.count_family(pair);
            }
            Lane::Udp(_) | Lane::Collector(_) => {}
        }
    }

    fn count_frame_error(&self, kind: FrameErrorKind) {
        match kind {
            FrameErrorKind::Truncated => self.frames_truncated.inc(),
            FrameErrorKind::Malformed => self.frames_malformed.inc(),
            FrameErrorKind::BadChecksum => self.frames_bad_checksum.inc(),
        }
    }

    fn count_collected(&self, collected: &Collected) {
        match collected {
            Collected::Ledger(_) => self.ledger_events.inc(),
            Collected::LostLedger => {}
            Collected::Report(report) => {
                self.report_events.inc();
                self.count_family(&report.pair);
            }
            Collected::ReportError(ReportErrorKind::Truncated) => self.reports_truncated.inc(),
            Collected::ReportError(ReportErrorKind::Malformed) => self.reports_malformed.inc(),
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// One shard thread's state: a joiner per run it owns keys of, and its
/// share of the failure ledger — tallied with the record calls the
/// offline walk uses ([`FrameErrorCounts::record`],
/// [`CollectorStats::record`]) and built by the offline constructor
/// ([`RunIntegrity::new`]), so merged totals are the exact sum over
/// owners.
struct Shard {
    idx: usize,
    collector_port: u16,
    knowledge: Arc<Knowledge>,
    joiner_config: JoinerConfig,
    joiners: HashMap<u32, LiveJoiner>,
    frame_errors: FrameErrorCounts,
    collector: CollectorStats,
    telemetry: ShardTelemetry,
}

/// The running engine. `push_run`/`push_raw_run`/`batcher` are `&self`
/// and thread-safe;
/// `snapshot` can be called at any time from any thread; `finish`
/// consumes the engine, drains the shards, and returns the final
/// summary.
pub struct LiveEngine {
    senders: Vec<Sender<ShardMsg>>,
    handles: Vec<JoinHandle<(LiveSummary, MetricsSnapshot)>>,
    events: AtomicU64,
    dropped: Arc<AtomicU64>,
    overflow: OverflowPolicy,
    collector_port: u16,
    batch_events: usize,
    telemetry: Telemetry,
    events_counter: Counter,
    dropped_counter: Counter,
    batches_counter: Counter,
    batch_events_counter: Counter,
    batch_size: Histogram,
}

impl LiveEngine {
    /// Spawns the shard threads and returns the running engine.
    pub fn start(knowledge: Arc<Knowledge>, config: LiveConfig) -> LiveEngine {
        let shards = config.shards.max(1);
        let capacity = config.queue_capacity.max(1);
        let telemetry_enabled = config.telemetry.is_enabled();
        let collector_port = config.collector_port;
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for idx in 0..shards {
            let (sender, receiver) = bounded::<ShardMsg>(capacity);
            let shard = Shard {
                idx,
                collector_port,
                knowledge: Arc::clone(&knowledge),
                joiner_config: config.joiner.clone(),
                joiners: HashMap::new(),
                frame_errors: FrameErrorCounts::default(),
                collector: CollectorStats::default(),
                telemetry: ShardTelemetry::new(idx, telemetry_enabled),
            };
            handles.push(std::thread::spawn(move || shard_loop(shard, receiver)));
            senders.push(sender);
        }
        LiveEngine {
            senders,
            handles,
            events: AtomicU64::new(0),
            dropped: Arc::new(AtomicU64::new(0)),
            overflow: config.overflow,
            collector_port,
            batch_events: config.batch_events.max(1),
            events_counter: config.telemetry.counter("spector_live_events_total"),
            dropped_counter: config
                .telemetry
                .counter("spector_live_dropped_events_total"),
            batches_counter: config.telemetry.counter("spector_live_batches_total"),
            batch_events_counter: config.telemetry.counter("spector_live_batch_events_total"),
            batch_size: config
                .telemetry
                .histogram("spector_live_batch_size", &COUNT_BOUNDS),
            telemetry: config.telemetry,
        }
    }

    /// Number of shard threads.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The collector port raw frames are classified against.
    pub fn collector_port(&self) -> u16 {
        self.collector_port
    }

    /// The engine's telemetry sink (shared with the ingest service so
    /// listener counters land in the same registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Events shed so far under [`OverflowPolicy::DropNewest`].
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A fresh per-producer batcher. Each producer thread (or call)
    /// owns its own buffers, so `&self` stays thread-safe; dropping
    /// the batcher flushes whatever is left.
    pub fn batcher(&self) -> IngressBatcher<'_> {
        IngressBatcher {
            buffers: (0..self.senders.len()).map(|_| Vec::new()).collect(),
            limit: self.batch_events,
            engine: self,
        }
    }

    /// Streams one finished run's capture through the engine, in
    /// capture order, as run `run`: peek-route-batch on this thread,
    /// classified decode on the owning shard. Undecodable frames and
    /// collector-port datagrams that are not valid reports are counted
    /// by classification on the shard that owns the bytes, into the
    /// summary's [`RunIntegrity`].
    ///
    /// The capture is copied once, into one buffer its frames are
    /// ranges of; the buffer is freed when its shards have decoded the
    /// last of them.
    pub fn push_run(&self, run: u32, capture: &[CapturedPacket]) {
        let total = capture.iter().map(|packet| packet.data.len()).sum();
        let mut shared: Arc<[u8]> = std::iter::repeat_n(0, total).collect();
        let mut rest = Arc::get_mut(&mut shared).expect("a fresh buffer is unshared");
        for packet in capture {
            let (head, tail) = rest.split_at_mut(packet.data.len());
            head.copy_from_slice(&packet.data);
            rest = tail;
        }
        let mut batcher = self.batcher();
        let mut start = 0;
        for packet in capture {
            let end = start + packet.data.len();
            batcher.push_raw(
                run,
                packet.timestamp_micros,
                FrameBytes::new(Arc::clone(&shared), start..end),
            );
            start = end;
        }
    }

    /// [`push_run`](Self::push_run) over pre-shared frames: the replay
    /// path for benches and services that already hold shareable
    /// bytes — no copy, just a peek and an `Arc` clone per frame.
    pub fn push_raw_run(&self, run: u32, frames: &[RawFrame]) {
        let mut batcher = self.batcher();
        for frame in frames {
            batcher.push_raw(run, frame.timestamp_micros, frame.data.clone());
        }
    }

    fn deliver_batch(&self, shard: usize, batch: RawBatch) {
        let items = batch.items.len() as u64;
        self.batches_counter.inc();
        self.batch_events_counter.add(items);
        self.batch_size.record(items);
        match self.overflow {
            OverflowPolicy::Block => {
                if self.senders[shard].send(ShardMsg::Batch(batch)).is_err() {
                    panic!("live shard terminated while engine running");
                }
            }
            OverflowPolicy::DropNewest => {
                match self.senders[shard].try_send(ShardMsg::Batch(batch)) {
                    Ok(()) => {}
                    Err(TrySendError::Full(batch)) => {
                        let ShardMsg::Batch(batch) = batch else {
                            unreachable!("try_send returns the rejected message")
                        };
                        let items = batch.items.len() as u64;
                        self.dropped.fetch_add(items, Ordering::Relaxed);
                        self.dropped_counter.add(items);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        panic!("live shard terminated while engine running")
                    }
                }
            }
        }
    }

    /// A consistent engine-wide summary of everything delivered before
    /// this call (see the module docs for the barrier argument). Safe
    /// to call repeatedly; the stream may keep flowing afterwards.
    pub fn snapshot(&self) -> LiveSummary {
        self.snapshot_full().0
    }

    /// [`LiveEngine::snapshot`] plus the merged telemetry view: every
    /// shard's local counter snapshot folded together with the
    /// engine-level registry ([`MetricsSnapshot::merge`] is
    /// associative/commutative, so the fold order is irrelevant).
    pub fn snapshot_full(&self) -> (LiveSummary, MetricsSnapshot) {
        // Enqueue every barrier first, then collect: shards quiesce in
        // parallel instead of one at a time.
        let replies: Vec<Receiver<(LiveSummary, MetricsSnapshot)>> = self
            .senders
            .iter()
            .map(|sender| {
                let (reply, receiver) = bounded(1);
                if sender.send(ShardMsg::Snapshot(reply)).is_err() {
                    panic!("live shard terminated while engine running");
                }
                receiver
            })
            .collect();
        let mut merged = LiveSummary::default();
        let mut metrics = self.telemetry.snapshot();
        for receiver in replies {
            let (partial, shard_metrics) =
                receiver.recv().expect("live shard dropped snapshot reply");
            merged.merge(&partial);
            metrics.merge(&shard_metrics);
        }
        self.stamp_engine_totals(&mut merged);
        (merged, metrics)
    }

    /// Closes the stream: drops the queues, joins every shard, and
    /// returns the final summary. Reports still pending at this point
    /// are counted as orphaned — for an in-order replay of finished
    /// captures, `orphaned + evicted` equals the offline pipeline's
    /// `reports_without_flow`.
    pub fn finish(self) -> LiveSummary {
        self.finish_with_metrics().0
    }

    /// [`LiveEngine::finish`] plus the final merged telemetry view.
    pub fn finish_with_metrics(self) -> (LiveSummary, MetricsSnapshot) {
        drop(self.senders);
        let mut merged = LiveSummary::default();
        let mut metrics = self.telemetry.snapshot();
        for handle in self.handles {
            let (partial, shard_metrics) = handle.join().expect("live shard panicked");
            merged.merge(&partial);
            metrics.merge(&shard_metrics);
        }
        merged.events = self.events.load(Ordering::Relaxed);
        merged.dropped_events = self.dropped.load(Ordering::Relaxed);
        (merged, metrics)
    }

    fn stamp_engine_totals(&self, merged: &mut LiveSummary) {
        merged.events = self.events.load(Ordering::Relaxed);
        merged.dropped_events = self.dropped.load(Ordering::Relaxed);
    }
}

/// Producer-side ingress buffers: one `Vec<RawItem>` per shard, shipped
/// as a [`RawBatch`] once [`LiveConfig::batch_events`] items accumulate
/// (and flushed on drop). Create one per producer thread via
/// [`LiveEngine::batcher`] — the batcher is intentionally not `Sync`.
pub struct IngressBatcher<'e> {
    engine: &'e LiveEngine,
    buffers: Vec<Vec<RawItem>>,
    limit: usize,
}

impl IngressBatcher<'_> {
    /// Peeks, routes, and buffers one raw frame. Counted in
    /// [`LiveSummary::events`] immediately (a broadcast frame counts
    /// once); shipped to its shard when the buffer fills or the
    /// batcher flushes/drops.
    pub fn push_raw(&mut self, run: u32, timestamp_micros: u64, data: FrameBytes) {
        self.engine.events.fetch_add(1, Ordering::Relaxed);
        self.engine.events_counter.inc();
        let shards = self.buffers.len();
        match classify_route(&data, self.engine.collector_port) {
            Route::Pair(pair) => {
                let shard = shard_of(run, &pair, shards);
                self.append(
                    shard,
                    RawItem {
                        run,
                        timestamp_micros,
                        broadcast: false,
                        data,
                    },
                );
            }
            Route::Broadcast => {
                for shard in 0..shards {
                    self.append(
                        shard,
                        RawItem {
                            run,
                            timestamp_micros,
                            broadcast: true,
                            data: data.clone(),
                        },
                    );
                }
            }
            Route::Fallback => {
                let shard = fallback_shard(run, shards);
                self.append(
                    shard,
                    RawItem {
                        run,
                        timestamp_micros,
                        broadcast: false,
                        data,
                    },
                );
            }
        }
    }

    /// Ships every non-empty buffer now. Called automatically on drop;
    /// call it explicitly before a snapshot that must observe
    /// everything pushed so far by this producer.
    pub fn flush(&mut self) {
        for shard in 0..self.buffers.len() {
            self.flush_shard(shard);
        }
    }

    fn append(&mut self, shard: usize, item: RawItem) {
        self.buffers[shard].push(item);
        if self.buffers[shard].len() >= self.limit {
            self.flush_shard(shard);
        }
    }

    fn flush_shard(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        let items = std::mem::take(&mut self.buffers[shard]);
        self.engine.deliver_batch(shard, RawBatch { items });
    }
}

impl Drop for IngressBatcher<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

fn shard_loop(mut shard: Shard, receiver: Receiver<ShardMsg>) -> (LiveSummary, MetricsSnapshot) {
    while let Ok(msg) = receiver.recv() {
        match msg {
            ShardMsg::Batch(batch) => {
                for item in batch.items {
                    shard.on_raw_item(item);
                }
            }
            ShardMsg::Snapshot(reply) => {
                let _ = reply.send((shard.partial_summary(), shard.telemetry.snapshot()));
            }
            #[cfg(test)]
            ShardMsg::Park { ack, gate } => {
                let _ = ack.send(());
                let _ = gate.recv();
            }
        }
    }
    (shard.partial_summary(), shard.telemetry.snapshot())
}

impl Shard {
    /// The shard-local half of the two-phase ingress for one raw frame:
    /// netsim's frame step on the run's joiner, the hooks collector step
    /// on a collector-port payload, and the accounting. A decode failure
    /// on a broadcast copy is counted on shard 0 only (every shard
    /// received the same bytes); routed and fallback frames are owned by
    /// exactly one shard. Ledger datagrams carry no report pair, so they
    /// too land on exactly one (fallback) shard.
    fn on_raw_item(&mut self, item: RawItem) {
        let joiner = self
            .joiners
            .entry(item.run)
            .or_insert_with(|| LiveJoiner::new(self.joiner_config.clone()));
        let lane = joiner.on_frame(
            item.timestamp_micros,
            &item.data,
            self.collector_port,
            &self.knowledge,
        );
        let payload = match lane {
            Ok(Lane::Collector(payload)) => payload,
            Ok(lane) => return self.telemetry.count_lane(&lane),
            Err(kind) => {
                if !item.broadcast || self.idx == 0 {
                    self.frame_errors.record(kind);
                    self.telemetry.count_frame_error(kind);
                }
                return;
            }
        };
        let collected = Collected::decode(payload);
        self.telemetry.count_collected(&collected);
        if let Some(report) = self.collector.record(collected) {
            joiner.on_report(item.timestamp_micros, report, &self.knowledge);
        }
    }

    /// This shard's contribution to the merged summary. Only shard 0
    /// contributes the DNS datagram count (DNS events are broadcast).
    fn partial_summary(&mut self) -> LiveSummary {
        let mut summary = LiveSummary::default();
        let mut synthesized_flows = 0;
        for joiner in self.joiners.values_mut() {
            joiner.snapshot_into(&self.knowledge, self.idx == 0, &mut summary);
            synthesized_flows += joiner.synthesized_flows();
        }
        summary.integrity =
            RunIntegrity::new(&self.frame_errors, &self.collector, synthesized_flows);
        summary.sampling = self.collector.sampling;
        summary
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use spector_dex::sha256::Sha256;
    use spector_hooks::{LedgerRecord, SocketReport, SupervisorConfig};
    use spector_netsim::packet::{decode_frame_ref, TransportRef};
    use spector_netsim::shape::{encode_connect_preamble, encode_tls_hello};
    use spector_netsim::{Clock, NetStack};
    use spector_sampling::SamplingLedger;

    use super::*;

    fn knowledge() -> Arc<Knowledge> {
        Arc::new(Knowledge::new(
            Default::default(),
            Default::default(),
            Default::default(),
        ))
    }

    fn scripted_capture(salt: u8) -> Vec<CapturedPacket> {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        for i in 0..3u8 {
            let ip = stack.resolve(
                &format!("host{i}.example.net"),
                Ipv4Addr::new(198, 51, 100, salt.wrapping_add(i)),
            );
            let sock = stack.tcp_connect(ip, 443);
            let pair = stack.socket_pair(sock).unwrap();
            let report = SocketReport {
                stream: None,
                apk_sha256: Sha256::digest(&[salt]),
                pair,
                timestamp_micros: stack.clock().now_micros(),
                frames: vec![format!("com.sdk{i}.Net.call")],
            };
            stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
            stack.tcp_transfer(sock, 100 * (i as u64 + 1), 1_000 * (i as u64 + 1));
            stack.tcp_close(sock);
        }
        stack.into_capture()
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let captures: Vec<_> = (0..3).map(|i| scripted_capture(i * 10)).collect();
        let mut summaries = Vec::new();
        for shards in [1usize, 2, 4] {
            let engine = LiveEngine::start(
                knowledge(),
                LiveConfig {
                    shards,
                    ..Default::default()
                },
            );
            for (run, capture) in captures.iter().enumerate() {
                engine.push_run(run as u32, capture);
            }
            summaries.push(engine.finish());
        }
        assert_eq!(summaries[0], summaries[1]);
        assert_eq!(summaries[1], summaries[2]);
        assert_eq!(summaries[0].flows, 9);
        assert_eq!(summaries[0].dropped_events, 0);
    }

    /// Tiny batches exercise every flush path; the result must be
    /// byte-identical to the default batch size at any width.
    #[test]
    fn batch_size_does_not_change_results() {
        let captures: Vec<_> = (0..3).map(|i| scripted_capture(i * 13)).collect();
        let mut summaries = Vec::new();
        for (shards, batch_events) in [(1usize, 1usize), (2, 2), (4, 3), (2, 1_000)] {
            let engine = LiveEngine::start(
                knowledge(),
                LiveConfig {
                    shards,
                    batch_events,
                    ..Default::default()
                },
            );
            for (run, capture) in captures.iter().enumerate() {
                engine.push_run(run as u32, capture);
            }
            summaries.push(engine.finish());
        }
        for pair in summaries.windows(2) {
            assert_eq!(pair[0], pair[1], "batch size must be invisible");
        }
    }

    #[test]
    fn snapshot_is_a_consistent_barrier_and_stream_continues() {
        let capture = scripted_capture(50);
        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 2,
                ..Default::default()
            },
        );
        engine.push_run(0, &capture);
        let mid = engine.snapshot();
        assert_eq!(mid.flows, 3);
        assert_eq!(mid.events, capture.len() as u64);
        // Keep streaming a second run after the snapshot.
        engine.push_run(1, &capture);
        let done = engine.finish();
        assert_eq!(done.flows, 6);
        assert!(done.events > mid.events);
    }

    /// A one-shard `DropNewest` engine whose shard is parked: after the
    /// ack its queue is empty and the consumer provably idle, so
    /// overflow is deterministic. Dropping the returned gate unparks.
    fn parked_engine(capacity: usize, batch_events: usize) -> (LiveEngine, Sender<()>) {
        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 1,
                queue_capacity: capacity,
                overflow: OverflowPolicy::DropNewest,
                batch_events,
                ..Default::default()
            },
        );
        let (ack_tx, ack_rx) = bounded(1);
        let (gate_tx, gate_rx) = bounded::<()>(1);
        engine.senders[0]
            .send(ShardMsg::Park {
                ack: ack_tx,
                gate: gate_rx,
            })
            .unwrap_or_else(|_| panic!("park message rejected"));
        ack_rx.recv().unwrap();
        (engine, gate_tx)
    }

    /// batch_events = 1: every frame ships as its own batch, so exactly
    /// `capacity` frames fit and the rest shed, one each.
    #[test]
    fn drop_newest_sheds_exactly_the_overflow_and_counts_it() {
        let capacity = 4usize;
        let (engine, gate) = parked_engine(capacity, 1);
        let capture = scripted_capture(90);
        assert!(capture.len() > capacity + 3);
        engine.push_run(0, &capture);
        let expected_drops = (capture.len() - capacity) as u64;
        assert_eq!(engine.dropped_events(), expected_drops);
        drop(gate); // unpark; the shard drains what fit in the queue
        let summary = engine.finish();
        assert_eq!(summary.events, capture.len() as u64);
        assert_eq!(summary.dropped_events, expected_drops);
    }

    /// The batched path sheds whole batches, counting every item.
    #[test]
    fn drop_newest_counts_every_item_of_a_shed_batch() {
        let (capacity, batch_events) = (2usize, 3usize);
        let (engine, gate) = parked_engine(capacity, batch_events);
        // Exactly `capacity` full batches fit; every later batch —
        // including the partial tail flushed at the end — sheds whole.
        let capture = scripted_capture(33);
        assert!(capture.len() > (capacity + 1) * batch_events);
        engine.push_run(0, &capture);
        let expected_drops = (capture.len() - capacity * batch_events) as u64;
        assert_eq!(engine.dropped_events(), expected_drops);
        drop(gate);
        let summary = engine.finish();
        assert_eq!(summary.events, capture.len() as u64);
        assert_eq!(summary.dropped_events, expected_drops);
    }

    #[test]
    fn blocking_policy_is_lossless_under_pressure() {
        let capture = scripted_capture(17);
        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 2,
                queue_capacity: 2,
                overflow: OverflowPolicy::Block,
                batch_events: 3,
                ..Default::default()
            },
        );
        for run in 0..20u32 {
            engine.push_run(run, &capture);
        }
        let summary = engine.finish();
        assert_eq!(summary.dropped_events, 0);
        assert_eq!(summary.flows, 20 * 3);
        assert_eq!(summary.unjoined_reports(), 0);
    }

    /// The merged per-class counters (and their balance against the
    /// ingress total) are identical at any width. Whole-snapshot
    /// equality is deliberately *not* asserted: batch-shipping metrics
    /// (batch count, size histogram) legitimately depend on how items
    /// distribute over shards.
    #[test]
    fn telemetry_counters_are_identical_for_any_shard_count() {
        let captures: Vec<_> = (0..3).map(|i| scripted_capture(i * 11)).collect();
        let mut metric_views = Vec::new();
        for shards in [1usize, 2, 4] {
            let engine = LiveEngine::start(
                knowledge(),
                LiveConfig {
                    shards,
                    telemetry: Telemetry::enabled(),
                    ..Default::default()
                },
            );
            for (run, capture) in captures.iter().enumerate() {
                engine.push_run(run as u32, capture);
            }
            let (_, metrics) = engine.finish_with_metrics();
            metric_views.push(metrics);
        }
        let class_counters = [
            "spector_live_events_total",
            "spector_live_tcp_events_total",
            "spector_live_dns_events_total",
            "spector_live_report_events_total",
            "spector_live_ingress_frames_truncated_total",
            "spector_live_ingress_frames_malformed_total",
            "spector_live_ingress_frames_bad_checksum_total",
            "spector_live_ingress_reports_truncated_total",
            "spector_live_ingress_reports_malformed_total",
            "spector_live_ledger_events_total",
            "spector_live_dropped_events_total",
        ];
        for view in &metric_views[1..] {
            for name in class_counters {
                assert_eq!(
                    metric_views[0].counter(name),
                    view.counter(name),
                    "{name} must be shard-count-invariant"
                );
            }
        }
        let m = &metric_views[0];
        // Ingress balance: every pushed frame is exactly one of the
        // shard-counted classes (nothing was shed under Block).
        assert_eq!(
            m.counter("spector_live_events_total"),
            m.counter("spector_live_tcp_events_total")
                + m.counter("spector_live_dns_events_total")
                + m.counter("spector_live_report_events_total")
        );
        assert_eq!(m.counter("spector_live_dropped_events_total"), 0);
        assert!(m.counter("spector_live_report_events_total") >= 9);
        // The batch path is observable: every event arrived batched.
        assert_eq!(
            m.counter("spector_live_batch_events_total"),
            m.counter("spector_live_events_total"),
            "single-shard batches carry each frame exactly once"
        );
        assert!(m.counter("spector_live_batches_total") > 0);
    }

    #[test]
    fn mid_stream_metrics_snapshot_balances_and_keeps_flowing() {
        let capture = scripted_capture(61);
        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 2,
                telemetry: Telemetry::enabled(),
                ..Default::default()
            },
        );
        engine.push_run(0, &capture);
        let (summary, metrics) = engine.snapshot_full();
        assert_eq!(metrics.counter("spector_live_events_total"), summary.events);
        assert_eq!(
            metrics.counter("spector_live_events_total"),
            metrics.counter("spector_live_tcp_events_total")
                + metrics.counter("spector_live_dns_events_total")
                + metrics.counter("spector_live_report_events_total")
        );
        engine.push_run(1, &capture);
        let (final_summary, final_metrics) = engine.finish_with_metrics();
        assert_eq!(
            final_metrics.counter("spector_live_events_total"),
            final_summary.events
        );
        assert!(final_summary.events > summary.events);
    }

    #[test]
    fn disabled_telemetry_reports_empty_metrics() {
        let engine = LiveEngine::start(knowledge(), LiveConfig::default());
        engine.push_run(0, &scripted_capture(5));
        let (_, metrics) = engine.finish_with_metrics();
        assert_eq!(metrics, MetricsSnapshot::default());
    }

    #[test]
    fn concurrent_producers_per_run_are_supported() {
        let captures: Vec<_> = (0..4).map(|i| scripted_capture(i * 7)).collect();
        let engine = Arc::new(LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 3,
                ..Default::default()
            },
        ));
        std::thread::scope(|scope| {
            for (run, capture) in captures.iter().enumerate() {
                let engine = Arc::clone(&engine);
                scope.spawn(move || engine.push_run(run as u32, capture));
            }
        });
        let summary = Arc::into_inner(engine).unwrap().finish();
        assert_eq!(summary.flows, 12);
        assert_eq!(summary.unjoined_reports(), 0);
    }

    /// Degraded frames are decoded — and therefore counted — on the
    /// shard that owns the bytes, so the error ledger in the summary
    /// is identical at every width.
    #[test]
    fn decode_errors_are_shard_count_invariant() {
        let mut capture = scripted_capture(41);
        // Structural garbage: peek fails, routes to the fallback shard.
        capture.push(CapturedPacket {
            timestamp_micros: 1,
            data: vec![0xde, 0xad, 0xbe, 0xef],
        });
        // A TCP frame with a flipped payload byte: peeks fine (the
        // structural walk skips payloads), fails the shard-side
        // checksum verification. TCP specifically — UDP checksums are
        // not verified by the decode.
        let tcp_frame = capture
            .iter()
            .find(|p| {
                matches!(
                    decode_frame_ref(&p.data),
                    Ok(spector_netsim::packet::FrameRef {
                        transport: TransportRef::Tcp { .. },
                        ..
                    })
                )
            })
            .expect("scripted capture has TCP traffic");
        let mut corrupted = tcp_frame.data.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        capture.push(CapturedPacket {
            timestamp_micros: 2,
            data: corrupted,
        });
        let mut summaries = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let engine = LiveEngine::start(
                knowledge(),
                LiveConfig {
                    shards,
                    ..Default::default()
                },
            );
            engine.push_run(0, &capture);
            summaries.push(engine.finish());
        }
        for pair in summaries.windows(2) {
            assert_eq!(pair[0], pair[1], "error ledger must not depend on width");
        }
        let total_errors = summaries[0].integrity.frames_lost();
        assert_eq!(total_errors, 2, "both damaged frames counted once");
        assert_eq!(
            summaries[0].events,
            capture.len() as u64,
            "damaged frames still count as ingress events"
        );
    }

    /// A sampled run's end-of-run ledger datagram folds into the
    /// merged summary identically at every width, and a corrupt
    /// ledger is counted as lost — never silently dropped.
    #[test]
    fn sampling_ledgers_are_shard_count_invariant() {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("host.example.net", Ipv4Addr::new(198, 51, 100, 7));
        let sock = stack.tcp_connect(ip, 443);
        let pair = stack.socket_pair(sock).unwrap();
        let report = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"sampled-apk"),
            pair,
            timestamp_micros: stack.clock().now_micros(),
            frames: vec!["com.sdk.Net.call".into()],
        };
        stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        stack.tcp_transfer(sock, 100, 1_000);
        stack.tcp_close(sock);
        let record = LedgerRecord {
            apk_sha256: Sha256::digest(b"sampled-apk"),
            ledger: SamplingLedger {
                reports_observed: 10,
                reports_emitted: 1,
                sampled_out: 7,
                budget_suppressed: 2,
                windows_exhausted: 1,
                ledgers_lost: 0,
            },
        };
        let encoded = record.encode();
        stack.udp_send(config.collector_ip, config.collector_port, &encoded);
        // A truncated ledger: lost, but counted, on its owning shard.
        stack.udp_send(config.collector_ip, config.collector_port, &encoded[..20]);
        let capture = stack.into_capture();
        let mut summaries = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let engine = LiveEngine::start(
                knowledge(),
                LiveConfig {
                    shards,
                    ..Default::default()
                },
            );
            engine.push_run(0, &capture);
            summaries.push(engine.finish());
        }
        for pair in summaries.windows(2) {
            assert_eq!(pair[0], pair[1], "ledger totals must not depend on width");
        }
        let sampling = summaries[0].sampling;
        assert_eq!(sampling.reports_observed, 10);
        assert_eq!(sampling.reports_emitted, 1);
        assert_eq!(sampling.sampled_out, 7);
        assert_eq!(sampling.budget_suppressed, 2);
        assert_eq!(sampling.windows_exhausted, 1);
        assert_eq!(sampling.ledgers_lost, 1);
        assert!(sampling.is_balanced());
        // Ledger datagrams never count as (or corrupt) report packets.
        assert_eq!(summaries[0].report_packets, 1);
        assert_eq!(summaries[0].integrity.reports_lost(), 0);
    }

    /// Pushes `frames` as run `run`, each a range of one buffer that is
    /// returned to the caller.
    fn push_shared(engine: &LiveEngine, run: u32, frames: &[CapturedPacket]) -> Arc<[u8]> {
        let buf: Arc<[u8]> = frames.iter().flat_map(|p| p.data.iter().copied()).collect();
        let mut batcher = engine.batcher();
        let mut start = 0;
        for packet in frames {
            let end = start + packet.data.len();
            batcher.push_raw(
                run,
                packet.timestamp_micros,
                FrameBytes::new(Arc::clone(&buf), start..end),
            );
            start = end;
        }
        buf
    }

    /// A frame pins every frame of its buffer, so nothing downstream of
    /// decode may keep one: once a snapshot barrier returns, every
    /// buffer pushed before it is back to the test's own reference —
    /// with a report pending before its SYN, DNS broadcast to every
    /// shard, TLS and CONNECT first payloads in flow heads, and a
    /// malformed frame.
    #[test]
    fn no_frame_buffer_outlives_a_barrier() {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let first_payloads = [
            encode_tls_hello("tls.example.net"),
            encode_connect_preamble("tunnel.example.net", 443),
            b"GET / HTTP/1.1\r\nHost: plain.example.net\r\n\r\n".to_vec(),
        ];
        for (i, first) in first_payloads.iter().enumerate() {
            let ip = stack.resolve(
                &format!("host{i}.example.net"),
                Ipv4Addr::new(198, 51, 100, 10 + i as u8),
            );
            let sock = stack.tcp_connect(ip, 443);
            let pair = stack.socket_pair(sock).unwrap();
            let report = SocketReport {
                stream: None,
                apk_sha256: Sha256::digest(b"apk"),
                pair,
                timestamp_micros: stack.clock().now_micros(),
                frames: vec![format!("com.sdk{i}.Net.call")],
            };
            stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
            stack.tcp_exchange(sock, first, 2_000);
            stack.tcp_close(sock);
        }
        let mut capture = stack.into_capture();
        let is_tcp = |packet: &CapturedPacket| {
            matches!(
                decode_frame_ref(&packet.data).map(|frame| frame.transport),
                Ok(TransportRef::Tcp { .. })
            )
        };
        let is_report = |packet: &CapturedPacket| {
            matches!(
                classify_route(&packet.data, config.collector_port),
                Route::Pair(_)
            ) && !is_tcp(packet)
        };
        // The first report goes ahead of the first DNS answer and SYN.
        let report = capture.iter().position(is_report).unwrap();
        capture[..=report].rotate_right(1);
        let first_tcp = capture.iter().position(is_tcp).unwrap();
        capture.push(CapturedPacket {
            timestamp_micros: capture.last().unwrap().timestamp_micros,
            data: vec![0xde, 0xad, 0xbe, 0xef],
        });

        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 3,
                batch_events: 2,
                ..Default::default()
            },
        );
        let before_syn = push_shared(&engine, 0, &capture[..first_tcp]);
        let mid = engine.snapshot();
        assert_eq!(mid.orphaned_reports, 1, "the report waits for its SYN");
        assert!(mid.dns_packets > 0);
        assert_eq!(Arc::strong_count(&before_syn), 1);

        let rest = push_shared(&engine, 0, &capture[first_tcp..]);
        let other_run = push_shared(&engine, 1, &scripted_capture(7));
        let done = engine.snapshot();
        assert_eq!(done.flows, 3 + 3);
        assert_eq!(done.orphaned_reports, 0, "the early report joined");
        assert_eq!((done.flows_tls, done.flows_proxied), (1, 1));
        assert_eq!(done.integrity.frames_lost(), 1);
        for buf in [&before_syn, &rest, &other_run] {
            assert_eq!(Arc::strong_count(buf), 1, "a shard kept frame bytes");
        }
        engine.finish();
    }
}
