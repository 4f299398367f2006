//! Producer-side ingress: peek, route, batch — decode happens on the
//! shard that owns the bytes.
//!
//! Decoding every frame on the pushing thread would make the producer
//! the throughput ceiling, so this module is only the cheap ingress
//! half of a two-phase design:
//!
//! 1. **Peek** — [`spector_netsim::peek_frame`] is the frame decoder's
//!    own header walk without the TCP checksum, so it reads headers
//!    only, never a payload byte, and extracts the 4-tuple;
//!    collector-port datagrams additionally read the report's
//!    *embedded* pair with [`SocketReport::peek_pair`], the report
//!    decoder's own header parse, because a report must land on the
//!    shard that owns its flow's epochs.
//! 2. **Route** — the same stable FNV-1a hash the engine has always
//!    used ([`shard_of`](crate::event::shard_of)); non-collector UDP
//!    (the DNS lane) broadcasts to every shard by `Arc` clone; bytes
//!    the peek cannot route go to a deterministic **fallback shard**
//!    ([`fallback_shard`], hashed from the run id alone) so that
//!    decode-error totals are shard-count-invariant.
//! 3. **Batch** — items accumulate in per-shard buffers and ship as
//!    one [`RawBatch`] channel message per ~[`LiveConfig::batch_events`]
//!    events, amortizing the channel operation.
//!
//! A frame's bytes travel as [`FrameBytes`]: a range of a buffer shared
//! with its neighbours. The ingress paths copy a whole region at once —
//! the records one socket read completed, a run's capture — into one
//! exactly-sized buffer, so they pay one allocation and one copy per
//! region rather than per frame, and routing, broadcast and batching
//! only clone the `Arc`.
//!
//! The **full classified decode** — netsim's frame step
//! ([`CaptureTables::ingest`], with [`FrameErrorKind`] accounting) and
//! the hooks collector step ([`Collected::decode`]) — runs in the shard
//! loop (`shard.rs`), on the shard the bytes were routed to. Each peek
//! is a prefix of its decoder, so routing never lies: bytes the peek
//! rejects fail the decode on the fallback shard, and the one failure a
//! routed frame can still meet, a bad TCP checksum, is counted on
//! exactly one deterministic shard.
//!
//! [`LiveConfig::batch_events`]: crate::LiveConfig::batch_events
//! [`CaptureTables::ingest`]: spector_netsim::CaptureTables::ingest
//! [`FrameErrorKind`]: spector_netsim::FrameErrorKind
//! [`Collected::decode`]: spector_hooks::Collected::decode

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

use spector_hooks::SocketReport;
use spector_netsim::packet::TransportRef;
use spector_netsim::pcap::CapturedPacket;
use spector_netsim::{peek_frame, SocketPair};

use crate::event::Fnv1a;

/// Where one raw frame should go, per the producer's header peek.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Routable: hash `(run, canonical pair)` to a shard.
    Pair(SocketPair),
    /// Non-collector UDP (the DNS lane): every shard gets a copy.
    Broadcast,
    /// The peek could not extract a routing key; the frame goes to the
    /// run's deterministic fallback shard, whose decode will classify
    /// and count the failure exactly once.
    Fallback,
}

/// Classifies one raw frame for routing. `collector_port` decides
/// whether a UDP datagram is a supervisor report (routed by the pair
/// *embedded in the report payload*) or DNS-lane traffic (broadcast).
pub fn classify_route(raw: &[u8], collector_port: u16) -> Route {
    let Some(frame) = peek_frame(raw) else {
        return Route::Fallback;
    };
    match frame.transport {
        TransportRef::Tcp { .. } => Route::Pair(frame.pair),
        TransportRef::Udp { payload } if frame.pair.dst_port == collector_port => {
            SocketReport::peek_pair(payload).map_or(Route::Fallback, Route::Pair)
        }
        TransportRef::Udp { .. } => Route::Broadcast,
    }
}

/// The deterministic home of unroutable bytes: FNV-1a over the run id
/// alone, reduced to a shard index. Depends only on `(run, shards)`,
/// so error accounting is identical for any replay of the same stream
/// at the same width — and the totals are identical at *every* width,
/// because each failed frame is counted on exactly one shard.
pub fn fallback_shard(run: u32, shards: usize) -> usize {
    Fnv1a::new().feed(&run.to_be_bytes()).shard(shards)
}

/// One frame's bytes: a range of a buffer it may share with other
/// frames.
///
/// Cloning is an `Arc` clone. The buffer is freed with its last frame:
/// a shard drops each item once decoded, and nothing the decode feeds
/// (flow heads, pending reports, DNS entries) keeps one. Buffers are
/// sized to the frames they hold, so a frame in flight pins its
/// neighbours' bytes, never spare capacity.
#[derive(Clone)]
pub struct FrameBytes {
    buf: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl FrameBytes {
    /// The frame at `range` of `buf`.
    ///
    /// # Panics
    ///
    /// If `range` is not within `buf`.
    pub fn new(buf: Arc<[u8]>, range: Range<usize>) -> FrameBytes {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "frame range {range:?} outside a {}-byte buffer",
            buf.len()
        );
        FrameBytes {
            buf,
            start: range.start,
            end: range.end,
        }
    }
}

impl From<&[u8]> for FrameBytes {
    /// Copies `bytes` into a buffer of their own.
    fn from(bytes: &[u8]) -> FrameBytes {
        FrameBytes {
            buf: Arc::from(bytes),
            start: 0,
            end: bytes.len(),
        }
    }
}

impl Deref for FrameBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl fmt::Debug for FrameBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One raw frame in flight to a shard: undecoded bytes plus the
/// capture metadata that is not on the wire.
#[derive(Debug, Clone)]
pub struct RawItem {
    /// The app run the frame was observed in.
    pub run: u32,
    /// Capture timestamp, microseconds of virtual time.
    pub timestamp_micros: u64,
    /// True when this item is one copy of a broadcast (DNS-lane)
    /// frame: shard-side decode errors for broadcast copies are
    /// counted on shard 0 only, keeping error totals invariant.
    pub broadcast: bool,
    /// The raw frame bytes; broadcast copies share one buffer.
    pub data: FrameBytes,
}

/// A batch of raw items for one shard — one channel message.
#[derive(Debug, Default)]
pub struct RawBatch {
    /// Items in producer order (per-key order is preserved because one
    /// producer fills one batcher and batches ship FIFO per shard).
    pub items: Vec<RawItem>,
}

/// One raw frame of a pre-built replay stream (bench/service input):
/// the bytes are already in shareable form, so replaying through
/// [`LiveEngine::push_raw_run`] costs a peek and an `Arc` clone per
/// frame, never a copy.
///
/// [`LiveEngine::push_raw_run`]: crate::LiveEngine::push_raw_run
#[derive(Debug, Clone)]
pub struct RawFrame {
    /// Capture timestamp, microseconds of virtual time.
    pub timestamp_micros: u64,
    /// The raw frame bytes, whole or as a range of a shared buffer.
    pub data: FrameBytes,
}

impl RawFrame {
    /// Lifts one captured packet into shareable form: one allocation
    /// and one copy for this frame alone. A caller lifting a whole run
    /// can instead build ranges of one buffer with [`FrameBytes::new`].
    pub fn from_packet(packet: &CapturedPacket) -> RawFrame {
        RawFrame {
            timestamp_micros: packet.timestamp_micros,
            data: FrameBytes::from(packet.data.as_slice()),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use spector_dex::sha256::Sha256;
    use spector_hooks::SupervisorConfig;
    use spector_netsim::packet::decode_frame_ref;
    use spector_netsim::{Clock, NetStack};

    use super::*;
    use crate::event::shard_of;

    fn scripted() -> (Vec<CapturedPacket>, SocketPair, u16) {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("cdn.example.net", Ipv4Addr::new(93, 184, 216, 34));
        let sock = stack.tcp_connect(ip, 443);
        let pair = stack.socket_pair(sock).unwrap();
        let report = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"apk"),
            pair,
            timestamp_micros: stack.clock().now_micros(),
            frames: vec!["com.sdk.Net.call".into()],
        };
        stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        stack.udp_send(config.collector_ip, config.collector_port, b"not a report");
        stack.tcp_transfer(sock, 200, 4_000);
        stack.tcp_close(sock);
        (stack.into_capture(), pair, config.collector_port)
    }

    /// The peek route of every frame agrees with the shard the full
    /// shard-side decode would have chosen.
    #[test]
    fn peek_route_matches_post_decode_routing() {
        let (capture, _, port) = scripted();
        let (run, shards) = (3, 8);
        for packet in &capture {
            let frame = decode_frame_ref(&packet.data).expect("scripted frames decode");
            let decoded = match frame.transport {
                TransportRef::Tcp { .. } => Some(frame.pair),
                TransportRef::Udp { payload } if frame.pair.dst_port == port => {
                    SocketReport::decode(payload).ok().map(|report| report.pair)
                }
                TransportRef::Udp { .. } => None,
            };
            match (classify_route(&packet.data, port), decoded) {
                (Route::Pair(peeked), Some(decoded)) => assert_eq!(
                    shard_of(run, &peeked, shards),
                    shard_of(run, &decoded, shards),
                    "peek route must equal post-decode route"
                ),
                // The DNS lane, and the noise collector datagram that
                // decodes as a frame but not as a report.
                (Route::Broadcast | Route::Fallback, None) => {}
                (route, decoded) => panic!("route {route:?} disagrees with decode {decoded:?}"),
            }
        }
    }

    #[test]
    fn garbage_and_truncation_fall_back_deterministically() {
        let (capture, _, port) = scripted();
        assert_eq!(classify_route(&[0xde, 0xad], port), Route::Fallback);
        let frame = &capture[0].data;
        assert_eq!(
            classify_route(&frame[..frame.len().min(25)], port),
            Route::Fallback
        );
        for shards in [1usize, 2, 4, 8] {
            let shard = fallback_shard(9, shards);
            assert!(shard < shards);
            assert_eq!(shard, fallback_shard(9, shards), "must be deterministic");
        }
        assert_eq!(fallback_shard(0, 1), 0);
    }

    #[test]
    fn collector_noise_falls_back_but_real_reports_route_by_embedded_pair() {
        let (capture, report_pair, port) = scripted();
        let routes: Vec<Route> = capture
            .iter()
            .map(|p| classify_route(&p.data, port))
            .collect();
        // Exactly one fallback: the "not a report" collector datagram.
        assert_eq!(routes.iter().filter(|r| **r == Route::Fallback).count(), 1);
        // The real report routes by its embedded pair, which is the
        // TCP flow's pair — same canonical shard as the flow.
        assert!(routes.contains(&Route::Pair(report_pair)));
    }
}
