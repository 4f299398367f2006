//! Property tests: out-of-order report delivery converges, and the
//! producer's peek-based routing agrees with the shard-local decode.
//!
//! The supervisor's report datagrams race the capture path, so the
//! engine may see a report displaced relative to its flow's TCP
//! segments. The property: for any displacement of report datagram
//! frames within a bounded window (in either direction), streamed
//! through the raw-frame path, the final summary is identical to
//! in-order delivery and to the offline analysis of the in-order
//! capture — joins land on the same epochs, duplicates still claim
//! once, and orphans are still counted, never lost.
//!
//! The second family pins the two-phase ingress: for every frame the
//! fault injector can produce (truncated, bit-flipped, reordered) and
//! for raw garbage, the producer's structural header peek routes to
//! the same shard the full decode's canonical 4-tuple would, and
//! undecodable bytes land on the run's deterministic fallback shard.

use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use libspector::experiment::RawRun;
use libspector::knowledge::Knowledge;
use libspector::pipeline::analyze_run;
use proptest::prelude::*;
use spector_dex::sha256::Sha256;
use spector_faults::{perturb_capture, FaultPlan, FaultProfile};
use spector_hooks::{SocketReport, SupervisorConfig};
use spector_live::{
    classify_route, fallback_shard, shard_of, JoinerConfig, LiveConfig, LiveEngine, LiveSummary,
    Route,
};
use spector_netsim::packet::{decode_frame_ref, SocketPair, TransportRef};
use spector_netsim::pcap::CapturedPacket;
use spector_netsim::{Clock, NetStack};

/// Maximum displacement (in frames, either direction) a report may
/// suffer relative to its in-order position.
const WINDOW: usize = 12;

/// Builds one run: `transfers.len()` flows, each with its own report
/// datagram, plus `orphans` reports whose 4-tuples never carry
/// packets. Deterministic in its arguments.
fn scripted_capture(transfers: &[(u64, u64)], orphans: usize) -> (Vec<CapturedPacket>, u16) {
    let config = SupervisorConfig::default();
    let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
    for (i, &(sent, recv)) in transfers.iter().enumerate() {
        let domain = format!("svc{i}.example.net");
        let ip = stack.resolve(&domain, Ipv4Addr::new(198, 51, 100, (i + 1) as u8));
        let sock = stack.tcp_connect(ip, 443);
        let pair = stack.socket_pair(sock).unwrap();
        let report = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"prop-apk"),
            pair,
            timestamp_micros: stack.clock().now_micros(),
            frames: vec![
                "java.net.Socket.connect".into(),
                format!("com.vendor{i}.sdk.Net.call"),
            ],
        };
        stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        stack.tcp_transfer(sock, sent, recv);
        stack.tcp_close(sock);
    }
    for i in 0..orphans {
        let orphan = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"prop-apk"),
            pair: SocketPair::new(
                Ipv4Addr::new(10, 0, 2, 15),
                61_000 + i as u16,
                Ipv4Addr::new(203, 0, 113, (i + 1) as u8),
                443,
            ),
            timestamp_micros: stack.clock().now_micros(),
            frames: vec!["com.lost.Sdk.go".into()],
        };
        stack.udp_send(config.collector_ip, config.collector_port, &orphan.encode());
    }
    (stack.into_capture(), config.collector_port)
}

/// Like [`scripted_capture`] but exercising the modern socket shapes
/// end to end on the wire: IPv6 flows whose reports travel as "SRP2"
/// datagrams (16-byte addresses), pooled connections with one
/// per-stream report each, a TLS-like hello carrying an SNI, and a
/// CONNECT tunnel preamble. Deterministic in its arguments.
fn scripted_modern_capture(transfers: &[(u64, u64)]) -> (Vec<CapturedPacket>, u16) {
    use spector_netsim::shape::{encode_connect_preamble, encode_tls_hello};
    let config = SupervisorConfig::default();
    let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
    let report_for = |pair, stream, now, i: usize| SocketReport {
        stream,
        apk_sha256: Sha256::digest(b"prop-apk"),
        pair,
        timestamp_micros: now,
        frames: vec![
            "java.net.Socket.connect".into(),
            format!("com.vendor{i}.sdk.Net.call"),
        ],
    };
    for (i, &(sent, recv)) in transfers.iter().enumerate() {
        let v6 = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, (i + 1) as u16);
        stack.resolve6(&format!("v6svc{i}.example.net"), v6);
        let sock = stack.tcp_connect(v6, 443);
        let pair = stack.socket_pair(sock).unwrap();
        // Pooled: two logical streams on the one 4-tuple, one SRP2
        // report per stream ordinal.
        for stream in 0..2u32 {
            let report = report_for(pair, Some(stream), stack.clock().now_micros(), i);
            stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        }
        stack.tcp_transfer(sock, sent, recv);
        stack.tcp_close(sock);
    }
    // One TLS-like flow (SNI in the clear) and one CONNECT tunnel.
    let tls = stack.tcp_connect(Ipv4Addr::new(198, 51, 100, 250), 443);
    let tls_pair = stack.socket_pair(tls).unwrap();
    let report = report_for(tls_pair, None, stack.clock().now_micros(), 90);
    stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
    stack.tcp_exchange(tls, &encode_tls_hello("mixed.tracker.example"), 900);
    stack.tcp_close(tls);
    let tunnel = stack.tcp_connect(Ipv4Addr::new(10, 0, 2, 88), 3128);
    let tunnel_pair = stack.socket_pair(tunnel).unwrap();
    let report = report_for(tunnel_pair, None, stack.clock().now_micros(), 91);
    stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
    stack.tcp_exchange(
        tunnel,
        &encode_connect_preamble("hidden.example.net", 443),
        300,
    );
    stack.tcp_close(tunnel);
    (stack.into_capture(), config.collector_port)
}

/// Displaces each report datagram frame by a bounded signed offset
/// (derived from `offsets`, raw values in `0..=2*WINDOW` mapping to
/// `-WINDOW..=WINDOW`), keeping every other frame in capture order —
/// the per-key FIFO assumption the engine documents.
fn displace(capture: &[CapturedPacket], port: u16, offsets: &[usize]) -> Vec<CapturedPacket> {
    let mut keyed: Vec<(usize, usize, &CapturedPacket)> = Vec::with_capacity(capture.len());
    let mut report_no = 0usize;
    for (i, packet) in capture.iter().enumerate() {
        let is_report = matches!(
            decode_frame_ref(&packet.data),
            Ok(frame) if matches!(frame.transport, TransportRef::Udp { .. })
                && frame.pair.dst_port == port
        );
        let key = if is_report {
            let raw = offsets[report_no % offsets.len()];
            report_no += 1;
            let shift = raw as isize - WINDOW as isize;
            (i as isize + shift).clamp(0, capture.len() as isize - 1) as usize
        } else {
            i
        };
        keyed.push((key, i, packet));
    }
    keyed.sort_by_key(|&(key, seq, _)| (key, seq));
    keyed
        .into_iter()
        .map(|(_, _, packet)| packet.clone())
        .collect()
}

/// Streams one run's frames through a never-evict engine: displaced
/// reports must pend, not expire, so convergence is exact.
fn run_engine(capture: &[CapturedPacket], knowledge: &Knowledge, shards: usize) -> LiveSummary {
    let engine = LiveEngine::start(
        Arc::new(knowledge.clone()),
        LiveConfig {
            shards,
            joiner: JoinerConfig {
                pending_ttl_micros: u64::MAX,
            },
            ..Default::default()
        },
    );
    engine.push_run(0, capture);
    engine.finish()
}

/// The offline pipeline's answer for one in-order capture.
fn offline_view(capture: &[CapturedPacket], knowledge: &Knowledge, port: u16) -> LiveSummary {
    let raw = RawRun {
        package: "com.prop.app".into(),
        app_category: "Tools".into(),
        apk_sha256: Sha256::digest(b"prop-apk"),
        capture: capture.to_vec(),
        executed_methods: Default::default(),
        monkey: Default::default(),
        runtime_stats: Default::default(),
        duration_micros: 0,
    };
    LiveSummary::from_analyses(&[analyze_run(&raw, knowledge, port)])
}

fn knowledge() -> Knowledge {
    Knowledge::new(Default::default(), Default::default(), Default::default())
}

/// Pins the two-phase-ingress routing contract for one frame: the
/// producer's structural peek and the shard-local full decode must
/// never disagree about where the bytes belong.
///
/// * `Fallback` never swallows a routable frame — the bytes fail the
///   full decode too (or decode as a collector datagram whose report
///   cannot be parsed), and the fallback shard is deterministic and
///   in range at every width.
/// * `Broadcast` only ever covers the DNS lane (non-collector UDP).
/// * `Pair` routes hash to the same shard the post-decode canonical
///   4-tuple (for reports: the pair *embedded in the payload*) would
///   have chosen, at every width.
fn assert_route_agrees(raw: &[u8], run: u32, port: u16) {
    match classify_route(raw, port) {
        Route::Fallback => {
            match decode_frame_ref(raw) {
                Err(_) => {}
                Ok(frame) => match frame.transport {
                    TransportRef::Udp { payload } if frame.pair.dst_port == port => {
                        assert!(
                            SocketReport::decode(payload).is_err(),
                            "peek fell back on a decodable report"
                        );
                    }
                    _ => panic!("peek fell back on a routable frame"),
                },
            }
            for shards in [1usize, 2, 4, 8] {
                let home = fallback_shard(run, shards);
                assert!(home < shards, "fallback shard out of range");
                assert_eq!(home, fallback_shard(run, shards), "must be deterministic");
            }
        }
        Route::Broadcast => {
            if let Ok(frame) = decode_frame_ref(raw) {
                match frame.transport {
                    TransportRef::Udp { .. } => assert_ne!(
                        frame.pair.dst_port, port,
                        "collector datagram leaked onto the broadcast lane"
                    ),
                    _ => panic!("broadcast route for a non-UDP frame"),
                }
            }
        }
        Route::Pair(peeked) => {
            if let Ok(frame) = decode_frame_ref(raw) {
                let expected = match frame.transport {
                    TransportRef::Tcp { .. } => Some(frame.pair),
                    TransportRef::Udp { payload } if frame.pair.dst_port == port => {
                        // A report that peeked but fails the deeper
                        // decode (e.g. cut after byte 48) is counted on
                        // the shard owning the peeked pair; there is no
                        // post-decode pair to compare against.
                        SocketReport::decode(payload).ok().map(|report| report.pair)
                    }
                    TransportRef::Udp { .. } => panic!("DNS-lane frame routed by pair"),
                };
                if let Some(expected) = expected {
                    for shards in [1usize, 2, 4, 8] {
                        assert_eq!(
                            shard_of(run, &peeked, shards),
                            shard_of(run, &expected, shards),
                            "peek route hash disagrees with post-decode hash"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    /// The routing contract holds for every frame `spector-faults` can
    /// produce — truncations, bit flips, duplications, reorders — at
    /// any chaos seed, plus raw garbage that was never a frame.
    #[test]
    fn peek_route_agrees_with_post_decode_for_any_frame(
        transfers in proptest::collection::vec((0u64..5_000, 0u64..30_000), 1..4),
        orphans in 0usize..2,
        seed in 0u64..1_000_000,
        index in 0usize..64,
        attempt in 0u32..3,
        run in 0u32..1_000,
        garbage in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..96), 0..4),
    ) {
        let (capture, port) = scripted_capture(&transfers, orphans);
        let plan = FaultPlan::new(seed, FaultProfile::heavy());
        let (perturbed, _) = perturb_capture(&plan, index, attempt, capture, port);
        for packet in &perturbed {
            assert_route_agrees(&packet.data, run, port);
        }
        for blob in &garbage {
            assert_route_agrees(blob, run, port);
        }
    }

    /// The same routing contract for the modern shapes: IPv6 frames,
    /// "SRP2" per-stream report datagrams, TLS-like hellos, and
    /// CONNECT preambles — again under the full fault injector plus
    /// raw garbage. The peek reads 16-byte addresses off the v6 header
    /// and the embedded pair out of SRP2 reports; it must land on the
    /// shard the post-decode pair hashes to, at every width.
    #[test]
    fn peek_route_agrees_with_post_decode_for_modern_frames(
        transfers in proptest::collection::vec((0u64..5_000, 0u64..30_000), 1..4),
        seed in 0u64..1_000_000,
        index in 0usize..64,
        attempt in 0u32..3,
        run in 0u32..1_000,
    ) {
        let (capture, port) = scripted_modern_capture(&transfers);
        let plan = FaultPlan::new(seed, FaultProfile::heavy());
        let (perturbed, _) = perturb_capture(&plan, index, attempt, capture, port);
        for packet in &perturbed {
            assert_route_agrees(&packet.data, run, port);
        }
    }

    /// Chaos-damaged *modern* streams (v6 + pooled SRP2 reports +
    /// TLS-like + CONNECT) summarize identically — volumes, shape
    /// counters, and error ledgers — at every shard width.
    #[test]
    fn perturbed_modern_summaries_are_shard_count_invariant(
        transfers in proptest::collection::vec((0u64..5_000, 0u64..30_000), 1..4),
        seed in 0u64..1_000_000,
    ) {
        let (capture, port) = scripted_modern_capture(&transfers);
        let plan = FaultPlan::new(seed, FaultProfile::heavy());
        let (perturbed, _) = perturb_capture(&plan, 0, 0, capture, port);
        let knowledge = Arc::new(knowledge());
        let summarize = |shards: usize, batch_events: usize| {
            let engine = LiveEngine::start(
                Arc::clone(&knowledge),
                LiveConfig { shards, batch_events, ..Default::default() },
            );
            engine.push_run(5, &perturbed);
            engine.finish()
        };
        let one = summarize(1, 1);
        prop_assert_eq!(one.events, perturbed.len() as u64);
        for (shards, batch_events) in [(2, 3), (4, 64), (8, 7)] {
            let wide = summarize(shards, batch_events);
            prop_assert_eq!(&wide, &one,
                "width {} batch {} diverged", shards, batch_events);
        }
    }

    /// Chaos-damaged streams produce identical summaries — volumes
    /// *and* the frame/report error ledgers — at every shard width
    /// through the batched ingress.
    #[test]
    fn perturbed_summaries_are_shard_count_invariant(
        transfers in proptest::collection::vec((0u64..5_000, 0u64..30_000), 1..4),
        seed in 0u64..1_000_000,
    ) {
        let (capture, port) = scripted_capture(&transfers, 1);
        let plan = FaultPlan::new(seed, FaultProfile::heavy());
        let (perturbed, _) = perturb_capture(&plan, 0, 0, capture, port);
        let knowledge = Arc::new(knowledge());
        let summarize = |shards: usize, batch_events: usize| {
            let engine = LiveEngine::start(
                Arc::clone(&knowledge),
                LiveConfig { shards, batch_events, ..Default::default() },
            );
            engine.push_run(5, &perturbed);
            engine.finish()
        };
        let one = summarize(1, 1);
        prop_assert_eq!(one.events, perturbed.len() as u64,
            "every raw frame counts at ingress, decodable or not");
        for (shards, batch_events) in [(2, 3), (4, 64), (8, 7)] {
            let wide = summarize(shards, batch_events);
            prop_assert_eq!(&wide, &one,
                "width {} batch {} diverged", shards, batch_events);
        }
    }
}

proptest! {
    #[test]
    fn shuffled_reports_converge_to_in_order_summary(
        transfers in proptest::collection::vec((0u64..6_000, 0u64..40_000), 1..6),
        orphans in 0usize..3,
        offsets in proptest::collection::vec(0usize..(2 * WINDOW + 1), 1..16),
    ) {
        let (capture, port) = scripted_capture(&transfers, orphans);
        let knowledge = knowledge();
        let shuffled = displace(&capture, port, &offsets);

        let baseline = run_engine(&capture, &knowledge, 1);
        let converged = run_engine(&shuffled, &knowledge, 1);
        prop_assert_eq!(&converged, &baseline,
            "bounded reordering must not change the final summary");
        prop_assert_eq!(converged.offline_view(), offline_view(&capture, &knowledge, port));
        prop_assert_eq!(baseline.flows, transfers.len());
        prop_assert_eq!(baseline.unjoined_reports(), orphans,
            "every flowless report stays visible as orphaned/evicted");
        prop_assert_eq!(converged.evicted_reports, 0,
            "an infinite TTL never evicts");
    }

    #[test]
    fn sharded_engine_converges_on_shuffled_input(
        transfers in proptest::collection::vec((0u64..6_000, 0u64..40_000), 1..5),
        orphans in 0usize..2,
        offsets in proptest::collection::vec(0usize..(2 * WINDOW + 1), 1..12),
    ) {
        let (capture, port) = scripted_capture(&transfers, orphans);
        let knowledge = knowledge();
        let shuffled = displace(&capture, port, &offsets);

        let baseline = run_engine(&capture, &knowledge, 1);
        let one = run_engine(&shuffled, &knowledge, 1);
        let three = run_engine(&shuffled, &knowledge, 3);
        prop_assert_eq!(&one, &baseline);
        prop_assert_eq!(&three, &baseline);
        prop_assert_eq!(three.offline_view(), offline_view(&capture, &knowledge, port));
    }
}
