//! Property tests: wire formats survive roundtrips; flow accounting
//! conserves bytes for arbitrary transfer schedules.

use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use spector_netsim::capture::CaptureIndex;
use spector_netsim::clock::Clock;
use spector_netsim::dns::{encode_query, encode_response, parse_message};
use spector_netsim::packet::{decode_frame_ref, encode_tcp, encode_udp, SocketPair, TransportRef};
use spector_netsim::pcap::{read_pcap, write_pcap, CapturedPacket};
use spector_netsim::stack::NetStack;

#[path = "support/walks.rs"]
mod walks;

fn ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn pair() -> impl Strategy<Value = SocketPair> {
    (ip(), any::<u16>(), ip(), any::<u16>())
        .prop_map(|(si, sp, di, dp)| SocketPair::new(si, sp, di, dp))
}

/// Arbitrary IPv6 address: mostly pure v6, but a slice of the space is
/// v4-mapped (`::ffff:a.b.c.d`) so the canonical-fold path is always
/// exercised.
fn ip6() -> impl Strategy<Value = Ipv6Addr> {
    (any::<[u8; 16]>(), any::<u8>()).prop_map(|(raw, pick)| {
        if pick % 5 == 0 {
            Ipv4Addr::new(raw[0], raw[1], raw[2], raw[3]).to_ipv6_mapped()
        } else {
            Ipv6Addr::from(raw)
        }
    })
}

fn pair6() -> impl Strategy<Value = SocketPair> {
    (ip6(), any::<u16>(), ip6(), any::<u16>())
        .prop_map(|(si, sp, di, dp)| SocketPair::new(si, sp, di, dp))
}

/// Decoders keep the on-wire v6 form (v4-mapped members included);
/// folding is `SocketPair::canonical`'s job. This pins the second half
/// of that contract: a canonicalized pair never retains a v4-mapped
/// member.
fn assert_canonical_folds(pair: &SocketPair) -> Result<(), proptest::TestCaseError> {
    let canon = pair.canonical();
    for ip in [canon.src_ip, canon.dst_ip] {
        if let std::net::IpAddr::V6(v6) = ip {
            prop_assert!(
                v6.to_ipv4_mapped().is_none(),
                "canonical pair kept a v4-mapped member: {}",
                v6
            );
        }
    }
    Ok(())
}

fn domain() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,12}", 1..5).prop_map(|l| l.join("."))
}

proptest! {
    #[test]
    fn tcp_frame_roundtrip(p in pair(), seq in any::<u32>(), ack in any::<u32>(),
                           flags in 0u8..32, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let raw = encode_tcp(&p, seq, ack, flags, &payload);
        let frame = decode_frame_ref(&raw).expect("encoded frame must decode");
        prop_assert_eq!(frame.pair, p);
        match frame.transport {
            TransportRef::Tcp { seq: s, ack: a, flags: f, payload: pl } => {
                prop_assert_eq!(s, seq);
                prop_assert_eq!(a, ack);
                prop_assert_eq!(f, flags);
                prop_assert_eq!(pl, payload);
            }
            other => prop_assert!(false, "expected tcp, got {:?}", other),
        }
    }

    #[test]
    fn udp_frame_roundtrip(p in pair(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let raw = encode_udp(&p, &payload);
        let frame = decode_frame_ref(&raw).expect("encoded frame must decode");
        prop_assert_eq!(frame.pair, p);
        match frame.transport {
            TransportRef::Udp { payload: pl } => prop_assert_eq!(pl, payload),
            other => prop_assert!(false, "expected udp, got {:?}", other),
        }
    }

    #[test]
    fn single_bit_corruption_detected_or_benign(p in pair(),
                                                payload in proptest::collection::vec(any::<u8>(), 1..64),
                                                bit in 0usize..300) {
        // Flipping any bit in the IP/TCP region must either fail checksum
        // validation or (for MAC bytes) decode identically sans MACs.
        let raw = encode_tcp(&p, 1, 2, 0x18, &payload);
        let bit = bit % (raw.len() * 8);
        let mut corrupted = raw.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        match decode_frame_ref(&corrupted) {
            Err(_) => {} // rejected: good
            Ok(frame) => {
                // Only corruption within the 12 MAC bytes can decode:
                // everything after is covered by a checksum.
                prop_assert!(bit / 8 < 12,
                    "undetected corruption at byte {} decoded {:?}", bit / 8, frame.pair);
            }
        }
    }

    #[test]
    fn frame_decode_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame_ref(&noise);
    }

    #[test]
    fn truncated_frames_classify_as_truncated(p in pair(),
                                              payload in proptest::collection::vec(any::<u8>(), 0..256),
                                              cut in 0usize..1_000) {
        // Any strict prefix of a valid frame is Truncated — with two
        // carve-outs baked into the wire format itself: a cut inside
        // the IP header invalidates its checksum before the length
        // checks run (BadChecksum), and a cut just past the IP header
        // leaves a valid-looking IP packet whose total-length field
        // exceeds what's left (also caught, as Truncated).
        use spector_netsim::packet::FrameErrorKind;
        let raw = encode_tcp(&p, 1, 2, 0x18, &payload);
        let cut = cut % raw.len();
        match decode_frame_ref(&raw[..cut]) {
            Err(error) => prop_assert!(
                matches!(error.kind, FrameErrorKind::Truncated | FrameErrorKind::BadChecksum),
                "cut {} classified {:?}", cut, error.kind
            ),
            Ok(_) => prop_assert!(false, "a strict prefix must not decode (cut {})", cut),
        }
    }

    #[test]
    fn pcap_decode_never_panics_and_classifies(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        use spector_netsim::pcap::PcapErrorKind;
        if let Err(error) = read_pcap(&noise) {
            prop_assert!(matches!(
                error.kind,
                PcapErrorKind::Truncated | PcapErrorKind::Malformed
            ));
        }
    }

    #[test]
    fn truncated_pcap_classifies_as_truncated(specs in proptest::collection::vec(
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)), 1..8),
        cut in 0usize..10_000) {
        use spector_netsim::pcap::PcapErrorKind;
        let packets: Vec<CapturedPacket> = specs
            .into_iter()
            .map(|(ts, data)| CapturedPacket { timestamp_micros: u64::from(ts), data })
            .collect();
        let bytes = write_pcap(&packets);
        let cut = cut % bytes.len();
        match read_pcap(&bytes[..cut]) {
            // A cut at a record boundary is a shorter-but-valid file.
            Ok(parsed) => prop_assert!(parsed.len() < packets.len()),
            Err(error) => prop_assert_eq!(error.kind, PcapErrorKind::Truncated, "cut {}", cut),
        }
    }

    #[test]
    fn dns_roundtrip(id in any::<u16>(), name in domain(), a in ip(), ttl in any::<u32>()) {
        let q = parse_message(&encode_query(id, &name)).expect("query must parse");
        prop_assert_eq!(&q.questions[..], std::slice::from_ref(&name));
        prop_assert!(!q.is_response);
        let r = parse_message(&encode_response(id, &name, a, ttl)).expect("response must parse");
        prop_assert!(r.is_response);
        prop_assert_eq!(&r.answers[..], &[(name, std::net::IpAddr::V4(a), ttl)]);
    }

    #[test]
    fn dns_parse_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = parse_message(&noise);
    }

    #[test]
    fn pcap_roundtrip(specs in proptest::collection::vec(
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)), 0..16)) {
        let packets: Vec<CapturedPacket> = specs
            .into_iter()
            .map(|(ts, data)| CapturedPacket { timestamp_micros: u64::from(ts), data })
            .collect();
        let parsed = read_pcap(&write_pcap(&packets)).expect("written pcap must parse");
        prop_assert_eq!(parsed, packets);
    }

    #[test]
    fn flow_accounting_conserves_payload(transfers in proptest::collection::vec(
        (0u64..20_000, 0u64..200_000), 1..8)) {
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let mut expected = Vec::new();
        for (i, &(sent, recv)) in transfers.iter().enumerate() {
            let dst = Ipv4Addr::new(198, 51, 100, (i + 1) as u8);
            let sock = stack.tcp_connect(dst, 443);
            stack.tcp_transfer(sock, sent, recv);
            stack.tcp_close(sock);
            expected.push((stack.socket_pair(sock).unwrap(), sent, recv));
        }
        let table = walks::flow_table(stack.capture());
        prop_assert_eq!(table.len(), transfers.len());
        for (pair, sent, recv) in expected {
            let flow = table.lookup(&pair, u64::MAX).expect("flow must exist");
            prop_assert_eq!(flow.sent_payload_bytes, sent);
            prop_assert_eq!(flow.recv_payload_bytes, recv);
            prop_assert!(flow.sent_wire_bytes >= sent);
            prop_assert!(flow.recv_wire_bytes >= recv);
        }
    }

    #[test]
    fn capture_index_matches_independent_passes(
        transfers in proptest::collection::vec((0u64..8_000, 0u64..50_000), 0..5),
        datagrams in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        domains in proptest::collection::btree_set(domain(), 0..5),
    ) {
        const COLLECTOR: u16 = 47_000;
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        // Interleave DNS, TCP transfers, and UDP datagrams (half of them
        // to the collector port) so every view sees mixed traffic.
        for (i, d) in domains.iter().enumerate() {
            stack.resolve(d, Ipv4Addr::new(203, 0, 113, (i % 250 + 1) as u8));
        }
        for (i, &(sent, recv)) in transfers.iter().enumerate() {
            let sock = stack.tcp_connect(Ipv4Addr::new(198, 51, 100, (i + 1) as u8), 443);
            stack.tcp_transfer(sock, sent, recv);
            stack.tcp_close(sock);
            if let Some(payload) = datagrams.get(i) {
                stack.udp_send(Ipv4Addr::new(10, 0, 2, 2), COLLECTOR, payload);
            }
        }
        for (i, payload) in datagrams.iter().enumerate().skip(transfers.len()) {
            let port = if i % 2 == 0 { COLLECTOR } else { 9_999 };
            stack.udp_send(Ipv4Addr::new(10, 0, 2, 2), port, payload);
        }
        let mut capture = stack.into_capture();
        capture.push(CapturedPacket { timestamp_micros: 5, data: vec![0xba, 0xad, 0xf0] });

        // One decode pass must equal the three independent walks.
        let index = CaptureIndex::build(&capture, COLLECTOR);
        prop_assert_eq!(&index.flows, &walks::flow_table(&capture));
        prop_assert_eq!(&index.dns, &walks::dns_map(&capture));

        let mut expected: Vec<Vec<u8>> = Vec::new();
        for packet in &capture {
            if let Ok(frame) = decode_frame_ref(&packet.data) {
                if let TransportRef::Udp { payload } = frame.transport {
                    if frame.pair.dst_port == COLLECTOR {
                        expected.push(payload.to_vec());
                    }
                }
            }
        }
        let got: Vec<Vec<u8>> = index.report_payloads.iter().map(|p| p.to_vec()).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn dns_map_tracks_all_resolutions(domains in proptest::collection::btree_set(domain(), 1..10)) {
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let mut assigned = Vec::new();
        for (i, d) in domains.iter().enumerate() {
            let ip = Ipv4Addr::new(203, 0, (i / 250) as u8, (i % 250 + 1) as u8);
            stack.resolve(d, ip);
            assigned.push((d.clone(), ip));
        }
        let map = walks::dns_map(stack.capture());
        for (d, ip) in assigned {
            prop_assert_eq!(map.domain_for(ip), Some(d.as_str()));
        }
    }
}

// --- Modern socket shapes: IPv6 frames, TLS-like records, CONNECT ---

proptest! {
    #[test]
    fn v6_tcp_frame_roundtrip(p in pair6(), seq in any::<u32>(), ack in any::<u32>(),
                              flags in 0u8..32,
                              payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let raw = encode_tcp(&p, seq, ack, flags, &payload);
        let frame = decode_frame_ref(&raw).expect("encoded v6 frame must decode");
        prop_assert_eq!(frame.pair, p, "decode keeps the on-wire v6 form");
        assert_canonical_folds(&frame.pair)?;
        match frame.transport {
            TransportRef::Tcp { seq: s, ack: a, flags: f, payload: pl } => {
                prop_assert_eq!(s, seq);
                prop_assert_eq!(a, ack);
                prop_assert_eq!(f, flags);
                prop_assert_eq!(pl, payload);
            }
            other => prop_assert!(false, "expected tcp, got {:?}", other),
        }
    }

    #[test]
    fn v6_udp_frame_roundtrip(p in pair6(),
                              payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let raw = encode_udp(&p, &payload);
        let frame = decode_frame_ref(&raw).expect("encoded v6 frame must decode");
        prop_assert_eq!(frame.pair, p, "decode keeps the on-wire v6 form");
        assert_canonical_folds(&frame.pair)?;
        match frame.transport {
            TransportRef::Udp { payload: pl } => prop_assert_eq!(pl, payload),
            other => prop_assert!(false, "expected udp, got {:?}", other),
        }
    }

    #[test]
    fn v6_truncated_frames_never_decode_and_classify(
        p in pair6(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..2_000,
    ) {
        // IPv6 has no header checksum, so every strict prefix must be
        // caught by a length check — never by accident, never a panic.
        use spector_netsim::packet::FrameErrorKind;
        let raw = encode_tcp(&p, 1, 2, 0x18, &payload);
        let cut = cut % raw.len();
        match decode_frame_ref(&raw[..cut]) {
            Err(error) => prop_assert!(
                matches!(
                    error.kind,
                    FrameErrorKind::Truncated
                        | FrameErrorKind::Malformed
                        | FrameErrorKind::BadChecksum
                ),
                "cut {} classified {:?}", cut, error.kind
            ),
            Ok(_) => prop_assert!(false, "a strict prefix must not decode (cut {})", cut),
        }
    }

    #[test]
    fn v6_corruption_detected_or_decodes_identically(
        p in pair6(),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        bit in 0usize..4_000,
    ) {
        // Without an IP header checksum the v6 header tolerates flips in
        // fields the pipeline never reads (MACs, traffic class, flow
        // label, hop limit). The safety property: any flip that still
        // decodes leaves the 4-tuple and the whole TCP view intact —
        // those are covered by the pseudo-header checksum.
        let raw = encode_tcp(&p, 1, 2, 0x18, &payload);
        let bit = bit % (raw.len() * 8);
        let mut corrupted = raw.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        if let Ok(frame) = decode_frame_ref(&corrupted) {
            prop_assert_eq!(frame.pair, p, "undetected flip moved the 4-tuple");
            match frame.transport {
                TransportRef::Tcp { seq, ack, flags, payload: pl } => {
                    prop_assert_eq!(seq, 1);
                    prop_assert_eq!(ack, 2);
                    prop_assert_eq!(flags, 0x18);
                    prop_assert_eq!(pl, payload);
                }
                other => prop_assert!(false, "expected tcp, got {:?}", other),
            }
        }
    }

    #[test]
    fn tls_hello_roundtrips_for_any_sni(sni in "[a-z0-9.-]{1,64}",
                                        total in 0u64..60_000) {
        use spector_netsim::shape::{
            classify_shape, encode_tls_hello, encode_tls_records, parse_sni, FlowShape,
        };
        let mut bytes = encode_tls_hello(&sni);
        prop_assert_eq!(parse_sni(&bytes), Some(sni.as_str()));
        prop_assert_eq!(classify_shape(&bytes), FlowShape::TlsLike);
        // Trailing app-data records never disturb the hello (prefix rule).
        bytes.extend_from_slice(&encode_tls_records(total));
        prop_assert_eq!(parse_sni(&bytes), Some(sni.as_str()));
        prop_assert_eq!(classify_shape(&bytes), FlowShape::TlsLike);
    }

    #[test]
    fn tls_records_hit_byte_budget_and_walk_cleanly(total in 0u64..200_000) {
        use spector_netsim::shape::{
            encode_tls_records, TLS_APPDATA, TLS_RECORD_MAX, TLS_VERSION,
        };
        let out = encode_tls_records(total);
        // Headers count toward the budget; overshoot is < one header.
        prop_assert!(out.len() as u64 >= total.max(5));
        prop_assert!((out.len() as u64) < total.max(5) + 5);
        let mut i = 0usize;
        while i < out.len() {
            prop_assert_eq!(out[i], TLS_APPDATA, "record {} has wrong type byte", i);
            prop_assert_eq!(&out[i + 1..i + 3], &TLS_VERSION[..]);
            let len = usize::from(u16::from_be_bytes([out[i + 3], out[i + 4]]));
            prop_assert!(len <= TLS_RECORD_MAX);
            i += 5 + len;
        }
        prop_assert_eq!(i, out.len(), "record walk must land exactly on the end");
    }

    #[test]
    fn connect_preamble_roundtrips_for_any_target(host in "[a-z0-9.-]{1,48}",
                                                  port in any::<u16>()) {
        use spector_netsim::shape::{
            classify_shape, encode_connect_preamble, parse_connect, FlowShape,
        };
        let raw = encode_connect_preamble(&host, port);
        prop_assert_eq!(parse_connect(&raw), Some((host.as_str(), port)));
        prop_assert_eq!(classify_shape(&raw), FlowShape::ConnectProxy);
    }

    #[test]
    fn shape_parsers_total_on_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        use spector_netsim::shape::{classify_shape, parse_connect, parse_sni};
        // Totality: attacker-controlled first payloads never panic, and
        // classification always lands on a shape.
        let _ = parse_sni(&noise);
        let _ = parse_connect(&noise);
        let _ = classify_shape(&noise);
    }

    #[test]
    fn mutated_shape_payloads_never_panic(
        sni in "[a-z0-9.-]{1,32}",
        host in "[a-z0-9.-]{1,32}",
        port in any::<u16>(),
        bit in 0usize..4_000,
        cut in 0usize..4_000,
    ) {
        use spector_netsim::shape::{
            classify_shape, encode_connect_preamble, encode_tls_hello, parse_connect,
            parse_sni,
        };
        for original in [encode_tls_hello(&sni), encode_connect_preamble(&host, port)] {
            let mut flipped = original.clone();
            let b = bit % (flipped.len() * 8);
            flipped[b / 8] ^= 1 << (b % 8);
            let truncated = &original[..cut % (original.len() + 1)];
            for bytes in [&flipped[..], truncated] {
                let _ = parse_sni(bytes);
                let _ = parse_connect(bytes);
                let _ = classify_shape(bytes);
            }
        }
    }
}
