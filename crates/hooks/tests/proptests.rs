//! Property tests for the supervisor report codec.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use spector_dex::sha256::Digest;
use spector_hooks::report::SocketReport;
use spector_hooks::{decode_reports_classified, ReportErrorKind};
use spector_netsim::packet::SocketPair;

fn digest() -> impl Strategy<Value = Digest> {
    any::<[u8; 32]>().prop_map(Digest)
}

fn pair() -> impl Strategy<Value = SocketPair> {
    (
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<[u8; 4]>(),
        any::<u16>(),
    )
        .prop_map(|(src, sp, dst, dp)| {
            SocketPair::new(Ipv4Addr::from(src), sp, Ipv4Addr::from(dst), dp)
        })
}

fn ip_any_family() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| IpAddr::V4(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| IpAddr::V6(Ipv6Addr::from(o))),
    ]
}

/// Pairs spanning both families, including mixed-family endpoints.
/// Addresses are folded through [`canonical_ip`] because the wire
/// carries v4-mapped v6 addresses as plain v4 — a pair stored in the
/// non-canonical `::ffff:a.b.c.d` representation roundtrips to its
/// canonical form, so only fold-stable pairs roundtrip byte-exactly.
fn pair_any_family() -> impl Strategy<Value = SocketPair> {
    use spector_netsim::packet::canonical_ip;
    (ip_any_family(), any::<u16>(), ip_any_family(), any::<u16>()).prop_map(|(src, sp, dst, dp)| {
        SocketPair::new(canonical_ip(src), sp, canonical_ip(dst), dp)
    })
}

fn report() -> impl Strategy<Value = SocketReport> {
    (
        digest(),
        pair(),
        any::<u64>(),
        proptest::collection::vec(".{0,80}", 0..24),
    )
        .prop_map(
            |(apk_sha256, pair, timestamp_micros, frames)| SocketReport {
                stream: None,
                apk_sha256,
                pair,
                timestamp_micros,
                frames,
            },
        )
}

/// Reports exercising the SRP2 extensions: any address family and an
/// optional stream ordinal.
fn report_v2() -> impl Strategy<Value = SocketReport> {
    (
        digest(),
        pair_any_family(),
        any::<u64>(),
        proptest::option::of(any::<u32>()),
        proptest::collection::vec(".{0,80}", 0..24),
    )
        .prop_map(
            |(apk_sha256, pair, timestamp_micros, stream, frames)| SocketReport {
                stream,
                apk_sha256,
                pair,
                timestamp_micros,
                frames,
            },
        )
}

proptest! {
    #[test]
    fn roundtrip(original in report()) {
        let decoded = SocketReport::decode(&original.encode()).expect("must decode");
        prop_assert_eq!(decoded, original);
    }

    #[test]
    fn every_encoding_is_detected_as_report(original in report()) {
        prop_assert!(SocketReport::is_report_payload(&original.encode()));
    }

    #[test]
    fn decode_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = SocketReport::decode(&noise);
        let _ = SocketReport::is_report_payload(&noise);
    }

    #[test]
    fn any_truncation_fails_cleanly(original in report(), cut in 0usize..1_000) {
        let bytes = original.encode();
        let cut = cut % bytes.len().max(1);
        if cut < bytes.len() {
            prop_assert!(SocketReport::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn single_byte_append_is_rejected(original in report(), extra in any::<u8>()) {
        let mut bytes = original.encode();
        bytes.push(extra);
        prop_assert!(SocketReport::decode(&bytes).is_err());
    }

    // --- SRP2 extensions: any family, optional stream ordinal.

    #[test]
    fn v2_roundtrip(original in report_v2()) {
        let decoded = SocketReport::decode(&original.encode()).expect("must decode");
        prop_assert_eq!(decoded, original);
    }

    #[test]
    fn v2_every_encoding_is_detected_as_report(original in report_v2()) {
        prop_assert!(SocketReport::is_report_payload(&original.encode()));
    }

    #[test]
    fn v2_peek_pair_matches_decoded_pair(original in report_v2()) {
        let bytes = original.encode();
        // The ingress peek must agree with the full decode for routing
        // to be stable under any shard count.
        prop_assert_eq!(SocketReport::peek_pair(&bytes), Some(original.pair));
    }

    #[test]
    fn v2_every_strict_prefix_classifies_as_truncated(original in report_v2(), cut in 0usize..1_200) {
        let bytes = original.encode();
        let cut = cut % bytes.len().max(1);
        if cut < bytes.len() {
            let error = SocketReport::decode(&bytes[..cut]).unwrap_err();
            prop_assert_eq!(error.kind, ReportErrorKind::Truncated, "cut at {}", cut);
        }
    }

    #[test]
    fn v2_mutations_never_panic_and_always_classify(
        original in report_v2(),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = original.encode();
        for (position, value) in mutations {
            if bytes.is_empty() {
                break;
            }
            let position = position % bytes.len();
            bytes[position] = value;
        }
        if let Err(error) = SocketReport::decode(&bytes) {
            prop_assert!(matches!(
                error.kind,
                ReportErrorKind::Truncated | ReportErrorKind::Malformed
            ));
        }
    }

    #[test]
    fn legacy_shape_reports_never_use_v2(original in report()) {
        // The SRP2 magic appears only when a report actually needs it:
        // a pure-v4 connection-level report must stay byte-compatible
        // with the legacy decoder's expectations.
        let bytes = original.encode();
        prop_assert_eq!(&bytes[..4], b"SRPT");
    }

    // --- classification fuzz: the degraded-mode accounting depends on
    // --- every decode failure landing in the right bucket.

    #[test]
    fn every_strict_prefix_classifies_as_truncated(original in report(), cut in 0usize..1_000) {
        // Holds for any report with < 57 stack frames (the generator
        // caps at 24): a shorter prefix can't end mid-nothing.
        let bytes = original.encode();
        let cut = cut % bytes.len().max(1);
        if cut < bytes.len() {
            let error = SocketReport::decode(&bytes[..cut]).unwrap_err();
            prop_assert_eq!(error.kind, ReportErrorKind::Truncated, "cut at {}", cut);
        }
    }

    #[test]
    fn trailing_garbage_classifies_as_malformed(original in report(), extra in any::<u8>()) {
        let mut bytes = original.encode();
        bytes.push(extra);
        let error = SocketReport::decode(&bytes).unwrap_err();
        prop_assert_eq!(error.kind, ReportErrorKind::Malformed);
    }

    #[test]
    fn arbitrary_mutations_never_panic_and_always_classify(
        original in report(),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = original.encode();
        for (position, value) in mutations {
            if bytes.is_empty() {
                break;
            }
            let position = position % bytes.len();
            bytes[position] = value;
        }
        // Either the mutations canceled out / hit don't-care bytes and
        // the report still decodes, or the error carries a
        // classification; decoding must never panic.
        if let Err(error) = SocketReport::decode(&bytes) {
            prop_assert!(matches!(
                error.kind,
                ReportErrorKind::Truncated | ReportErrorKind::Malformed
            ));
        }
    }

    #[test]
    fn classified_batch_decode_accounts_for_every_payload(
        reports in proptest::collection::vec(report(), 0..6),
        noise in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..6),
    ) {
        let mut payloads: Vec<Vec<u8>> = reports.iter().map(SocketReport::encode).collect();
        payloads.extend(noise);
        let (decoded, errors) = decode_reports_classified(payloads.iter().map(|p| p.as_slice()));
        // Every payload is either decoded or counted as an error —
        // nothing disappears.
        prop_assert_eq!(decoded.len() + errors.total(), payloads.len());
        prop_assert!(decoded.len() >= reports.len());
    }
}
