//! Property tests: the report decoder and the routing peek share one
//! header parse.
//!
//! `reference_decode` is a frozen copy of the decoder as it stood
//! before the header parse was factored out (it copied the payload into
//! a `Bytes` and walked that). The decoder must give the same report, or
//! fail with the same classification, on arbitrary bytes and on every
//! truncation and every single-bit flip of valid SRPT and SRP2 reports.
//! On the same inputs a decoded report's pair is what the peek reads,
//! and a payload the peek rejects fails the decode.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{Buf, Bytes};
use proptest::prelude::*;
use spector_dex::sha256::Digest;
use spector_hooks::report::{SocketReport, REPORT_MAGIC, REPORT_MAGIC_V2};
use spector_hooks::ReportErrorKind;
use spector_netsim::packet::{canonical_ip, SocketPair};

fn get_uleb128(buf: &mut Bytes) -> Result<u64, ReportErrorKind> {
    let mut result: u64 = 0;
    let mut shift = 0;
    loop {
        if !buf.has_remaining() {
            return Err(ReportErrorKind::Truncated);
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(ReportErrorKind::Malformed);
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

/// The decoder before the header parse was factored out, reduced to
/// its outcome: the report, or the failure classification.
fn reference_decode(payload: &[u8]) -> Result<SocketReport, ReportErrorKind> {
    use ReportErrorKind::{Malformed, Truncated};

    let mut buf = Bytes::copy_from_slice(payload);
    if buf.remaining() < 4 {
        return Err(
            if REPORT_MAGIC.starts_with(payload) || REPORT_MAGIC_V2.starts_with(payload) {
                Truncated
            } else {
                Malformed
            },
        );
    }
    let magic = buf.split_to(4);
    let v2 = match &magic[..] {
        m if m == REPORT_MAGIC => false,
        m if m == REPORT_MAGIC_V2 => true,
        _ => return Err(Malformed),
    };
    if buf.remaining() < 32 {
        return Err(Truncated);
    }
    let mut digest = [0u8; 32];
    buf.copy_to_slice(&mut digest);
    let family6 = if v2 {
        if !buf.has_remaining() {
            return Err(Truncated);
        }
        match buf.get_u8() {
            4 => false,
            6 => true,
            _ => return Err(Malformed),
        }
    } else {
        false
    };
    let addr_len = if family6 { 16 } else { 4 };
    if buf.remaining() < 2 * addr_len + 4 + 8 {
        return Err(Truncated);
    }
    let get_ip = |buf: &mut Bytes| -> IpAddr {
        if family6 {
            let mut ip = [0u8; 16];
            buf.copy_to_slice(&mut ip);
            canonical_ip(IpAddr::V6(Ipv6Addr::from(ip)))
        } else {
            let mut ip = [0u8; 4];
            buf.copy_to_slice(&mut ip);
            IpAddr::V4(Ipv4Addr::from(ip))
        }
    };
    let src_ip = get_ip(&mut buf);
    let src_port = buf.get_u16();
    let dst_ip = get_ip(&mut buf);
    let dst_port = buf.get_u16();
    let timestamp_micros = buf.get_u64_le();
    let stream = if v2 {
        match get_uleb128(&mut buf)? {
            0 => None,
            n if n <= u64::from(u32::MAX) => Some((n - 1) as u32),
            _ => return Err(Malformed),
        }
    } else {
        None
    };
    let count = get_uleb128(&mut buf)? as usize;
    if count > payload.len() {
        return Err(Malformed);
    }
    let mut frames = Vec::with_capacity(count);
    for _ in 0..count {
        let len = get_uleb128(&mut buf)? as usize;
        if buf.remaining() < len {
            return Err(Truncated);
        }
        let raw = buf.split_to(len);
        frames.push(std::str::from_utf8(&raw).map_err(|_| Malformed)?.to_owned());
    }
    if buf.has_remaining() {
        return Err(Malformed);
    }
    Ok(SocketReport {
        apk_sha256: Digest(digest),
        pair: SocketPair::new(src_ip, src_port, dst_ip, dst_port),
        timestamp_micros,
        stream,
        frames,
    })
}

/// Both contracts on one input: the decoder agrees with the reference,
/// and the peek agrees with the decode.
fn check(payload: &[u8]) -> Result<(), proptest::TestCaseError> {
    let decoded = SocketReport::decode(payload).map_err(|error| error.kind);
    prop_assert_eq!(
        &decoded,
        &reference_decode(payload),
        "decode moved on {:?}",
        payload
    );
    match (SocketReport::peek_pair(payload), decoded) {
        (peeked, Ok(report)) => prop_assert_eq!(peeked, Some(report.pair)),
        (_, Err(_)) => {}
    }
    Ok(())
}

/// Every strict prefix and every single-bit flip of `bytes`, plus
/// `bytes`.
fn check_damage(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
    check(bytes)?;
    for cut in 0..bytes.len() {
        check(&bytes[..cut])?;
    }
    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped)?;
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

fn ip_any_family() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| IpAddr::V4(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| IpAddr::V6(Ipv6Addr::from(o))),
    ]
}

/// Reports of both layouts: pure-v4 connection-level reports encode as
/// SRPT, anything with a v6 endpoint or a stream ordinal as SRP2.
fn report() -> impl Strategy<Value = SocketReport> {
    (
        any::<[u8; 32]>(),
        (ip_any_family(), any::<u16>(), ip_any_family(), any::<u16>()),
        any::<u64>(),
        proptest::option::of(any::<u32>()),
        proptest::collection::vec(".{0,12}", 0..4),
    )
        .prop_map(
            |(digest, (src, sport, dst, dport), timestamp_micros, stream, frames)| SocketReport {
                apk_sha256: Digest(digest),
                pair: SocketPair::new(canonical_ip(src), sport, canonical_ip(dst), dport),
                timestamp_micros,
                stream,
                frames,
            },
        )
}

/// Arbitrary bytes behind either magic, so the parse gets past it.
fn headed_noise() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(v2, tail)| {
            let magic = if v2 { REPORT_MAGIC_V2 } else { REPORT_MAGIC };
            let mut bytes = magic.to_vec();
            bytes.extend(tail);
            bytes
        })
}

proptest! {
    #[test]
    fn decode_and_peek_hold_on_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        headed in headed_noise(),
    ) {
        check(&noise)?;
        check(&headed)?;
    }

    #[test]
    fn decode_and_peek_hold_on_damaged_reports(original in report()) {
        let bytes = original.encode();
        prop_assert_eq!(SocketReport::decode(&bytes).ok(), Some(original));
        check_damage(&bytes)?;
    }
}
