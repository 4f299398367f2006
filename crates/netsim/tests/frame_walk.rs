//! Property tests: the frame decoder and the routing peek share one
//! header walk.
//!
//! `reference_decode` is a frozen copy of the decoder as it stood
//! before the walk was factored out, checks in their original order.
//! The decoder must give the same frame, or fail with the same
//! classification, on arbitrary bytes and on every truncation and
//! every single-bit flip of valid v4/v6 TCP/UDP frames. On the same
//! inputs the peek must be the decode without its TCP checksum.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use spector_netsim::packet::{
    decode_frame_ref, encode_tcp, encode_udp, peek_frame, FrameErrorKind, FrameRef, SocketPair,
    TransportRef, ETHERTYPE_IPV4, ETHERTYPE_IPV6, ETH_HEADER_LEN, IPV4_HEADER_LEN, IPV6_HEADER_LEN,
    TCP_HEADER_LEN, UDP_HEADER_LEN,
};

fn internet_checksum(initial: u32, data: &[u8]) -> u16 {
    let mut sum = initial;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

fn sum_words(data: &[u8]) -> u32 {
    data.chunks_exact(2)
        .map(|c| u32::from(u16::from_be_bytes([c[0], c[1]])))
        .sum()
}

fn pseudo_header_sum(src: IpAddr, dst: IpAddr, protocol: u8, len: u32) -> u32 {
    let v6 = |ip: IpAddr| match ip {
        IpAddr::V4(v4) => v4.to_ipv6_mapped().octets(),
        IpAddr::V6(v6) => v6.octets(),
    };
    match (src, dst) {
        (IpAddr::V4(s), IpAddr::V4(d)) => {
            sum_words(&s.octets()) + sum_words(&d.octets()) + u32::from(protocol) + len
        }
        _ => {
            sum_words(&v6(src))
                + sum_words(&v6(dst))
                + (len >> 16)
                + (len & 0xffff)
                + u32::from(protocol)
        }
    }
}

/// The decoder before the header walk was factored out, reduced to
/// its outcome: the frame, or the failure classification.
fn reference_decode(raw: &[u8]) -> Result<FrameRef<'_>, FrameErrorKind> {
    use FrameErrorKind::{BadChecksum, Malformed, Truncated};

    if raw.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
        return Err(Truncated);
    }
    let ethertype = u16::from_be_bytes([raw[12], raw[13]]);
    let ip = &raw[ETH_HEADER_LEN..];
    let (src_ip, dst_ip, protocol, transport): (IpAddr, IpAddr, u8, &[u8]) = match ethertype {
        ETHERTYPE_IPV4 => {
            if ip[0] >> 4 != 4 {
                return Err(Malformed);
            }
            let ihl = usize::from(ip[0] & 0x0f) * 4;
            if ihl < IPV4_HEADER_LEN {
                return Err(Malformed);
            }
            if ip.len() < ihl {
                return Err(Truncated);
            }
            if internet_checksum(0, &ip[..ihl]) != 0 {
                return Err(BadChecksum);
            }
            let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
            if total_len < ihl {
                return Err(Malformed);
            }
            if ip.len() < total_len {
                return Err(Truncated);
            }
            (
                IpAddr::V4(Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15])),
                IpAddr::V4(Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19])),
                ip[9],
                &ip[ihl..total_len],
            )
        }
        ETHERTYPE_IPV6 => {
            if ip.len() < IPV6_HEADER_LEN {
                return Err(Truncated);
            }
            if ip[0] >> 4 != 6 {
                return Err(Malformed);
            }
            let payload_len = usize::from(u16::from_be_bytes([ip[4], ip[5]]));
            if ip.len() < IPV6_HEADER_LEN + payload_len {
                return Err(Truncated);
            }
            let mut src = [0u8; 16];
            src.copy_from_slice(&ip[8..24]);
            let mut dst = [0u8; 16];
            dst.copy_from_slice(&ip[24..40]);
            (
                IpAddr::V6(Ipv6Addr::from(src)),
                IpAddr::V6(Ipv6Addr::from(dst)),
                ip[6],
                &ip[IPV6_HEADER_LEN..IPV6_HEADER_LEN + payload_len],
            )
        }
        _ => return Err(Malformed),
    };
    match protocol {
        6 => {
            if transport.len() < TCP_HEADER_LEN {
                return Err(Truncated);
            }
            let src_port = u16::from_be_bytes([transport[0], transport[1]]);
            let dst_port = u16::from_be_bytes([transport[2], transport[3]]);
            let seq = u32::from_be_bytes([transport[4], transport[5], transport[6], transport[7]]);
            let ack =
                u32::from_be_bytes([transport[8], transport[9], transport[10], transport[11]]);
            let data_offset = usize::from(transport[12] >> 4) * 4;
            if data_offset < TCP_HEADER_LEN {
                return Err(Malformed);
            }
            if transport.len() < data_offset {
                return Err(Truncated);
            }
            let flags = transport[13];
            let seed = pseudo_header_sum(src_ip, dst_ip, 6, transport.len() as u32);
            if internet_checksum(seed, transport) != 0 {
                return Err(BadChecksum);
            }
            Ok(FrameRef {
                pair: SocketPair::new(src_ip, src_port, dst_ip, dst_port),
                transport: TransportRef::Tcp {
                    seq,
                    ack,
                    flags,
                    payload: &transport[data_offset..],
                },
                wire_len: raw.len(),
            })
        }
        17 => {
            if transport.len() < UDP_HEADER_LEN {
                return Err(Truncated);
            }
            let src_port = u16::from_be_bytes([transport[0], transport[1]]);
            let dst_port = u16::from_be_bytes([transport[2], transport[3]]);
            let udp_len = usize::from(u16::from_be_bytes([transport[4], transport[5]]));
            if udp_len < UDP_HEADER_LEN {
                return Err(Malformed);
            }
            if transport.len() < udp_len {
                return Err(Truncated);
            }
            Ok(FrameRef {
                pair: SocketPair::new(src_ip, src_port, dst_ip, dst_port),
                transport: TransportRef::Udp {
                    payload: &transport[UDP_HEADER_LEN..udp_len],
                },
                wire_len: raw.len(),
            })
        }
        _ => Err(Malformed),
    }
}

/// Both contracts on one input: the decoder agrees with the reference,
/// and the peek is the decode without its TCP checksum.
fn check(raw: &[u8]) -> Result<(), proptest::TestCaseError> {
    let decoded = decode_frame_ref(raw).map_err(|error| error.kind);
    prop_assert_eq!(
        &decoded,
        &reference_decode(raw),
        "decode moved on {:?}",
        raw
    );
    match (peek_frame(raw), decoded) {
        (peeked, Ok(frame)) => prop_assert_eq!(peeked, Some(frame)),
        (None, Err(_)) => {}
        (Some(peeked), Err(kind)) => {
            prop_assert_eq!(kind, FrameErrorKind::BadChecksum);
            prop_assert!(
                matches!(peeked.transport, TransportRef::Tcp { .. }),
                "only a TCP checksum may fail after the peek: {:?}",
                peeked
            );
        }
    }
    Ok(())
}

/// Every strict prefix and every single-bit flip of `raw`, plus `raw`.
fn check_damage(raw: &[u8]) -> Result<(), proptest::TestCaseError> {
    check(raw)?;
    for cut in 0..raw.len() {
        check(&raw[..cut])?;
    }
    let mut flipped = raw.to_vec();
    for bit in 0..raw.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped)?;
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

fn ip4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr::from)
}

/// Mostly pure v6, with a slice of v4-mapped addresses.
fn ip6() -> impl Strategy<Value = Ipv6Addr> {
    (any::<[u8; 16]>(), any::<u8>()).prop_map(|(raw, pick)| {
        if pick % 5 == 0 {
            Ipv4Addr::new(raw[0], raw[1], raw[2], raw[3]).to_ipv6_mapped()
        } else {
            Ipv6Addr::from(raw)
        }
    })
}

/// Arbitrary bytes behind a v4 or v6 ethertype and version nibble, so
/// the walk gets past the Ethernet header.
fn ip_noise() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..160),
    )
        .prop_map(|(v6, mut bytes)| {
            bytes.resize(bytes.len().max(ETH_HEADER_LEN + 1), 0);
            let (ethertype, version) = if v6 {
                (ETHERTYPE_IPV6, 0x60)
            } else {
                (ETHERTYPE_IPV4, 0x45)
            };
            bytes[12..14].copy_from_slice(&ethertype.to_be_bytes());
            bytes[ETH_HEADER_LEN] = version | (bytes[ETH_HEADER_LEN] & 0x0f);
            bytes
        })
}

proptest! {
    #[test]
    fn decode_and_peek_hold_on_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        headed in ip_noise(),
    ) {
        check(&noise)?;
        check(&headed)?;
    }

    #[test]
    fn decode_and_peek_hold_on_damaged_v4_frames(
        src in ip4(), sport in any::<u16>(), dst in ip4(), dport in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..32,
        payload in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let pair = SocketPair::new(src, sport, dst, dport);
        check_damage(&encode_tcp(&pair, seq, ack, flags, &payload))?;
        check_damage(&encode_udp(&pair, &payload))?;
    }

    #[test]
    fn decode_and_peek_hold_on_damaged_v6_frames(
        src in ip6(), sport in any::<u16>(), dst in ip6(), dport in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..32,
        payload in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let pair = SocketPair::new(src, sport, dst, dport);
        check_damage(&encode_tcp(&pair, seq, ack, flags, &payload))?;
        check_damage(&encode_udp(&pair, &payload))?;
    }
}
