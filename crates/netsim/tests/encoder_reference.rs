//! The frame encoders against frozen copies of their earlier versions,
//! which built the transport segment in one `Vec`, copied it behind the
//! Ethernet and IP headers in a `BytesMut` and copied that out again,
//! with segment filler built in a `Vec` of its own. The stack's frozen
//! reference (`stack_reference.rs`) calls the production encoders, so
//! this file is what pins their bytes.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use spector_netsim::packet::{
    encode_tcp, encode_tcp_filler, encode_udp, v6_octets, SocketPair, ETHERTYPE_IPV4,
    ETHERTYPE_IPV6, ETH_HEADER_LEN, IPV4_HEADER_LEN, IPV6_HEADER_LEN, TCP_HEADER_LEN, TCP_MSS,
    UDP_HEADER_LEN,
};

/// The encoders before they wrote one buffer, kept verbatim but for
/// their names.
mod frozen {
    use super::*;
    use bytes::{BufMut, BytesMut};

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
        match (src, dst) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                sum_words(&s.octets()) + sum_words(&d.octets()) + u32::from(protocol) + len
            }
            _ => {
                sum_words(&v6_octets(src))
                    + sum_words(&v6_octets(dst))
                    + (len >> 16)
                    + (len & 0xffff)
                    + u32::from(protocol)
            }
        }
    }

    fn mac_for(ip: IpAddr) -> [u8; 6] {
        let o = v6_octets(ip);
        [0x02, 0x00, o[12], o[13], o[14], o[15]]
    }

    fn encode_eth_ip(
        buf: &mut BytesMut,
        pair: &SocketPair,
        protocol: u8,
        transport_and_payload: &[u8],
    ) {
        buf.put_slice(&mac_for(pair.dst_ip));
        buf.put_slice(&mac_for(pair.src_ip));
        match (pair.src_ip, pair.dst_ip) {
            (IpAddr::V4(src), IpAddr::V4(dst)) => {
                buf.put_u16(ETHERTYPE_IPV4);
                let total_len = (IPV4_HEADER_LEN + transport_and_payload.len()) as u16;
                let mut ip = [0u8; IPV4_HEADER_LEN];
                ip[0] = 0x45;
                ip[1] = 0;
                ip[2..4].copy_from_slice(&total_len.to_be_bytes());
                ip[8] = 64;
                ip[9] = protocol;
                ip[12..16].copy_from_slice(&src.octets());
                ip[16..20].copy_from_slice(&dst.octets());
                let csum = internet_checksum(0, &ip);
                ip[10..12].copy_from_slice(&csum.to_be_bytes());
                buf.put_slice(&ip);
            }
            _ => {
                buf.put_u16(ETHERTYPE_IPV6);
                let mut ip = [0u8; IPV6_HEADER_LEN];
                ip[0] = 0x60;
                ip[4..6].copy_from_slice(&(transport_and_payload.len() as u16).to_be_bytes());
                ip[6] = protocol;
                ip[7] = 64;
                ip[8..24].copy_from_slice(&v6_octets(pair.src_ip));
                ip[24..40].copy_from_slice(&v6_octets(pair.dst_ip));
                buf.put_slice(&ip);
            }
        }
        buf.put_slice(transport_and_payload);
    }

    pub fn encode_tcp(pair: &SocketPair, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
        let mut tcp = vec![0u8; TCP_HEADER_LEN + payload.len()];
        tcp[0..2].copy_from_slice(&pair.src_port.to_be_bytes());
        tcp[2..4].copy_from_slice(&pair.dst_port.to_be_bytes());
        tcp[4..8].copy_from_slice(&seq.to_be_bytes());
        tcp[8..12].copy_from_slice(&ack.to_be_bytes());
        tcp[12] = ((TCP_HEADER_LEN / 4) as u8) << 4;
        tcp[13] = flags;
        tcp[14..16].copy_from_slice(&65_535u16.to_be_bytes());
        tcp[TCP_HEADER_LEN..].copy_from_slice(payload);
        let seed = pseudo_header_sum(pair.src_ip, pair.dst_ip, 6, tcp.len() as u32);
        let csum = internet_checksum(seed, &tcp);
        tcp[16..18].copy_from_slice(&csum.to_be_bytes());

        let mut buf = BytesMut::with_capacity(ETH_HEADER_LEN + IPV6_HEADER_LEN + tcp.len());
        encode_eth_ip(&mut buf, pair, 6, &tcp);
        buf.to_vec()
    }

    pub fn encode_udp(pair: &SocketPair, payload: &[u8]) -> Vec<u8> {
        let mut udp = vec![0u8; UDP_HEADER_LEN + payload.len()];
        udp[0..2].copy_from_slice(&pair.src_port.to_be_bytes());
        udp[2..4].copy_from_slice(&pair.dst_port.to_be_bytes());
        let udp_len = udp.len() as u16;
        udp[4..6].copy_from_slice(&udp_len.to_be_bytes());
        udp[UDP_HEADER_LEN..].copy_from_slice(payload);
        let seed = pseudo_header_sum(pair.src_ip, pair.dst_ip, 17, udp.len() as u32);
        let csum = internet_checksum(seed, &udp);
        let csum = if csum == 0 { 0xffff } else { csum };
        udp[6..8].copy_from_slice(&csum.to_be_bytes());

        let mut buf = BytesMut::with_capacity(ETH_HEADER_LEN + IPV6_HEADER_LEN + udp.len());
        encode_eth_ip(&mut buf, pair, 17, &udp);
        buf.to_vec()
    }

    /// The segmenter's filler before it was written into the frame.
    pub fn deterministic_payload(seed: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (seed as usize).wrapping_add(i.wrapping_mul(31)) as u8)
            .collect()
    }
}

/// An address of either family: v4, v6, or v4-mapped v6.
fn address() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| IpAddr::V4(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| IpAddr::V6(Ipv6Addr::from(o))),
        any::<[u8; 4]>().prop_map(|o| IpAddr::V6(Ipv4Addr::from(o).to_ipv6_mapped())),
    ]
}

/// v4, v6 and mixed-family pairs.
fn pair() -> impl Strategy<Value = SocketPair> {
    (address(), any::<u16>(), address(), any::<u16>())
        .prop_map(|(src, sport, dst, dport)| SocketPair::new(src, sport, dst, dport))
}

/// Payload lengths: empty, one byte, odd, one MSS, and up to 64 KiB
/// (past the 16-bit IP length fields, which both encoders truncate
/// alike).
fn payload_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(TCP_MSS),
        (0usize..700).prop_map(|n| 2 * n + 1),
        0usize..=2 * TCP_MSS,
        0usize..=65_536,
    ]
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    (payload_len(), any::<u8>(), any::<u8>()).prop_map(|(len, start, step)| {
        (0..len)
            .map(|i| start.wrapping_add(step.wrapping_mul(i as u8)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tcp_frames_equal_the_frozen_encoder(
        pair in pair(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        payload in payload(),
    ) {
        prop_assert_eq!(
            encode_tcp(&pair, seq, ack, flags, &payload),
            frozen::encode_tcp(&pair, seq, ack, flags, &payload)
        );
    }

    #[test]
    fn filler_frames_equal_the_frozen_encoder_over_frozen_filler(
        pair in pair(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        len in payload_len(),
    ) {
        prop_assert_eq!(
            encode_tcp_filler(&pair, seq, ack, flags, len),
            frozen::encode_tcp(&pair, seq, ack, flags, &frozen::deterministic_payload(seq, len))
        );
    }

    #[test]
    fn udp_frames_equal_the_frozen_encoder(pair in pair(), payload in payload()) {
        prop_assert_eq!(encode_udp(&pair, &payload), frozen::encode_udp(&pair, &payload));
    }
}

/// Every flag byte, on a v4, a v6 and a mixed pair, with small filler
/// and byte payloads of each parity.
#[test]
fn every_flag_byte_encodes_alike() {
    let pairs = [
        SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15),
            40_000,
            Ipv4Addr::new(1, 2, 3, 4),
            443,
        ),
        SocketPair::new(
            Ipv6Addr::new(0xfd00, 0x5eca, 0, 0, 0, 0, 0x0a00, 0x020f),
            40_001,
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            80,
        ),
        SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15),
            40_002,
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
            8080,
        ),
    ];
    for pair in &pairs {
        for flags in 0..=u8::MAX {
            for len in [0usize, 1, 2, 3, 64] {
                let seq = u32::from(flags) * 7_919 + len as u32;
                let payload = frozen::deterministic_payload(seq ^ 0x5a5a, len);
                assert_eq!(
                    encode_tcp(pair, seq, !seq, flags, &payload),
                    frozen::encode_tcp(pair, seq, !seq, flags, &payload),
                    "{pair:?} flags {flags:#04x} len {len}"
                );
                assert_eq!(
                    encode_tcp_filler(pair, seq, !seq, flags, len),
                    frozen::encode_tcp(
                        pair,
                        seq,
                        !seq,
                        flags,
                        &frozen::deterministic_payload(seq, len)
                    ),
                    "{pair:?} flags {flags:#04x} filler {len}"
                );
            }
        }
    }
}
