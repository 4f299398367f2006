//! The capture as a stream of raw frames, and the routing peek.
//!
//! The offline pipeline sees a capture as a finished array of packets;
//! the streaming engine (`spector-live`) sees the same wire data one
//! raw frame at a time, in virtual-clock order, and decodes each frame
//! on the shard that owns it. Routing a frame to that shard needs only
//! its 4-tuple, which [`peek_frame`] extracts without the full decode.
//!
//! Feeding a capture's frames one at a time through the per-frame step
//! ([`CaptureTables::ingest`]), as the shards do, reproduces the batch
//! views bit for bit (asserted by the tests below).
//!
//! [`CaptureTables::ingest`]: crate::capture::CaptureTables::ingest

use crate::packet::{
    SocketPair, ETH_HEADER_LEN, IPV4_HEADER_LEN, IPV6_HEADER_LEN, TCP_HEADER_LEN, UDP_HEADER_LEN,
};

/// The transport half of a [`PeekedFrame`]: just enough to route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeekedTransport<'a> {
    /// A TCP segment (routing needs only the 4-tuple).
    Tcp,
    /// A UDP datagram; the payload slice lets the caller peek further
    /// (e.g. into an embedded supervisor-report header) without
    /// re-walking the frame.
    Udp {
        /// Datagram payload, borrowed from the raw frame.
        payload: &'a [u8],
    },
}

/// Result of [`peek_frame`]: the routing 4-tuple plus transport kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeekedFrame<'a> {
    /// 4-tuple as seen on the wire (sender's perspective).
    pub pair: SocketPair,
    /// Transport kind, with the UDP payload exposed for deeper peeks.
    pub transport: PeekedTransport<'a>,
}

/// Cheap *structural* header walk of a raw Ethernet frame: extracts
/// the 4-tuple and transport kind without verifying any checksum and
/// without touching TCP payload bytes. This is the producer-side
/// routing peek of the live engine's two-phase ingress — the full
/// classified decode ([`decode_frame_ref`]) runs later, on the shard
/// that owns the bytes.
///
/// [`decode_frame_ref`]: crate::packet::decode_frame_ref
///
/// Every check here is a strict subset of [`decode_frame_ref`]'s
/// checks, so `peek_frame(raw).is_none()` implies
/// `decode_frame_ref(raw).is_err()` — a peek-failed frame can be
/// routed to a deterministic fallback shard knowing the shard-local
/// decode will classify (and count) the failure. The converse does
/// not hold: a frame with a corrupted checksum peeks fine, routes by
/// its (intact) 4-tuple, and fails decode on exactly one shard.
pub fn peek_frame(raw: &[u8]) -> Option<PeekedFrame<'_>> {
    use std::net::IpAddr;

    if raw.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
        return None;
    }
    let ip = &raw[ETH_HEADER_LEN..];
    let (src_ip, dst_ip, protocol, transport): (IpAddr, IpAddr, u8, &[u8]) =
        match u16::from_be_bytes([raw[12], raw[13]]) {
            0x0800 => {
                if ip[0] >> 4 != 4 {
                    return None;
                }
                let ihl = usize::from(ip[0] & 0x0f) * 4;
                if ihl < IPV4_HEADER_LEN || ip.len() < ihl {
                    return None;
                }
                let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
                if total_len < ihl || ip.len() < total_len {
                    return None;
                }
                (
                    std::net::Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]).into(),
                    std::net::Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]).into(),
                    ip[9],
                    &ip[ihl..total_len],
                )
            }
            0x86DD => {
                if ip.len() < IPV6_HEADER_LEN || ip[0] >> 4 != 6 {
                    return None;
                }
                let payload_len = usize::from(u16::from_be_bytes([ip[4], ip[5]]));
                if ip.len() < IPV6_HEADER_LEN + payload_len {
                    return None;
                }
                let mut src = [0u8; 16];
                src.copy_from_slice(&ip[8..24]);
                let mut dst = [0u8; 16];
                dst.copy_from_slice(&ip[24..40]);
                (
                    std::net::Ipv6Addr::from(src).into(),
                    std::net::Ipv6Addr::from(dst).into(),
                    ip[6],
                    &ip[IPV6_HEADER_LEN..IPV6_HEADER_LEN + payload_len],
                )
            }
            _ => return None,
        };
    match protocol {
        6 => {
            if transport.len() < TCP_HEADER_LEN {
                return None;
            }
            let src_port = u16::from_be_bytes([transport[0], transport[1]]);
            let dst_port = u16::from_be_bytes([transport[2], transport[3]]);
            Some(PeekedFrame {
                pair: SocketPair::new(src_ip, src_port, dst_ip, dst_port),
                transport: PeekedTransport::Tcp,
            })
        }
        17 => {
            if transport.len() < UDP_HEADER_LEN {
                return None;
            }
            let src_port = u16::from_be_bytes([transport[0], transport[1]]);
            let dst_port = u16::from_be_bytes([transport[2], transport[3]]);
            let udp_len = usize::from(u16::from_be_bytes([transport[4], transport[5]]));
            if udp_len < UDP_HEADER_LEN || transport.len() < udp_len {
                return None;
            }
            Some(PeekedFrame {
                pair: SocketPair::new(src_ip, src_port, dst_ip, dst_port),
                transport: PeekedTransport::Udp {
                    payload: &transport[UDP_HEADER_LEN..udp_len],
                },
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::capture::CaptureTables;
    use crate::clock::Clock;
    use crate::flows::{DnsMap, FlowTable};
    use crate::packet::{decode_frame_ref, TransportRef};
    use crate::pcap::CapturedPacket;
    use crate::stack::NetStack;

    fn busy_capture() -> Vec<CapturedPacket> {
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("cdn.example.net", Ipv4Addr::new(93, 184, 216, 34));
        let sock = stack.tcp_connect(ip, 443);
        stack.udp_send(Ipv4Addr::new(10, 0, 2, 2), 47_000, b"datagram");
        stack.tcp_transfer(sock, 700, 40_000);
        stack.tcp_close(sock);
        let ip2 = stack.resolve("ads.example.com", Ipv4Addr::new(203, 0, 113, 9));
        let sock2 = stack.tcp_connect(ip2, 80);
        stack.tcp_transfer(sock2, 2_000, 1_500);
        stack.tcp_close(sock2);
        let mut capture = stack.into_capture();
        capture.push(CapturedPacket {
            timestamp_micros: 3,
            data: vec![0xde, 0xad],
        });
        capture
    }

    /// The shard-side feed — one frame at a time through the per-frame
    /// step, the tables read back between frames — reproduces the
    /// batch views.
    #[test]
    fn event_stream_reproduces_batch_views() {
        let capture = busy_capture();
        let mut tables = CaptureTables::default();
        for packet in &capture {
            let _ = tables.ingest(packet.timestamp_micros, &packet.data, 47_000);
        }
        assert_eq!(*tables.flows(), FlowTable::from_capture(&capture));
        assert_eq!(*tables.dns(), DnsMap::from_capture(&capture));
    }

    #[test]
    fn peek_agrees_with_full_decode_on_every_frame() {
        let capture = busy_capture();
        for packet in &capture {
            match (peek_frame(&packet.data), decode_frame_ref(&packet.data)) {
                (Some(peeked), Ok(frame)) => {
                    assert_eq!(peeked.pair, frame.pair, "peeked 4-tuple must match decode");
                    match (peeked.transport, frame.transport) {
                        (PeekedTransport::Tcp, TransportRef::Tcp { .. }) => {}
                        (
                            PeekedTransport::Udp { payload: peeked },
                            TransportRef::Udp { payload },
                        ) => assert_eq!(peeked, payload),
                        (p, t) => panic!("transport kind disagrees: {p:?} vs {t:?}"),
                    }
                }
                // Peek is strictly weaker: it may pass where decode
                // fails (checksums), never the reverse.
                (Some(_), Err(_)) => {}
                (None, Err(_)) => {}
                (None, Ok(_)) => panic!("peek rejected a decodable frame"),
            }
        }
    }

    #[test]
    fn peek_rejects_structural_garbage_but_passes_bad_checksums() {
        // Garbage and truncation fail the peek.
        assert!(peek_frame(&[0xde, 0xad]).is_none());
        let capture = busy_capture();
        let frame = &capture[0].data;
        assert!(peek_frame(&frame[..frame.len().min(20)]).is_none());
        // A corrupted TCP checksum passes the structural peek (routing
        // still works) while the full decode classifies it.
        let tcp = capture
            .iter()
            .find(|p| {
                matches!(
                    decode_frame_ref(&p.data),
                    Ok(crate::packet::FrameRef {
                        transport: TransportRef::Tcp { .. },
                        ..
                    })
                )
            })
            .unwrap();
        let mut corrupted = tcp.data.clone();
        let checksum_at = crate::packet::ETH_HEADER_LEN + crate::packet::IPV4_HEADER_LEN + 16;
        corrupted[checksum_at] ^= 0xff;
        assert!(decode_frame_ref(&corrupted).is_err());
        assert_eq!(
            peek_frame(&corrupted).map(|p| p.pair),
            Some(decode_frame_ref(&tcp.data).unwrap().pair)
        );
    }
}
