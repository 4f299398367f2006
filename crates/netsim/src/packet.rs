//! Ethernet II / IPv4+IPv6 / TCP / UDP frame encoding and decoding.
//!
//! Frames produced here are byte-compatible with what tcpdump would have
//! captured from the emulator's interface: real header layouts, real
//! internet checksums (IPv4 header checksum and the TCP/UDP pseudo-header
//! checksum, including the IPv6 pseudo-header for v6 frames).
//!
//! One header walk parses a frame. [`decode_frame_ref`], the view of the
//! capture that the offline pipeline and every live shard decode, is the
//! walk plus the TCP checksum. [`peek_frame`], the live engine's routing
//! peek, is the walk alone: it reads no payload byte, and every check it
//! makes is one the decode makes, in the same order.
//!
//! Address-family policy: a [`SocketPair`] whose endpoints are both
//! IPv4 encodes exactly the frame bytes this module has always
//! produced; any v6 endpoint switches the frame to Ethernet II /
//! IPv6, with v4 members carried v4-mapped. [`SocketPair::canonical`]
//! folds v4-mapped v6 addresses back onto plain v4, so flow keys and
//! shard routing are family-agnostic.

use std::error::Error;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// Length of an Ethernet II header.
pub const ETH_HEADER_LEN: usize = 14;
/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;
/// Length of the fixed IPv6 header.
pub const IPV6_HEADER_LEN: usize = 40;
/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;
/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;
/// Maximum TCP payload per segment (standard Ethernet MSS).
pub const TCP_MSS: usize = 1460;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for IPv6.
pub const ETHERTYPE_IPV6: u16 = 0x86DD;

/// Folds a v4-mapped IPv6 address (`::ffff:a.b.c.d`) onto plain IPv4;
/// every other address passes through unchanged. This is the
/// canonicalization rule that makes dual-stack flows — observed as v6
/// on the wire but reported v4-mapped by the socket layer (or vice
/// versa) — key identically everywhere: flow table, joiner, FNV-1a
/// shard routing.
pub fn canonical_ip(ip: IpAddr) -> IpAddr {
    match ip {
        IpAddr::V6(v6) => match v6.to_ipv4_mapped() {
            Some(v4) => IpAddr::V4(v4),
            None => ip,
        },
        IpAddr::V4(_) => ip,
    }
}

/// The 16-byte on-wire form of an address inside an IPv6 header
/// (v4 members travel v4-mapped), also the v6 form the socket reports
/// and the sampling key widen a v4 address to.
pub fn v6_octets(ip: IpAddr) -> [u8; 16] {
    match ip {
        IpAddr::V4(v4) => v4.to_ipv6_mapped().octets(),
        IpAddr::V6(v6) => v6.octets(),
    }
}

/// TCP flag bits.
pub mod tcp_flags {
    /// Final segment from sender.
    pub const FIN: u8 = 0x01;
    /// Synchronize sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push buffered data to the application.
    pub const PSH: u8 = 0x08;
    /// Acknowledgment field is significant.
    pub const ACK: u8 = 0x10;
}

/// The 4-tuple identifying a connection.
///
/// `src` is always the side that initiated the packet being described,
/// so the same connection appears with `src`/`dst` swapped for the two
/// directions; [`SocketPair::canonical`] folds both onto one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SocketPair {
    /// Source address.
    pub src_ip: IpAddr,
    /// Source port.
    pub src_port: u16,
    /// Destination address.
    pub dst_ip: IpAddr,
    /// Destination port.
    pub dst_port: u16,
}

impl SocketPair {
    /// Builds a socket pair. Accepts `Ipv4Addr`, `Ipv6Addr`, or
    /// `IpAddr` endpoints.
    pub fn new(
        src_ip: impl Into<IpAddr>,
        src_port: u16,
        dst_ip: impl Into<IpAddr>,
        dst_port: u16,
    ) -> Self {
        SocketPair {
            src_ip: src_ip.into(),
            src_port,
            dst_ip: dst_ip.into(),
            dst_port,
        }
    }

    /// The same pair viewed from the opposite direction.
    pub fn reversed(&self) -> SocketPair {
        SocketPair {
            src_ip: self.dst_ip,
            src_port: self.dst_port,
            dst_ip: self.src_ip,
            dst_port: self.src_port,
        }
    }

    /// Direction-independent canonical form for use as a flow key:
    /// v4-mapped v6 endpoints are folded onto plain v4
    /// ([`canonical_ip`]), then the lexicographically smaller endpoint
    /// goes first. For pure-IPv4 pairs this is byte-for-byte the form
    /// the pre-dual-stack engine used, so legacy flow keys and shard
    /// assignments are unchanged.
    pub fn canonical(&self) -> SocketPair {
        let folded = SocketPair {
            src_ip: canonical_ip(self.src_ip),
            src_port: self.src_port,
            dst_ip: canonical_ip(self.dst_ip),
            dst_port: self.dst_port,
        };
        let a = (folded.src_ip, folded.src_port);
        let b = (folded.dst_ip, folded.dst_port);
        if a <= b {
            folded
        } else {
            folded.reversed()
        }
    }

    /// `true` when the canonical form of this pair has any genuine
    /// (non-v4-mapped) IPv6 endpoint.
    pub fn is_ipv6(&self) -> bool {
        matches!(canonical_ip(self.src_ip), IpAddr::V6(_))
            || matches!(canonical_ip(self.dst_ip), IpAddr::V6(_))
    }
}

impl fmt::Display for SocketPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// Transport-layer content of a decoded frame, borrowing its payload
/// from the raw capture bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportRef<'a> {
    /// TCP segment.
    Tcp {
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Flag bits (see [`tcp_flags`]).
        flags: u8,
        /// Payload bytes, borrowed from the frame.
        payload: &'a [u8],
    },
    /// UDP datagram.
    Udp {
        /// Payload bytes, borrowed from the frame.
        payload: &'a [u8],
    },
}

/// A decoded frame whose payload borrows from the raw capture bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Connection 4-tuple as seen in this frame's direction.
    pub pair: SocketPair,
    /// Transport content (payload borrowed).
    pub transport: TransportRef<'a>,
    /// Total on-wire frame length in bytes.
    pub wire_len: usize,
}

/// Why a frame failed to decode — the degraded-mode accounting
/// classification. Truncation is what packet loss and capture death
/// produce; checksum mismatches are bit-level corruption of otherwise
/// well-formed frames; everything else is malformed (foreign
/// ethertypes, impossible header fields, unsupported protocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameErrorKind {
    /// The frame ends before its headers or declared lengths do.
    Truncated,
    /// Headers are structurally invalid or the protocol is unsupported.
    Malformed,
    /// IPv4 or TCP checksum verification failed.
    BadChecksum,
}

/// Per-classification tallies of undecodable frames — what a capture
/// walk accumulates for [`RunIntegrity`]-style degraded accounting.
///
/// [`RunIntegrity`]: https://docs.rs/libspector
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameErrorCounts {
    /// Frames rejected as [`FrameErrorKind::Truncated`].
    pub truncated: usize,
    /// Frames rejected as [`FrameErrorKind::Malformed`].
    pub malformed: usize,
    /// Frames rejected as [`FrameErrorKind::BadChecksum`].
    pub bad_checksum: usize,
}

impl FrameErrorCounts {
    /// Tallies one decode failure.
    pub fn record(&mut self, kind: FrameErrorKind) {
        match kind {
            FrameErrorKind::Truncated => self.truncated += 1,
            FrameErrorKind::Malformed => self.malformed += 1,
            FrameErrorKind::BadChecksum => self.bad_checksum += 1,
        }
    }

    /// Total undecodable frames across classifications.
    pub fn total(&self) -> usize {
        self.truncated + self.malformed + self.bad_checksum
    }
}

/// Error produced when decoding a malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDecodeError {
    /// Failure classification.
    pub kind: FrameErrorKind,
    /// What was malformed.
    pub message: String,
}

impl FrameDecodeError {
    fn new(kind: FrameErrorKind, message: impl Into<String>) -> Self {
        FrameDecodeError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.message)
    }
}

impl Error for FrameDecodeError {}

/// RFC 1071 internet checksum over `data` (padded with a zero byte if of
/// odd length), starting from `initial`.
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

/// Sums 16-bit big-endian words of `data` (must be even-length) for
/// pseudo-header seeding.
fn sum_words(data: &[u8]) -> u32 {
    data.chunks_exact(2)
        .map(|c| u32::from(u16::from_be_bytes([c[0], c[1]])))
        .sum()
}

/// Pseudo-header checksum seed for TCP/UDP, per the frame's address
/// family: the RFC 793 IPv4 pseudo-header, or the RFC 8200 IPv6 one
/// (16-byte addresses, 32-bit length). For v4 the sum is numerically
/// identical to the pre-dual-stack implementation.
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

/// Emits the Ethernet II + IP header for `pair`'s address family: a
/// pair stored with two `IpAddr::V4` endpoints produces exactly the
/// legacy IPv4 frame bytes; any stored v6 endpoint switches the frame
/// to IPv6 (v4 members carried v4-mapped). The family dispatch here
/// matches [`pseudo_header_sum`]'s exactly, so the transport checksum
/// seed always agrees with the frame that carries it.
fn encode_eth_ip(
    buf: &mut BytesMut,
    pair: &SocketPair,
    protocol: u8,
    transport_and_payload: &[u8],
) {
    // Ethernet II
    buf.put_slice(&mac_for(pair.dst_ip));
    buf.put_slice(&mac_for(pair.src_ip));
    match (pair.src_ip, pair.dst_ip) {
        (IpAddr::V4(src), IpAddr::V4(dst)) => {
            buf.put_u16(ETHERTYPE_IPV4);
            let total_len = (IPV4_HEADER_LEN + transport_and_payload.len()) as u16;
            let mut ip = [0u8; IPV4_HEADER_LEN];
            ip[0] = 0x45; // version 4, IHL 5
            ip[1] = 0; // DSCP/ECN
            ip[2..4].copy_from_slice(&total_len.to_be_bytes());
            // identification / flags / fragment offset left zero
            ip[8] = 64; // TTL
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
            ip[0] = 0x60; // version 6, traffic class / flow label zero
            ip[4..6].copy_from_slice(&(transport_and_payload.len() as u16).to_be_bytes());
            ip[6] = protocol; // next header
            ip[7] = 64; // hop limit
            ip[8..24].copy_from_slice(&v6_octets(pair.src_ip));
            ip[24..40].copy_from_slice(&v6_octets(pair.dst_ip));
            buf.put_slice(&ip);
        }
    }
    buf.put_slice(transport_and_payload);
}

/// Encodes a TCP segment into a complete Ethernet frame (IPv4 or IPv6
/// per the pair's address family).
pub fn encode_tcp(pair: &SocketPair, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut tcp = vec![0u8; TCP_HEADER_LEN + payload.len()];
    tcp[0..2].copy_from_slice(&pair.src_port.to_be_bytes());
    tcp[2..4].copy_from_slice(&pair.dst_port.to_be_bytes());
    tcp[4..8].copy_from_slice(&seq.to_be_bytes());
    tcp[8..12].copy_from_slice(&ack.to_be_bytes());
    tcp[12] = ((TCP_HEADER_LEN / 4) as u8) << 4; // data offset
    tcp[13] = flags;
    tcp[14..16].copy_from_slice(&65_535u16.to_be_bytes()); // window
    tcp[TCP_HEADER_LEN..].copy_from_slice(payload);
    let seed = pseudo_header_sum(pair.src_ip, pair.dst_ip, 6, tcp.len() as u32);
    let csum = internet_checksum(seed, &tcp);
    tcp[16..18].copy_from_slice(&csum.to_be_bytes());

    let mut buf = BytesMut::with_capacity(ETH_HEADER_LEN + IPV6_HEADER_LEN + tcp.len());
    encode_eth_ip(&mut buf, pair, 6, &tcp);
    buf.to_vec()
}

/// Encodes a UDP datagram into a complete Ethernet frame (IPv4 or IPv6
/// per the pair's address family).
pub fn encode_udp(pair: &SocketPair, payload: &[u8]) -> Vec<u8> {
    let mut udp = vec![0u8; UDP_HEADER_LEN + payload.len()];
    udp[0..2].copy_from_slice(&pair.src_port.to_be_bytes());
    udp[2..4].copy_from_slice(&pair.dst_port.to_be_bytes());
    let udp_len = udp.len() as u16;
    udp[4..6].copy_from_slice(&udp_len.to_be_bytes());
    udp[UDP_HEADER_LEN..].copy_from_slice(payload);
    let seed = pseudo_header_sum(pair.src_ip, pair.dst_ip, 17, udp.len() as u32);
    let csum = internet_checksum(seed, &udp);
    // Per RFC 768, a computed checksum of zero is transmitted as 0xffff.
    let csum = if csum == 0 { 0xffff } else { csum };
    udp[6..8].copy_from_slice(&csum.to_be_bytes());

    let mut buf = BytesMut::with_capacity(ETH_HEADER_LEN + IPV6_HEADER_LEN + udp.len());
    encode_eth_ip(&mut buf, pair, 17, &udp);
    buf.to_vec()
}

/// Decodes a raw Ethernet frame without copying the payload: the
/// returned [`FrameRef`] borrows its payload bytes from `raw`. This is
/// [`peek_frame`]'s header walk followed by the TCP checksum, the one
/// check that reads payload bytes.
///
/// # Errors
///
/// Returns [`FrameDecodeError`] for truncated frames, non-IP
/// ethertypes, unsupported IP protocols, bad header lengths, or
/// checksum mismatches.
pub fn decode_frame_ref(raw: &[u8]) -> Result<FrameRef<'_>, FrameDecodeError> {
    let (frame, segment) = walk_headers(raw)?;
    if let TransportRef::Tcp { .. } = frame.transport {
        let seed = pseudo_header_sum(
            frame.pair.src_ip,
            frame.pair.dst_ip,
            6,
            segment.len() as u32,
        );
        if internet_checksum(seed, segment) != 0 {
            return Err(FrameDecodeError::new(
                FrameErrorKind::BadChecksum,
                "TCP checksum mismatch",
            ));
        }
    }
    Ok(frame)
}

/// [`decode_frame_ref`] without the TCP checksum: the header walk alone,
/// reading no payload byte. It is the live engine's routing peek, run on
/// the producer before the owning shard decodes the frame.
///
/// Every check it makes is one [`decode_frame_ref`] makes, in the same
/// order, so `None` here means the decode fails too, and a `Some` here
/// is the decoded frame whenever the decode succeeds. The decode fails
/// after a successful peek only on a TCP checksum mismatch.
pub fn peek_frame(raw: &[u8]) -> Option<FrameRef<'_>> {
    walk_headers(raw).ok().map(|(frame, _)| frame)
}

/// The one Ethernet / IPv4+IPv6 / TCP+UDP header walk: every check of
/// [`decode_frame_ref`] but the TCP checksum. Returns the frame and its
/// whole transport segment (header included), which the checksum
/// covers.
fn walk_headers(raw: &[u8]) -> Result<(FrameRef<'_>, &[u8]), FrameDecodeError> {
    if raw.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
        return Err(FrameDecodeError::new(
            FrameErrorKind::Truncated,
            "frame shorter than eth+ip headers",
        ));
    }
    let ethertype = u16::from_be_bytes([raw[12], raw[13]]);
    let ip = &raw[ETH_HEADER_LEN..];
    let (src_ip, dst_ip, protocol, transport): (IpAddr, IpAddr, u8, &[u8]) = match ethertype {
        ETHERTYPE_IPV4 => {
            if ip[0] >> 4 != 4 {
                return Err(FrameDecodeError::new(FrameErrorKind::Malformed, "not IPv4"));
            }
            let ihl = usize::from(ip[0] & 0x0f) * 4;
            if ihl < IPV4_HEADER_LEN {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Malformed,
                    "bad IPv4 header length",
                ));
            }
            if ip.len() < ihl {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "IPv4 header exceeds frame",
                ));
            }
            if internet_checksum(0, &ip[..ihl]) != 0 {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::BadChecksum,
                    "IPv4 header checksum mismatch",
                ));
            }
            let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
            if total_len < ihl {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Malformed,
                    "IPv4 total length below header length",
                ));
            }
            if ip.len() < total_len {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "IPv4 total length exceeds frame",
                ));
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
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "frame shorter than eth+ipv6 headers",
                ));
            }
            if ip[0] >> 4 != 6 {
                return Err(FrameDecodeError::new(FrameErrorKind::Malformed, "not IPv6"));
            }
            let payload_len = usize::from(u16::from_be_bytes([ip[4], ip[5]]));
            if ip.len() < IPV6_HEADER_LEN + payload_len {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "IPv6 payload length exceeds frame",
                ));
            }
            let mut src = [0u8; 16];
            src.copy_from_slice(&ip[8..24]);
            let mut dst = [0u8; 16];
            dst.copy_from_slice(&ip[24..40]);
            // Addresses are kept in on-wire v6 form (v4-mapped members
            // included) so the transport checksum seed dispatches to the
            // same IPv6 pseudo-header the encoder used;
            // `SocketPair::canonical` folds them for flow keying.
            (
                IpAddr::V6(Ipv6Addr::from(src)),
                IpAddr::V6(Ipv6Addr::from(dst)),
                ip[6],
                &ip[IPV6_HEADER_LEN..IPV6_HEADER_LEN + payload_len],
            )
        }
        other => {
            return Err(FrameDecodeError::new(
                FrameErrorKind::Malformed,
                format!("unsupported ethertype {other:#06x}"),
            ));
        }
    };

    match protocol {
        6 => {
            if transport.len() < TCP_HEADER_LEN {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "truncated TCP header",
                ));
            }
            let src_port = u16::from_be_bytes([transport[0], transport[1]]);
            let dst_port = u16::from_be_bytes([transport[2], transport[3]]);
            let seq = u32::from_be_bytes([transport[4], transport[5], transport[6], transport[7]]);
            let ack =
                u32::from_be_bytes([transport[8], transport[9], transport[10], transport[11]]);
            let data_offset = usize::from(transport[12] >> 4) * 4;
            if data_offset < TCP_HEADER_LEN {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Malformed,
                    "bad TCP data offset",
                ));
            }
            if transport.len() < data_offset {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "TCP data offset exceeds segment",
                ));
            }
            let frame = FrameRef {
                pair: SocketPair::new(src_ip, src_port, dst_ip, dst_port),
                transport: TransportRef::Tcp {
                    seq,
                    ack,
                    flags: transport[13],
                    payload: &transport[data_offset..],
                },
                wire_len: raw.len(),
            };
            Ok((frame, transport))
        }
        17 => {
            if transport.len() < UDP_HEADER_LEN {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "truncated UDP header",
                ));
            }
            let src_port = u16::from_be_bytes([transport[0], transport[1]]);
            let dst_port = u16::from_be_bytes([transport[2], transport[3]]);
            let udp_len = usize::from(u16::from_be_bytes([transport[4], transport[5]]));
            if udp_len < UDP_HEADER_LEN {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Malformed,
                    "bad UDP length",
                ));
            }
            if transport.len() < udp_len {
                return Err(FrameDecodeError::new(
                    FrameErrorKind::Truncated,
                    "UDP length exceeds segment",
                ));
            }
            let frame = FrameRef {
                pair: SocketPair::new(src_ip, src_port, dst_ip, dst_port),
                transport: TransportRef::Udp {
                    payload: &transport[UDP_HEADER_LEN..udp_len],
                },
                wire_len: raw.len(),
            };
            Ok((frame, transport))
        }
        other => Err(FrameDecodeError::new(
            FrameErrorKind::Malformed,
            format!("unsupported IP protocol {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> SocketPair {
        SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15),
            43_210,
            Ipv4Addr::new(93, 184, 216, 34),
            443,
        )
    }

    #[test]
    fn tcp_roundtrip() {
        let payload = b"GET / HTTP/1.1\r\n\r\n";
        let raw = encode_tcp(
            &pair(),
            1000,
            2000,
            tcp_flags::PSH | tcp_flags::ACK,
            payload,
        );
        let frame = decode_frame_ref(&raw).unwrap();
        assert_eq!(frame.pair, pair());
        assert_eq!(frame.wire_len, raw.len());
        match frame.transport {
            TransportRef::Tcp {
                seq,
                ack,
                flags,
                payload: p,
            } => {
                assert_eq!(seq, 1000);
                assert_eq!(ack, 2000);
                assert_eq!(flags, tcp_flags::PSH | tcp_flags::ACK);
                assert_eq!(p, payload);
            }
            other => panic!("expected tcp, got {other:?}"),
        }
    }

    #[test]
    fn udp_roundtrip() {
        let raw = encode_udp(&pair(), b"report-payload");
        let frame = decode_frame_ref(&raw).unwrap();
        match frame.transport {
            TransportRef::Udp { payload } => assert_eq!(payload, b"report-payload"),
            other => panic!("expected udp, got {other:?}"),
        }
    }

    #[test]
    fn empty_payloads() {
        let raw = encode_tcp(&pair(), 0, 0, tcp_flags::SYN, &[]);
        assert_eq!(raw.len(), ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN);
        let frame = decode_frame_ref(&raw).unwrap();
        match frame.transport {
            TransportRef::Tcp { payload, flags, .. } => {
                assert!(payload.is_empty());
                assert_eq!(flags, tcp_flags::SYN);
            }
            other => panic!("expected tcp, got {other:?}"),
        }
        let raw = encode_udp(&pair(), &[]);
        assert_eq!(raw.len(), ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN);
        assert!(decode_frame_ref(&raw).is_ok());
    }

    #[test]
    fn corrupted_tcp_checksum_rejected() {
        let mut raw = encode_tcp(&pair(), 1, 1, tcp_flags::ACK, b"data");
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        let err = decode_frame_ref(&raw).unwrap_err();
        assert!(err.to_string().contains("TCP checksum"));
    }

    #[test]
    fn corrupted_ip_header_rejected() {
        let mut raw = encode_tcp(&pair(), 1, 1, tcp_flags::ACK, &[]);
        raw[ETH_HEADER_LEN + 8] = 1; // change TTL without fixing checksum
        let err = decode_frame_ref(&raw).unwrap_err();
        assert!(err.to_string().contains("IPv4 header checksum"));
    }

    #[test]
    fn peek_rejects_header_damage_but_passes_a_bad_tcp_checksum() {
        // Garbage and truncation fail the peek.
        assert_eq!(peek_frame(&[0xde, 0xad]), None);
        let raw = encode_tcp(&pair(), 1, 1, tcp_flags::ACK, b"data");
        assert_eq!(peek_frame(&raw[..20]), None);
        // A corrupted TCP checksum passes the peek, so the frame still
        // routes by its intact 4-tuple, while the decode classifies it.
        let mut corrupted = raw.clone();
        corrupted[ETH_HEADER_LEN + IPV4_HEADER_LEN + 16] ^= 0xff;
        assert_eq!(
            decode_frame_ref(&corrupted).unwrap_err().kind,
            FrameErrorKind::BadChecksum
        );
        assert_eq!(peek_frame(&corrupted), decode_frame_ref(&raw).ok());
        // Header damage the decode rejects before the TCP checksum fails
        // the peek too: an IPv4 header checksum, a TCP data offset.
        let mut bad_ip = raw.clone();
        bad_ip[ETH_HEADER_LEN + 8] ^= 1;
        assert_eq!(peek_frame(&bad_ip), None);
        let mut bad_offset = raw;
        bad_offset[ETH_HEADER_LEN + IPV4_HEADER_LEN + 12] = 0x40;
        assert_eq!(
            decode_frame_ref(&bad_offset).unwrap_err().kind,
            FrameErrorKind::Malformed
        );
        assert_eq!(peek_frame(&bad_offset), None);
    }

    #[test]
    fn rejects_truncated_and_foreign_frames() {
        assert!(decode_frame_ref(&[]).is_err());
        assert!(decode_frame_ref(&[0; 20]).is_err());
        // ARP ethertype
        let mut raw = encode_udp(&pair(), &[]);
        raw[12] = 0x08;
        raw[13] = 0x06;
        assert!(decode_frame_ref(&raw).is_err());
    }

    #[test]
    fn canonical_pair_is_direction_independent() {
        let p = pair();
        assert_eq!(p.canonical(), p.reversed().canonical());
        assert_eq!(p.reversed().reversed(), p);
    }

    #[test]
    fn socket_pair_display() {
        assert_eq!(pair().to_string(), "10.0.2.15:43210 -> 93.184.216.34:443");
    }

    fn pair_v6() -> SocketPair {
        SocketPair::new(
            "fd00:5eca::a00:20f".parse::<Ipv6Addr>().unwrap(),
            43_210,
            "2606:2800:220:1::1".parse::<Ipv6Addr>().unwrap(),
            443,
        )
    }

    #[test]
    fn tcp_roundtrip_v6() {
        let payload = b"\x16\x03\x03hello";
        let raw = encode_tcp(
            &pair_v6(),
            1000,
            2000,
            tcp_flags::PSH | tcp_flags::ACK,
            payload,
        );
        assert_eq!(
            u16::from_be_bytes([raw[12], raw[13]]),
            ETHERTYPE_IPV6,
            "v6 pair must produce an IPv6 frame"
        );
        assert_eq!(
            raw.len(),
            ETH_HEADER_LEN + IPV6_HEADER_LEN + TCP_HEADER_LEN + payload.len()
        );
        let frame = decode_frame_ref(&raw).unwrap();
        assert_eq!(frame.pair, pair_v6());
        match frame.transport {
            TransportRef::Tcp { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("expected tcp, got {other:?}"),
        }
    }

    #[test]
    fn udp_roundtrip_v6() {
        let raw = encode_udp(&pair_v6(), b"report-payload");
        let frame = decode_frame_ref(&raw).unwrap();
        assert_eq!(frame.pair, pair_v6());
        match frame.transport {
            TransportRef::Udp { payload } => assert_eq!(payload, b"report-payload"),
            other => panic!("expected udp, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_v6_tcp_checksum_rejected() {
        let mut raw = encode_tcp(&pair_v6(), 1, 1, tcp_flags::ACK, b"data");
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        let err = decode_frame_ref(&raw).unwrap_err();
        assert_eq!(err.kind, FrameErrorKind::BadChecksum);
    }

    #[test]
    fn truncated_v6_frames_classified() {
        let raw = encode_tcp(&pair_v6(), 1, 1, tcp_flags::ACK, b"data");
        for cut in [
            ETH_HEADER_LEN + IPV4_HEADER_LEN,
            ETH_HEADER_LEN + IPV6_HEADER_LEN + 4,
        ] {
            let err = decode_frame_ref(&raw[..cut]).unwrap_err();
            assert_eq!(err.kind, FrameErrorKind::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn v4_mapped_pair_canonicalizes_to_v4() {
        let mapped = SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15).to_ipv6_mapped(),
            43_210,
            Ipv4Addr::new(93, 184, 216, 34).to_ipv6_mapped(),
            443,
        );
        assert_eq!(mapped.canonical(), pair().canonical());
        assert!(!mapped.is_ipv6());
        assert!(pair_v6().is_ipv6());
        // A v4-mapped pair still travels as an IPv6 frame and survives
        // the round trip in on-wire form.
        let raw = encode_tcp(&mapped, 1, 1, tcp_flags::ACK, b"x");
        assert_eq!(u16::from_be_bytes([raw[12], raw[13]]), ETHERTYPE_IPV6);
        let frame = decode_frame_ref(&raw).unwrap();
        assert_eq!(frame.pair.canonical(), pair().canonical());
    }

    #[test]
    fn v4_frame_bytes_unchanged_by_dual_stack() {
        // The legacy-inertness pin: a pure-v4 pair produces exactly the
        // frame layout the pre-dual-stack encoder emitted (spot-check
        // structure; the cross-crate goldens pin full campaigns).
        let raw = encode_tcp(&pair(), 7, 9, tcp_flags::ACK, b"abc");
        assert_eq!(u16::from_be_bytes([raw[12], raw[13]]), ETHERTYPE_IPV4);
        assert_eq!(
            raw.len(),
            ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + 3
        );
        assert_eq!(raw[ETH_HEADER_LEN], 0x45);
        assert_eq!(
            &raw[ETH_HEADER_LEN + 12..ETH_HEADER_LEN + 16],
            &[10, 0, 2, 15]
        );
    }

    #[test]
    fn internet_checksum_rfc1071_example() {
        // Example from RFC 1071 §3: words 0001 f203 f4f5 f6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(0, &data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length_padding() {
        // Odd-length data is padded with a trailing zero byte.
        assert_eq!(
            internet_checksum(0, &[0xab]),
            internet_checksum(0, &[0xab, 0x00])
        );
    }
}
