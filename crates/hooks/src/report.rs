//! Wire format of the Socket Supervisor's UDP report datagrams.
//!
//! Legacy layout — emitted for every IPv4 connection-level report, so
//! pre-dual-stack campaigns produce byte-identical datagrams (integers
//! little-endian unless noted, lengths uleb128):
//!
//! ```text
//! magic       4 bytes  "SRPT"
//! apk sha256  32 bytes
//! src ip      4 bytes  (network order)
//! src port    2 bytes  (big endian)
//! dst ip      4 bytes
//! dst port    2 bytes
//! timestamp   8 bytes  little-endian microseconds
//! frame count uleb128
//!   frames    uleb128 length + UTF-8, most recent first
//! ```
//!
//! Modern layout — used only when the report cannot be expressed in
//! the legacy form (an IPv6 endpoint, or a per-stream report carrying
//! a keep-alive stream ordinal):
//!
//! ```text
//! magic       4 bytes  "SRP2"
//! apk sha256  32 bytes
//! family      1 byte   4 or 6
//! src ip      4 or 16 bytes per family (network order)
//! src port    2 bytes  (big endian)
//! dst ip      4 or 16 bytes
//! dst port    2 bytes
//! timestamp   8 bytes  little-endian microseconds
//! stream      uleb128  ordinal + 1 (0 = connection-level report)
//! frame count uleb128
//!   frames    uleb128 length + UTF-8, most recent first
//! ```
//!
//! Frames are the *translated* stack: full smali type signatures where
//! the app's dex defines the method, the raw dotted name for framework
//! frames the dex knows nothing about.
//!
//! One borrowed parse reads the header of both layouts, from the magic
//! through the timestamp. [`SocketReport::decode`] continues from it
//! with the stream ordinal and the frames; the live engine's routing
//! peek, [`SocketReport::peek_pair`], stops there. A payload the peek
//! rejects therefore fails the decode with the same error.

use std::error::Error;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, BytesMut};
use spector_dex::format::{get_uleb128, put_uleb128, Uleb128Error};
use spector_dex::sha256::Digest;
use spector_netsim::packet::{canonical_ip, v6_octets, SocketPair};

/// Magic prefix of legacy (IPv4, connection-level) report datagrams.
pub const REPORT_MAGIC: &[u8; 4] = b"SRPT";
/// Magic prefix of modern (IPv6-capable, stream-aware) report datagrams.
pub const REPORT_MAGIC_V2: &[u8; 4] = b"SRP2";

/// One socket report: everything the offline pipeline needs to join a
/// stack trace with its TCP stream in the capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketReport {
    /// SHA-256 of the apk under test.
    pub apk_sha256: Digest,
    /// The connection 4-tuple at hook time.
    pub pair: SocketPair,
    /// Virtual timestamp when the hook fired (microseconds).
    pub timestamp_micros: u64,
    /// Keep-alive stream ordinal within the connection (0-based) for
    /// per-stream reports; `None` for connection-level reports, which
    /// attribute the whole epoch's volume as before.
    pub stream: Option<u32>,
    /// Translated stack frames, most recent first.
    pub frames: Vec<String>,
}

/// Why a report datagram failed to parse. Truncation is what datagram
/// loss and capture snapping produce — the payload is a strict prefix
/// of a possible encoding; everything else (wrong magic, impossible
/// counts, non-UTF-8 frames, trailing bytes) is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportErrorKind {
    /// The payload ends before the encoding does.
    Truncated,
    /// The payload is structurally not a report.
    Malformed,
}

/// Error produced when parsing a malformed report datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParseError {
    /// Failure classification.
    pub kind: ReportErrorKind,
    /// What was malformed.
    pub message: String,
}

impl ReportParseError {
    fn new(kind: ReportErrorKind, message: impl Into<String>) -> Self {
        ReportParseError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed socket report: {}", self.message)
    }
}

impl Error for ReportParseError {}

/// Reads one uleb128 value: a value cut short is a truncated report, one
/// past 64 bits a malformed one.
fn read_uleb128(buf: &mut &[u8]) -> Result<u64, ReportParseError> {
    get_uleb128(buf).map_err(|err| match err {
        Uleb128Error::Truncated => {
            ReportParseError::new(ReportErrorKind::Truncated, "truncated uleb128")
        }
        Uleb128Error::Overflow => {
            ReportParseError::new(ReportErrorKind::Malformed, "uleb128 overflow")
        }
    })
}

/// Writes an address known to be IPv4 as its 4 network-order bytes.
fn put_ip4(buf: &mut BytesMut, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => buf.put_slice(&v4.octets()),
        IpAddr::V6(_) => unreachable!("family-4 encoding of a v6 address"),
    }
}

impl SocketReport {
    /// `true` when this report needs the modern "SRP2" layout: any v6
    /// endpoint, or a per-stream ordinal. Everything else encodes as a
    /// byte-identical legacy "SRPT" datagram.
    fn needs_v2(&self) -> bool {
        self.stream.is_some()
            || !matches!(
                (self.pair.src_ip, self.pair.dst_ip),
                (IpAddr::V4(_), IpAddr::V4(_))
            )
    }

    /// Serializes the report into datagram payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        if !self.needs_v2() {
            buf.put_slice(REPORT_MAGIC);
            buf.put_slice(&self.apk_sha256.0);
            put_ip4(&mut buf, self.pair.src_ip);
            buf.put_u16(self.pair.src_port);
            put_ip4(&mut buf, self.pair.dst_ip);
            buf.put_u16(self.pair.dst_port);
            buf.put_u64_le(self.timestamp_micros);
        } else {
            let family6 = self.pair.src_ip.is_ipv6() || self.pair.dst_ip.is_ipv6();
            buf.put_slice(REPORT_MAGIC_V2);
            buf.put_slice(&self.apk_sha256.0);
            buf.put_u8(if family6 { 6 } else { 4 });
            if family6 {
                buf.put_slice(&v6_octets(self.pair.src_ip));
                buf.put_u16(self.pair.src_port);
                buf.put_slice(&v6_octets(self.pair.dst_ip));
            } else {
                put_ip4(&mut buf, self.pair.src_ip);
                buf.put_u16(self.pair.src_port);
                put_ip4(&mut buf, self.pair.dst_ip);
            }
            buf.put_u16(self.pair.dst_port);
            buf.put_u64_le(self.timestamp_micros);
            put_uleb128(&mut buf, self.stream.map(|s| u64::from(s) + 1).unwrap_or(0));
        }
        put_uleb128(&mut buf, self.frames.len() as u64);
        for frame in &self.frames {
            put_uleb128(&mut buf, frame.len() as u64);
            buf.put_slice(frame.as_bytes());
        }
        buf.to_vec()
    }

    /// Parses a report from datagram payload bytes: the header
    /// ([`peek_pair`](Self::peek_pair)'s parse), then the stream ordinal
    /// and the frames, borrowed from `payload` until each frame is
    /// copied into its `String`.
    ///
    /// # Errors
    ///
    /// Returns [`ReportParseError`] on bad magic, truncation, non-UTF-8
    /// frames, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ReportParseError> {
        let (header, mut buf) = Header::parse(payload)?;
        let stream = if header.v2 {
            match read_uleb128(&mut buf)? {
                0 => None,
                n if n <= u64::from(u32::MAX) => Some((n - 1) as u32),
                _ => {
                    return Err(ReportParseError::new(
                        ReportErrorKind::Malformed,
                        "stream ordinal overflow",
                    ));
                }
            }
        } else {
            None
        };
        let count = read_uleb128(&mut buf)? as usize;
        if count > payload.len() {
            return Err(ReportParseError::new(
                ReportErrorKind::Malformed,
                "frame count exceeds payload",
            ));
        }
        let mut frames = Vec::with_capacity(count);
        for _ in 0..count {
            let len = read_uleb128(&mut buf)? as usize;
            if buf.len() < len {
                return Err(ReportParseError::new(
                    ReportErrorKind::Truncated,
                    "truncated frame",
                ));
            }
            let (raw, rest) = buf.split_at(len);
            buf = rest;
            frames.push(
                std::str::from_utf8(raw)
                    .map_err(|_| {
                        ReportParseError::new(ReportErrorKind::Malformed, "frame not UTF-8")
                    })?
                    .to_owned(),
            );
        }
        if !buf.is_empty() {
            return Err(ReportParseError::new(
                ReportErrorKind::Malformed,
                "trailing bytes",
            ));
        }
        Ok(SocketReport {
            apk_sha256: header.apk_sha256,
            pair: header.pair,
            timestamp_micros: header.timestamp_micros,
            stream,
            frames,
        })
    }

    /// Quick check whether a UDP payload looks like a supervisor report
    /// — used by the pipeline to exclude instrumentation traffic from
    /// the app's accounting.
    pub fn is_report_payload(payload: &[u8]) -> bool {
        payload.len() >= 4 && (&payload[..4] == REPORT_MAGIC || &payload[..4] == REPORT_MAGIC_V2)
    }

    /// The report's *embedded* socket pair, read by [`decode`](Self::decode)'s
    /// own header parse without the stream ordinal and frames that
    /// follow. This is the producer-side routing peek of the live
    /// engine: a report must land on the shard that owns its flow's
    /// epochs, which is keyed by this pair (not by the carrying
    /// datagram's 4-tuple). The stream ordinal does not affect routing:
    /// all streams of a connection share its flow epochs.
    ///
    /// Returns `None` exactly when the header does not parse, in which
    /// case [`decode`](Self::decode) fails too, so the caller can route
    /// the bytes to a fallback shard and let the shard-local decode
    /// classify the failure.
    pub fn peek_pair(payload: &[u8]) -> Option<SocketPair> {
        Header::parse(payload).ok().map(|(header, _)| header.pair)
    }
}

/// A report's fixed header: everything before the stream ordinal.
struct Header {
    /// Modern "SRP2" layout (a stream ordinal follows the header).
    v2: bool,
    apk_sha256: Digest,
    pair: SocketPair,
    timestamp_micros: u64,
}

impl Header {
    /// The one header parse of both layouts: magic, digest, family,
    /// pair and timestamp. Returns the header and the bytes after it.
    fn parse(payload: &[u8]) -> Result<(Header, &[u8]), ReportParseError> {
        // A short payload that is a prefix of either magic counts as
        // truncated; anything else up front is a foreign datagram.
        if payload.len() < 4 {
            return Err(ReportParseError::new(
                if REPORT_MAGIC.starts_with(payload) || REPORT_MAGIC_V2.starts_with(payload) {
                    ReportErrorKind::Truncated
                } else {
                    ReportErrorKind::Malformed
                },
                "truncated magic",
            ));
        }
        let (magic, buf) = payload.split_at(4);
        let v2 = match magic {
            m if m == REPORT_MAGIC => false,
            m if m == REPORT_MAGIC_V2 => true,
            _ => {
                return Err(ReportParseError::new(
                    ReportErrorKind::Malformed,
                    "bad magic",
                ));
            }
        };
        if buf.len() < 32 {
            return Err(ReportParseError::new(
                ReportErrorKind::Truncated,
                "truncated header",
            ));
        }
        let (digest, mut buf) = buf.split_at(32);
        let family6 = if v2 {
            let Some((&family, rest)) = buf.split_first() else {
                return Err(ReportParseError::new(
                    ReportErrorKind::Truncated,
                    "truncated family",
                ));
            };
            buf = rest;
            match family {
                4 => false,
                6 => true,
                other => {
                    return Err(ReportParseError::new(
                        ReportErrorKind::Malformed,
                        format!("bad address family {other}"),
                    ));
                }
            }
        } else {
            false
        };
        let addr_len = if family6 { 16 } else { 4 };
        if buf.len() < 2 * addr_len + 4 + 8 {
            return Err(ReportParseError::new(
                ReportErrorKind::Truncated,
                "truncated header",
            ));
        }
        let ip = |at: usize| -> IpAddr {
            let octets = &buf[at..at + addr_len];
            if family6 {
                let octets: [u8; 16] = octets.try_into().expect("16-byte slice");
                // A v4 endpoint of a mixed-family pair travels
                // v4-mapped on the v6 wire; fold it back so decode
                // restores the address the supervisor observed.
                canonical_ip(IpAddr::V6(Ipv6Addr::from(octets)))
            } else {
                let octets: [u8; 4] = octets.try_into().expect("4-byte slice");
                IpAddr::V4(Ipv4Addr::from(octets))
            }
        };
        let port = |at: usize| u16::from_be_bytes([buf[at], buf[at + 1]]);
        let pair = SocketPair::new(
            ip(0),
            port(addr_len),
            ip(addr_len + 2),
            port(2 * addr_len + 2),
        );
        let (timestamp, rest) = buf[2 * addr_len + 4..].split_at(8);
        let header = Header {
            v2,
            apk_sha256: Digest(digest.try_into().expect("32-byte slice")),
            pair,
            timestamp_micros: u64::from_le_bytes(timestamp.try_into().expect("8-byte slice")),
        };
        Ok((header, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::sha256::Sha256;

    fn sample() -> SocketReport {
        SocketReport {
            apk_sha256: Sha256::digest(b"apk-bytes"),
            pair: SocketPair::new(
                Ipv4Addr::new(10, 0, 2, 15),
                40_001,
                Ipv4Addr::new(198, 51, 100, 7),
                443,
            ),
            timestamp_micros: 123_456_789,
            stream: None,
            frames: vec![
                "java.net.Socket.connect".to_owned(),
                "Lcom/unity3d/ads/android/cache/b;->a()V".to_owned(),
                "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/Object;)Ljava/lang/Object;".to_owned(),
                "android.os.AsyncTask$2.call".to_owned(),
            ],
        }
    }

    fn sample_v6() -> SocketReport {
        let mut report = sample();
        report.pair = SocketPair::new(
            "fd00:5eca::a00:20f".parse::<Ipv6Addr>().unwrap(),
            40_001,
            "fd00:5eca::c633:6407".parse::<Ipv6Addr>().unwrap(),
            443,
        );
        report.stream = Some(2);
        report
    }

    #[test]
    fn roundtrip() {
        let report = sample();
        let decoded = SocketReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn legacy_reports_keep_the_legacy_magic() {
        // The inertness pin: a v4 connection-level report must encode
        // as a byte-identical legacy "SRPT" datagram.
        let bytes = sample().encode();
        assert_eq!(&bytes[..4], REPORT_MAGIC);
    }

    #[test]
    fn v6_stream_roundtrip() {
        let report = sample_v6();
        let bytes = report.encode();
        assert_eq!(&bytes[..4], REPORT_MAGIC_V2);
        assert_eq!(SocketReport::decode(&bytes).unwrap(), report);
        assert!(SocketReport::is_report_payload(&bytes));
    }

    #[test]
    fn v4_stream_report_uses_v2_family_4() {
        // A pooled stream on a v4 connection: v2 magic, 4-byte addrs.
        let mut report = sample();
        report.stream = Some(0);
        let bytes = report.encode();
        assert_eq!(&bytes[..4], REPORT_MAGIC_V2);
        assert_eq!(bytes[36], 4);
        assert_eq!(SocketReport::decode(&bytes).unwrap(), report);
        assert_eq!(SocketReport::peek_pair(&bytes), Some(report.pair));
    }

    #[test]
    fn v2_rejects_truncation_everywhere() {
        let bytes = sample_v6().encode();
        for len in 0..bytes.len() {
            let err = SocketReport::decode(&bytes[..len]).unwrap_err();
            assert_eq!(err.kind, ReportErrorKind::Truncated, "len {len}");
        }
    }

    #[test]
    fn v2_rejects_bad_family_and_trailing() {
        let mut bytes = sample_v6().encode();
        bytes[36] = 5;
        assert_eq!(
            SocketReport::decode(&bytes).unwrap_err().kind,
            ReportErrorKind::Malformed
        );
        assert_eq!(SocketReport::peek_pair(&bytes), None);
        let mut bytes = sample_v6().encode();
        bytes.push(0);
        assert_eq!(
            SocketReport::decode(&bytes).unwrap_err().kind,
            ReportErrorKind::Malformed
        );
    }

    #[test]
    fn v2_peek_pair_reads_the_embedded_pair() {
        let report = sample_v6();
        let bytes = report.encode();
        assert_eq!(SocketReport::peek_pair(&bytes), Some(report.pair));
        // The peek reads the header through the timestamp: magic,
        // digest, family, the 36-byte v6 pair and 8 timestamp bytes.
        let header_len = 4 + 32 + 1 + 36 + 8;
        for len in 0..header_len {
            assert_eq!(SocketReport::peek_pair(&bytes[..len]), None, "len {len}");
            assert!(SocketReport::decode(&bytes[..len]).is_err());
        }
        assert_eq!(
            SocketReport::peek_pair(&bytes[..header_len]),
            Some(report.pair)
        );
    }

    #[test]
    fn empty_frames_roundtrip() {
        let mut report = sample();
        report.frames.clear();
        assert_eq!(SocketReport::decode(&report.encode()).unwrap(), report);
    }

    #[test]
    fn is_report_payload_detects_magic() {
        assert!(SocketReport::is_report_payload(&sample().encode()));
        assert!(!SocketReport::is_report_payload(b"SRP"));
        assert!(!SocketReport::is_report_payload(b"HTTP/1.1 200 OK"));
        assert!(!SocketReport::is_report_payload(&[]));
    }

    #[test]
    fn peek_pair_reads_the_embedded_pair_without_decoding() {
        let report = sample();
        let bytes = report.encode();
        assert_eq!(SocketReport::peek_pair(&bytes), Some(report.pair));
        // Too short or wrong magic: no peek — and decode fails too. The
        // legacy header is magic, digest, the 12-byte v4 pair and 8
        // timestamp bytes.
        for len in 0..4 + 32 + 12 + 8 {
            assert_eq!(SocketReport::peek_pair(&bytes[..len]), None, "len {len}");
            assert!(SocketReport::decode(&bytes[..len]).is_err());
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(SocketReport::peek_pair(&bad_magic), None);
        assert!(SocketReport::decode(&bad_magic).is_err());
        // A corrupted *body* still peeks (the pair prefix is intact):
        // routing works, the shard-local decode classifies the damage.
        let mut bad_body = bytes.clone();
        let last = bad_body.len() - 1;
        bad_body[last] ^= 0xff;
        assert_eq!(SocketReport::peek_pair(&bad_body), Some(report.pair));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = SocketReport::decode(&bytes[..len]).unwrap_err();
            assert_eq!(err.kind, ReportErrorKind::Truncated, "len {len}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = sample().encode();
        bytes.push(0);
        let err = SocketReport::decode(&bytes).unwrap_err();
        assert_eq!(err.kind, ReportErrorKind::Malformed);
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let err = SocketReport::decode(&bytes).unwrap_err();
        assert_eq!(err.kind, ReportErrorKind::Malformed);
    }
}
