//! Wire format of the Socket Supervisor's sampling-ledger datagrams.
//!
//! When the supervisor runs with sampling or a trace budget enabled it
//! sends one extra UDP datagram at the end of the run: the app's
//! [`SamplingLedger`] — how many reports it observed, emitted, and
//! suppressed, by bucket. The analysis side needs those counts to
//! scale the sampled volumes back to population estimates; carrying
//! them on the same out-of-band channel as the reports means they
//! survive any transport the reports survive.
//!
//! Layout (all integers little-endian, fixed width):
//!
//! ```text
//! magic              4 bytes  "SLGR"
//! apk sha256         32 bytes
//! reports_observed   8 bytes
//! reports_emitted    8 bytes
//! sampled_out        8 bytes
//! budget_suppressed  8 bytes
//! windows_exhausted  8 bytes
//! ```
//!
//! An exact run (rate 1.0, no budget) emits no ledger at all — the
//! capture stays byte-identical to a build without the sampling layer.

use bytes::{BufMut, BytesMut};
use spector_dex::sha256::Digest;
use spector_sampling::SamplingLedger;

use crate::report::{ReportErrorKind, ReportParseError};

/// Magic prefix of every ledger datagram.
pub const LEDGER_MAGIC: &[u8; 4] = b"SLGR";

/// Encoded size: magic + digest + five fixed-width counters.
pub const LEDGER_WIRE_LEN: usize = 4 + 32 + 5 * 8;

/// One app run's sampling ledger as carried on the wire.
/// `ledgers_lost` is a decode-side tally, so it never travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRecord {
    /// SHA-256 of the apk under test.
    pub apk_sha256: Digest,
    /// The run's counted loss.
    pub ledger: SamplingLedger,
}

impl LedgerRecord {
    /// Serializes the record into datagram payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(LEDGER_WIRE_LEN);
        buf.put_slice(LEDGER_MAGIC);
        buf.put_slice(&self.apk_sha256.0);
        buf.put_u64_le(self.ledger.reports_observed);
        buf.put_u64_le(self.ledger.reports_emitted);
        buf.put_u64_le(self.ledger.sampled_out);
        buf.put_u64_le(self.ledger.budget_suppressed);
        buf.put_u64_le(self.ledger.windows_exhausted);
        buf.to_vec()
    }

    /// Parses a ledger record from datagram payload bytes.
    ///
    /// # Errors
    ///
    /// Classified like [`SocketReport::decode`](crate::SocketReport::decode):
    /// a strict prefix of a valid encoding is `Truncated`; wrong magic,
    /// trailing bytes, or counters that violate the balance invariant
    /// (`observed == emitted + sampled_out + budget_suppressed`) are
    /// `Malformed`.
    pub fn decode(payload: &[u8]) -> Result<Self, ReportParseError> {
        let Some((magic, body)) = payload.split_first_chunk::<4>() else {
            return Err(parse_error(
                if LEDGER_MAGIC.starts_with(payload) {
                    ReportErrorKind::Truncated
                } else {
                    ReportErrorKind::Malformed
                },
                "truncated magic",
            ));
        };
        if magic != LEDGER_MAGIC {
            return Err(parse_error(ReportErrorKind::Malformed, "bad magic"));
        }
        let truncated = || parse_error(ReportErrorKind::Truncated, "truncated body");
        let (digest, mut rest) = body.split_first_chunk::<32>().ok_or_else(truncated)?;
        let mut counter = || {
            let (field, tail) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
            rest = tail;
            Ok(u64::from_le_bytes(*field))
        };
        let ledger = SamplingLedger {
            reports_observed: counter()?,
            reports_emitted: counter()?,
            sampled_out: counter()?,
            budget_suppressed: counter()?,
            windows_exhausted: counter()?,
            ledgers_lost: 0,
        };
        if !rest.is_empty() {
            return Err(parse_error(ReportErrorKind::Malformed, "trailing bytes"));
        }
        if !ledger.is_balanced() {
            return Err(parse_error(
                ReportErrorKind::Malformed,
                "ledger counters violate the balance invariant",
            ));
        }
        Ok(LedgerRecord {
            apk_sha256: Digest(*digest),
            ledger,
        })
    }

    /// Quick check whether a UDP payload is a ledger datagram — the
    /// peel every decode path applies before trying report decode.
    pub fn is_ledger_payload(payload: &[u8]) -> bool {
        payload.len() >= 4 && &payload[..4] == LEDGER_MAGIC
    }
}

fn parse_error(kind: ReportErrorKind, message: &str) -> ReportParseError {
    ReportParseError {
        kind,
        message: format!("sampling ledger: {message}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::sha256::Sha256;

    fn sample() -> LedgerRecord {
        LedgerRecord {
            apk_sha256: Sha256::digest(b"apk-bytes"),
            ledger: SamplingLedger {
                reports_observed: 40,
                reports_emitted: 25,
                sampled_out: 10,
                budget_suppressed: 5,
                windows_exhausted: 2,
                ledgers_lost: 0,
            },
        }
    }

    #[test]
    fn roundtrip() {
        let record = sample();
        let bytes = record.encode();
        assert_eq!(bytes.len(), LEDGER_WIRE_LEN);
        assert_eq!(LedgerRecord::decode(&bytes).unwrap(), record);
    }

    #[test]
    fn every_strict_prefix_is_truncated() {
        let bytes = sample().encode();
        for len in 1..bytes.len() {
            let err = LedgerRecord::decode(&bytes[..len]).unwrap_err();
            assert_eq!(err.kind, ReportErrorKind::Truncated, "len {len}");
        }
    }

    #[test]
    fn rejects_wrong_magic_and_trailing_bytes() {
        let mut bad_magic = sample().encode();
        bad_magic[0] = b'X';
        assert_eq!(
            LedgerRecord::decode(&bad_magic).unwrap_err().kind,
            ReportErrorKind::Malformed
        );
        let mut trailing = sample().encode();
        trailing.push(0);
        assert_eq!(
            LedgerRecord::decode(&trailing).unwrap_err().kind,
            ReportErrorKind::Malformed
        );
    }

    #[test]
    fn rejects_unbalanced_counters() {
        let mut record = sample();
        record.ledger.reports_observed += 1;
        let err = LedgerRecord::decode(&record.encode()).unwrap_err();
        assert_eq!(err.kind, ReportErrorKind::Malformed);
    }

    #[test]
    fn ledger_and_report_magics_are_disjoint() {
        let bytes = sample().encode();
        assert!(LedgerRecord::is_ledger_payload(&bytes));
        assert!(!crate::SocketReport::is_report_payload(&bytes));
        assert!(!LedgerRecord::is_ledger_payload(b"SRPT"));
        assert!(!LedgerRecord::is_ledger_payload(b"SL"));
        // A ledger payload never peeks as a report either, so the live
        // producer routes it to the fallback shard.
        assert_eq!(crate::SocketReport::peek_pair(&bytes), None);
    }
}
