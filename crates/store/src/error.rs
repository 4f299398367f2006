//! Classified store errors: every way a segment or manifest can be
//! unreadable gets a [`StoreErrorKind`], so readers can *count*
//! rejections instead of panicking or silently skipping.

use std::fmt;
use std::io;

use serde::{Deserialize, Serialize};

/// Why a store artifact (segment, manifest, record) was rejected.
///
/// The reader's contract is **counted rejection, never a panic**: a
/// torn write, a flipped bit, or a stale format version turns into one
/// of these kinds plus a counter bump, and the query proceeds over the
/// segments that survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StoreErrorKind {
    /// Underlying filesystem error (open/read/write/rename).
    Io,
    /// The store directory has no manifest.
    MissingManifest,
    /// The manifest exists but does not parse.
    MalformedManifest,
    /// The file ends before its declared sections do (torn write,
    /// truncation, disk-full tail).
    Truncated,
    /// The fixed header does not start with the segment magic.
    BadMagic,
    /// The segment was written by an incompatible format version.
    BadVersion,
    /// The segment decodes structurally but its FNV-1a fingerprint
    /// disagrees with the header or the manifest (bit rot, torn
    /// overwrite); or a resuming producer's settings fingerprint
    /// disagrees with the one its unsealed campaign recorded.
    FingerprintMismatch,
    /// Structurally invalid content: offsets out of range, inconsistent
    /// column lengths, bad enum discriminants, non-UTF-8 pool strings,
    /// unparsable report payloads.
    Malformed,
}

impl StoreErrorKind {
    /// Stable snake_case label (telemetry/report spelling).
    pub fn label(self) -> &'static str {
        match self {
            StoreErrorKind::Io => "io",
            StoreErrorKind::MissingManifest => "missing_manifest",
            StoreErrorKind::MalformedManifest => "malformed_manifest",
            StoreErrorKind::Truncated => "truncated",
            StoreErrorKind::BadMagic => "bad_magic",
            StoreErrorKind::BadVersion => "bad_version",
            StoreErrorKind::FingerprintMismatch => "fingerprint_mismatch",
            StoreErrorKind::Malformed => "malformed",
        }
    }
}

/// A classified store error: the kind drives accounting, the message
/// carries the forensic detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// Classification for counted-rejection accounting.
    pub kind: StoreErrorKind,
    /// Human-readable detail (file, offset, expected vs got).
    pub message: String,
}

impl StoreError {
    /// Builds an error of `kind` with a rendered message.
    pub fn new(kind: StoreErrorKind, message: impl Into<String>) -> StoreError {
        StoreError {
            kind,
            message: message.into(),
        }
    }

    /// Shorthand for [`StoreErrorKind::Malformed`].
    pub fn malformed(message: impl Into<String>) -> StoreError {
        StoreError::new(StoreErrorKind::Malformed, message)
    }

    /// Shorthand for [`StoreErrorKind::Truncated`].
    pub fn truncated(message: impl Into<String>) -> StoreError {
        StoreError::new(StoreErrorKind::Truncated, message)
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(error: io::Error) -> StoreError {
        StoreError::new(StoreErrorKind::Io, error.to_string())
    }
}

impl From<StoreError> for io::Error {
    fn from(error: StoreError) -> io::Error {
        let kind = match error.kind {
            StoreErrorKind::Io => io::ErrorKind::Other,
            StoreErrorKind::MissingManifest => io::ErrorKind::NotFound,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, error.to_string())
    }
}

/// Store results.
pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = [
            StoreErrorKind::Io,
            StoreErrorKind::MissingManifest,
            StoreErrorKind::MalformedManifest,
            StoreErrorKind::Truncated,
            StoreErrorKind::BadMagic,
            StoreErrorKind::BadVersion,
            StoreErrorKind::FingerprintMismatch,
            StoreErrorKind::Malformed,
        ];
        let labels: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn io_round_trip_preserves_not_found_semantics() {
        let err = StoreError::new(StoreErrorKind::MissingManifest, "no MANIFEST.json");
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::NotFound);
        let err = StoreError::truncated("segment ends early");
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }
}
