//! The store manifest: the single source of truth for which segments
//! are sealed and what they must hash to.
//!
//! Crash-safety protocol (write side):
//!
//! 1. encode the segment to `<file>.tmp`, fsync, rename to `<file>`
//! 2. rewrite `MANIFEST.json` the same way (tmp + atomic rename)
//!
//! A crash between 1 and 2 leaves a well-formed segment file the
//! manifest does not list — an *orphan*, counted by the reader, never
//! trusted. A crash mid-rename leaves the old manifest intact. The
//! manifest therefore always parses, and everything it lists was
//! durably renamed before the listing was written.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::{StoreError, StoreErrorKind, StoreResult};
use crate::segment::SEGMENT_EXT;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";
/// Current manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// How a campaign's records were produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignKind {
    /// Offline `run_campaign` over a corpus.
    Run,
    /// A campaign run under the live engine (`libspector live`).
    Live,
}

/// One campaign recorded in the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignEntry {
    /// Store-local campaign id (segment files carry it).
    pub id: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Apps in the corpus.
    pub apps: usize,
    /// Monkey events per app.
    pub monkey_events: usize,
    /// Producer kind.
    pub kind: CampaignKind,
    /// `true` once the producer finished and wrote its seal record; a
    /// `false` here after the process died marks a partial campaign
    /// (its sealed segments are still queryable).
    pub sealed: bool,
    /// JSON text of the producer's settings fingerprint (the
    /// dispatcher's `CampaignFingerprint`). A resumed producer must
    /// present exactly this text. `None` when the producer recorded no
    /// fingerprint, or the manifest predates fingerprints; such a
    /// campaign cannot be resumed.
    #[serde(default)]
    pub fingerprint: Option<String>,
}

/// One sealed segment file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// File name within the store directory.
    pub file: String,
    /// Owning campaign id.
    pub campaign: u32,
    /// Sequence within the campaign.
    pub seq: u32,
    /// Analysis records in the segment.
    pub analyses: usize,
    /// Flow records.
    pub flows: usize,
    /// Report records.
    pub reports: usize,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// Expected FNV-1a-64 content fingerprint (must match the header).
    pub fingerprint: u64,
}

/// The manifest document.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version.
    pub version: u32,
    /// Campaigns, in id order.
    pub campaigns: Vec<CampaignEntry>,
    /// Sealed segments, in write order.
    pub segments: Vec<SegmentEntry>,
}

impl Manifest {
    /// An empty v1 manifest.
    pub fn new() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            campaigns: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// Loads and validates `dir/MANIFEST.json`.
    pub fn load(dir: &Path) -> StoreResult<Manifest> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::new(
                    StoreErrorKind::MissingManifest,
                    format!("{} does not exist", path.display()),
                ));
            }
            Err(e) => return Err(e.into()),
        };
        let manifest: Manifest = serde_json::from_slice(&bytes).map_err(|e| {
            StoreError::new(
                StoreErrorKind::MalformedManifest,
                format!("{}: {e}", path.display()),
            )
        })?;
        if manifest.version != MANIFEST_VERSION {
            return Err(StoreError::new(
                StoreErrorKind::MalformedManifest,
                format!(
                    "manifest version {}, reader speaks {MANIFEST_VERSION}",
                    manifest.version
                ),
            ));
        }
        Ok(manifest)
    }

    /// Atomically rewrites `dir/MANIFEST.json` (tmp + rename).
    pub fn save(&self, dir: &Path) -> StoreResult<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| StoreError::new(StoreErrorKind::Io, format!("encode manifest: {e}")))?;
        atomic_write(&dir.join(MANIFEST_FILE), json.as_bytes())
    }

    /// The next unused campaign id.
    pub fn next_campaign_id(&self) -> u32 {
        self.campaigns.iter().map(|c| c.id + 1).max().unwrap_or(0)
    }

    /// The campaign with `id`, when present.
    pub fn campaign(&self, id: u32) -> Option<&CampaignEntry> {
        self.campaigns.iter().find(|c| c.id == id)
    }
}

/// Segment file name for `(campaign, seq)`.
pub fn segment_file_name(campaign: u32, seq: u32) -> String {
    format!("seg-{campaign:04}-{seq:04}.{SEGMENT_EXT}")
}

/// Writes `bytes` to `path` atomically: `<path>.tmp`, fsync, rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spector-store-manifest-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut manifest = Manifest::new();
        manifest.campaigns.push(CampaignEntry {
            id: 0,
            seed: 42,
            apps: 12,
            monkey_events: 120,
            kind: CampaignKind::Run,
            sealed: true,
            fingerprint: Some("{\"apps\":12}".to_owned()),
        });
        manifest.segments.push(SegmentEntry {
            file: segment_file_name(0, 0),
            campaign: 0,
            seq: 0,
            analyses: 12,
            flows: 90,
            reports: 1,
            bytes: 4_096,
            fingerprint: 0xdead_beef,
        });
        manifest.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), manifest);
        assert_eq!(manifest.next_campaign_id(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifests_without_fingerprints_still_parse() {
        let dir = temp_dir("legacy");
        let legacy = r#"{"version":1,"campaigns":[{"id":0,"seed":1,"apps":2,
            "monkey_events":3,"kind":"Run","sealed":false}],"segments":[]}"#;
        fs::write(dir.join(MANIFEST_FILE), legacy).unwrap();
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.campaigns[0].fingerprint, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_malformed_manifests_classify() {
        let dir = temp_dir("classify");
        let err = Manifest::load(&dir).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::MissingManifest);
        fs::write(dir.join(MANIFEST_FILE), b"{not json").unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::MalformedManifest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp() {
        let dir = temp_dir("atomic");
        let path = dir.join("file.bin");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
