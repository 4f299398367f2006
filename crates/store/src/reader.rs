//! The query side: opens a store directory, verifies every manifest-
//! listed segment (fingerprint, identity, counts), and hands out
//! zero-copy [`SegmentView`]s for columnar scans plus materialized
//! [`AppAnalysis`] records for the byte-identity render path.
//!
//! The contract is **counted rejection, never a panic**: a corrupt or
//! torn segment becomes one entry in [`StoreIntegrity::rejected`] and
//! the scan proceeds over the survivors. Only a missing or malformed
//! manifest is a hard error — the write protocol keeps the manifest
//! atomically replaced, so any crash leaves a valid one.

use std::collections::BTreeSet;
use std::path::Path;

use libspector::AppAnalysis;

use crate::error::{StoreError, StoreErrorKind, StoreResult};
use crate::manifest::{CampaignEntry, Manifest, SegmentEntry, MANIFEST_FILE};
use crate::segment::{SegmentView, REPORT_KIND_CAMPAIGN_SEAL, SEGMENT_EXT};
use crate::telemetry::StoreTelemetry;
use crate::writer::CampaignSealRecord;

/// What [`StoreReader::open`] found wrong (and right) with the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreIntegrity {
    /// Manifest-listed segments that verified and parsed.
    pub segments_ok: usize,
    /// Rejected segments: file name and classified reason.
    pub rejected: Vec<(String, StoreErrorKind)>,
    /// Segment/tmp files on disk the manifest does not list — the
    /// unsealed tail a crash left behind. Never queried.
    pub orphaned_segments: usize,
    /// Campaigns whose producer never finished.
    pub unsealed_campaigns: usize,
}

/// One analysis record with its store coordinates.
#[derive(Debug, Clone)]
pub struct StoredAnalysis {
    /// Owning campaign id.
    pub campaign: u32,
    /// Campaign-local corpus index.
    pub app_index: u32,
    /// The reconstructed analysis.
    pub analysis: AppAnalysis,
}

pub(crate) struct LoadedSegment {
    campaign: u32,
    pub(crate) bytes: Vec<u8>,
    records: usize,
}

/// Read access to one store directory.
pub struct StoreReader {
    manifest: Manifest,
    segments: Vec<LoadedSegment>,
    integrity: StoreIntegrity,
    telemetry: StoreTelemetry,
}

impl StoreReader {
    /// Opens `dir`, verifying every listed segment. Equivalent to
    /// [`StoreReader::open_with`] with disabled telemetry.
    pub fn open(dir: &Path) -> StoreResult<StoreReader> {
        StoreReader::open_with(dir, StoreTelemetry::default())
    }

    /// Opens `dir` with telemetry: rejections and orphans are counted
    /// on `telemetry` as well as in [`StoreIntegrity`].
    pub fn open_with(dir: &Path, telemetry: StoreTelemetry) -> StoreResult<StoreReader> {
        let manifest = Manifest::load(dir)?;
        let mut integrity = StoreIntegrity {
            unsealed_campaigns: manifest.campaigns.iter().filter(|c| !c.sealed).count(),
            ..StoreIntegrity::default()
        };
        let mut segments = Vec::new();
        for entry in &manifest.segments {
            match load_segment(dir, entry) {
                Ok(loaded) => {
                    integrity.segments_ok += 1;
                    segments.push(loaded);
                }
                Err(e) => {
                    telemetry.record_rejection(e.kind);
                    integrity.rejected.push((entry.file.clone(), e.kind));
                }
            }
        }
        integrity.orphaned_segments = count_orphans(dir, &manifest)?;
        telemetry
            .orphaned_segments
            .add(integrity.orphaned_segments as u64);
        Ok(StoreReader {
            manifest,
            segments,
            integrity,
            telemetry,
        })
    }

    /// Campaigns the manifest records, in id order.
    pub fn campaigns(&self) -> &[CampaignEntry] {
        &self.manifest.campaigns
    }

    /// Sealed segments the manifest lists, in append order (including
    /// any that failed verification — see [`StoreReader::integrity`]).
    pub fn segments(&self) -> &[SegmentEntry] {
        &self.manifest.segments
    }

    /// What open found.
    pub fn integrity(&self) -> &StoreIntegrity {
        &self.integrity
    }

    /// Zero-copy views of every verified segment, optionally filtered
    /// to a campaign set. Counts one query scan.
    pub fn views(&self, campaigns: Option<&[u32]>) -> Vec<SegmentView<'_>> {
        let views: Vec<SegmentView<'_>> = self
            .segments
            .iter()
            .filter(|s| campaigns.is_none_or(|set| set.contains(&s.campaign)))
            .map(|s| SegmentView::parse(&s.bytes).expect("segment verified at open"))
            .collect();
        self.telemetry.query_scans.inc();
        let records: usize = self
            .segments
            .iter()
            .filter(|s| campaigns.is_none_or(|set| set.contains(&s.campaign)))
            .map(|s| s.records)
            .sum();
        self.telemetry.records_scanned.add(records as u64);
        views
    }

    /// Materializes every stored analysis in `(campaign, app_index)`
    /// order — corpus order within each campaign, which is what makes
    /// the store-backed report byte-identical to the in-memory one.
    pub fn analyses(&self, campaigns: Option<&[u32]>) -> Vec<StoredAnalysis> {
        let mut out: Vec<StoredAnalysis> = Vec::new();
        for view in self.views(campaigns) {
            let campaign = view.campaign;
            for (app_index, analysis) in view.materialize() {
                out.push(StoredAnalysis {
                    campaign,
                    app_index,
                    analysis,
                });
            }
        }
        out.sort_by_key(|a| (a.campaign, a.app_index));
        out
    }

    /// The analyses of one campaign, in corpus order.
    pub fn campaign_analyses(&self, campaign: u32) -> Vec<AppAnalysis> {
        self.analyses(Some(&[campaign]))
            .into_iter()
            .map(|a| a.analysis)
            .collect()
    }

    /// The campaign's seal record, when its producer finished.
    pub fn seal_record(&self, campaign: u32) -> StoreResult<Option<CampaignSealRecord>> {
        for view in self.views(Some(&[campaign])) {
            for report in view.reports() {
                if report.kind == REPORT_KIND_CAMPAIGN_SEAL {
                    let seal: CampaignSealRecord = serde_json::from_str(report.payload)
                        .map_err(|e| StoreError::malformed(format!("seal record payload: {e}")))?;
                    return Ok(Some(seal));
                }
            }
        }
        Ok(None)
    }
}

/// Reads and fully verifies one manifest-listed segment.
pub(crate) fn load_segment(dir: &Path, entry: &SegmentEntry) -> StoreResult<LoadedSegment> {
    let bytes = std::fs::read(dir.join(&entry.file))?;
    let view = SegmentView::parse(&bytes)?;
    if view.fingerprint != entry.fingerprint {
        return Err(StoreError::new(
            StoreErrorKind::FingerprintMismatch,
            format!(
                "segment hashes to {:#018x}, manifest says {:#018x}",
                view.fingerprint, entry.fingerprint
            ),
        ));
    }
    if (view.campaign, view.seq) != (entry.campaign, entry.seq) {
        return Err(StoreError::malformed(format!(
            "segment identifies as campaign {} seq {}, manifest says {} / {}",
            view.campaign, view.seq, entry.campaign, entry.seq
        )));
    }
    let (analyses, flows, reports) = view.counts();
    if (analyses, flows, reports) != (entry.analyses, entry.flows, entry.reports) {
        return Err(StoreError::malformed(format!(
            "segment holds {analyses}/{flows}/{reports} records, manifest says {}/{}/{}",
            entry.analyses, entry.flows, entry.reports
        )));
    }
    Ok(LoadedSegment {
        campaign: entry.campaign,
        bytes,
        records: analyses + flows + reports,
    })
}

/// Counts on-disk segment and tmp files the manifest does not list.
fn count_orphans(dir: &Path, manifest: &Manifest) -> StoreResult<usize> {
    let listed: BTreeSet<&str> = manifest.segments.iter().map(|s| s.file.as_str()).collect();
    let mut orphans = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name == MANIFEST_FILE {
            continue;
        }
        let is_segment = name.ends_with(&format!(".{SEGMENT_EXT}"));
        let is_tmp = name.ends_with(".tmp");
        if (is_segment && !listed.contains(name)) || is_tmp {
            orphans += 1;
        }
    }
    Ok(orphans)
}
