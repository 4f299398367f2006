//! The append side: buffers records into a [`SegmentBuilder`], seals
//! a segment every `seal_every` analyses (or on every live snapshot
//! flush), and publishes each sealed segment with the atomic
//! rename-then-manifest protocol from [`crate::manifest`].
//!
//! A crash at any point loses at most the unsealed tail: everything
//! the manifest lists was durably renamed first. [`StoreWriter::open`]
//! with `resume` picks such a campaign up again: it continues the
//! campaign's segment numbering and seals that same campaign.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use spector_live::LiveSummary;

use libspector::AppAnalysis;

use crate::error::{StoreError, StoreErrorKind, StoreResult};
use crate::manifest::{
    atomic_write, segment_file_name, CampaignEntry, CampaignKind, Manifest, SegmentEntry,
};
use crate::reader::load_segment;
use crate::segment::{
    SegmentBuilder, SegmentView, REPORT_KIND_CAMPAIGN_SEAL, REPORT_KIND_LIVE_SNAPSHOT,
};
use crate::telemetry::StoreTelemetry;

/// Default analyses per segment before the writer seals.
pub const DEFAULT_SEAL_EVERY: usize = 64;

/// Identity of the campaign being written.
#[derive(Debug, Clone)]
pub struct CampaignMeta {
    /// Campaign seed.
    pub seed: u64,
    /// Apps in the corpus.
    pub apps: usize,
    /// Monkey events per app.
    pub monkey_events: usize,
    /// Producer kind.
    pub kind: CampaignKind,
}

/// Writer knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Seal a segment once this many analyses are buffered.
    pub seal_every: usize,
    /// Telemetry handles (default disabled).
    pub telemetry: StoreTelemetry,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            seal_every: DEFAULT_SEAL_EVERY,
            telemetry: StoreTelemetry::default(),
        }
    }
}

/// One app whose experiment could not run, as preserved in the
/// campaign seal record. The dispatcher re-exports it as `AppFailure`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredFailure {
    /// Index of the app in the corpus.
    pub index: usize,
    /// The app's package name.
    pub package: String,
    /// Rendered experiment error (the last attempt's).
    pub error: String,
    /// Attempts spent before giving up (1 = failed first try, no
    /// retries allowed or the failure was not retryable).
    pub attempts: u32,
}

/// The JSON payload of a [`REPORT_KIND_CAMPAIGN_SEAL`] record:
/// everything about the campaign that is not a per-app analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSealRecord {
    /// Campaign seed.
    pub seed: u64,
    /// Apps in the corpus.
    pub apps: usize,
    /// Monkey events per app.
    pub monkey_events: usize,
    /// Apps whose experiment failed.
    pub failures: Vec<StoredFailure>,
}

/// Appends one campaign's records to a store directory.
pub struct StoreWriter {
    dir: PathBuf,
    manifest: Manifest,
    campaign: u32,
    next_seq: u32,
    seal_every: usize,
    telemetry: StoreTelemetry,
    builder: SegmentBuilder,
    finished: bool,
    /// Analyses a reopened campaign already holds on disk.
    resumed: Vec<(u32, AppAnalysis)>,
}

impl StoreWriter {
    /// Opens (or initializes) the store at `dir` and registers a new
    /// campaign with the next free id. Reads no segments.
    pub fn create(
        dir: &Path,
        meta: &CampaignMeta,
        options: StoreOptions,
    ) -> StoreResult<StoreWriter> {
        let manifest = prepare(dir, &options)?;
        StoreWriter::register(dir, manifest, meta, None, options)
    }

    /// Opens the store at `dir` for a producer identified by
    /// `fingerprint`, whose JSON text the manifest records.
    ///
    /// Without `resume` this is [`StoreWriter::create`] plus that
    /// record. With `resume`, the newest unsealed `meta.kind` campaign
    /// is reopened instead: a recorded fingerprint that differs is
    /// refused before anything is written, and the campaign's verified
    /// segments are loaded for [`StoreWriter::take_resumed`]. When no
    /// campaign is unsealed, `resume` registers a fresh one.
    pub fn open(
        dir: &Path,
        meta: &CampaignMeta,
        fingerprint: &impl Serialize,
        resume: bool,
        options: StoreOptions,
    ) -> StoreResult<StoreWriter> {
        let fingerprint = serde_json::to_string(fingerprint)
            .map_err(|e| StoreError::new(StoreErrorKind::Io, format!("encode fingerprint: {e}")))?;
        let manifest = prepare(dir, &options)?;
        let unsealed = manifest
            .campaigns
            .iter()
            .rev()
            .find(|c| !c.sealed && c.kind == meta.kind);
        let Some(entry) = unsealed.filter(|_| resume) else {
            return StoreWriter::register(dir, manifest, meta, Some(fingerprint), options);
        };
        if entry.fingerprint.as_deref() != Some(fingerprint.as_str()) {
            return Err(StoreError::new(
                StoreErrorKind::FingerprintMismatch,
                format!(
                    "campaign fingerprint mismatch: unsealed campaign {} was written under {}, \
                     this run is {fingerprint}",
                    entry.id,
                    entry.fingerprint.as_deref().unwrap_or("no fingerprint"),
                ),
            ));
        }
        let campaign = entry.id;
        let mut writer = StoreWriter::attach(dir, manifest, campaign, options);
        for segment in writer
            .manifest
            .segments
            .iter()
            .filter(|s| s.campaign == campaign)
        {
            writer.next_seq = writer.next_seq.max(segment.seq + 1);
            // A rejected segment's apps are simply owed again.
            match load_segment(dir, segment) {
                Ok(loaded) => writer.resumed.extend(
                    SegmentView::parse(&loaded.bytes)
                        .expect("segment verified at load")
                        .materialize(),
                ),
                Err(e) => writer.telemetry.record_rejection(e.kind),
            }
        }
        Ok(writer)
    }

    /// Registers a new campaign in `manifest`, publishes it, and
    /// attaches a writer to it.
    fn register(
        dir: &Path,
        mut manifest: Manifest,
        meta: &CampaignMeta,
        fingerprint: Option<String>,
        options: StoreOptions,
    ) -> StoreResult<StoreWriter> {
        let campaign = manifest.next_campaign_id();
        manifest.campaigns.push(CampaignEntry {
            id: campaign,
            seed: meta.seed,
            apps: meta.apps,
            monkey_events: meta.monkey_events,
            kind: meta.kind,
            sealed: false,
            fingerprint,
        });
        manifest.save(dir)?;
        Ok(StoreWriter::attach(dir, manifest, campaign, options))
    }

    fn attach(dir: &Path, manifest: Manifest, campaign: u32, options: StoreOptions) -> StoreWriter {
        StoreWriter {
            dir: dir.to_path_buf(),
            manifest,
            campaign,
            next_seq: 0,
            seal_every: options.seal_every,
            telemetry: options.telemetry,
            builder: SegmentBuilder::default(),
            finished: false,
            resumed: Vec::new(),
        }
    }

    /// Hands over, once, the `(app_index, analysis)` records a
    /// reopened campaign already holds on disk; empty for a new one.
    pub fn take_resumed(&mut self) -> Vec<(u32, AppAnalysis)> {
        std::mem::take(&mut self.resumed)
    }

    /// The store-local id of the campaign being written.
    pub fn campaign_id(&self) -> u32 {
        self.campaign
    }

    /// Appends one per-app analysis under its corpus index; seals a
    /// segment once `seal_every` analyses are buffered.
    pub fn append_analysis(&mut self, app_index: u32, analysis: &AppAnalysis) -> StoreResult<()> {
        self.builder.push_analysis(app_index, analysis);
        if self.builder.counts().0 >= self.seal_every {
            self.seal_segment()?;
        }
        Ok(())
    }

    /// Appends a live snapshot record and seals immediately — a
    /// snapshot flush must be durable when the call returns.
    pub fn append_live_snapshot(&mut self, summary: &LiveSummary) -> StoreResult<()> {
        let payload = serde_json::to_string(summary)
            .map_err(|e| StoreError::new(StoreErrorKind::Io, format!("encode snapshot: {e}")))?;
        self.builder
            .push_report(REPORT_KIND_LIVE_SNAPSHOT, &payload);
        self.seal_segment()
    }

    /// Writes the campaign seal record, flushes the tail segment, and
    /// marks the campaign sealed in the manifest.
    pub fn finish(mut self, seal: &CampaignSealRecord) -> StoreResult<()> {
        let payload = serde_json::to_string(seal)
            .map_err(|e| StoreError::new(StoreErrorKind::Io, format!("encode seal: {e}")))?;
        self.builder
            .push_report(REPORT_KIND_CAMPAIGN_SEAL, &payload);
        self.seal_segment()?;
        let campaign = self.campaign;
        let entry = self
            .manifest
            .campaigns
            .iter_mut()
            .find(|c| c.id == campaign)
            .expect("writer registered its campaign at create");
        entry.sealed = true;
        self.manifest.save(&self.dir)?;
        self.telemetry.campaigns_sealed.inc();
        self.finished = true;
        Ok(())
    }

    /// Encodes the buffered records as segment `next_seq`, renames it
    /// into place, then publishes it in the manifest. No-op when the
    /// buffer is empty.
    fn seal_segment(&mut self) -> StoreResult<()> {
        if self.builder.is_empty() {
            return Ok(());
        }
        let (analyses, flows, reports) = self.builder.counts();
        let seq = self.next_seq;
        let bytes = self.builder.seal(self.campaign, seq);
        let file = segment_file_name(self.campaign, seq);
        atomic_write(&self.dir.join(&file), &bytes)?;
        let fingerprint = u64::from_le_bytes(bytes[40..48].try_into().expect("8 bytes"));
        self.manifest.segments.push(SegmentEntry {
            file,
            campaign: self.campaign,
            seq,
            analyses,
            flows,
            reports,
            bytes: bytes.len(),
            fingerprint,
        });
        self.manifest.save(&self.dir)?;
        self.next_seq += 1;
        let t = &self.telemetry;
        t.segments_written.inc();
        t.analyses_appended.add(analyses as u64);
        t.flows_appended.add(flows as u64);
        t.reports_appended.add(reports as u64);
        t.records_appended.add((analyses + flows + reports) as u64);
        t.bytes_written.add(bytes.len() as u64);
        Ok(())
    }
}

/// Validates `options` and loads `dir`'s manifest, initializing an
/// empty store when there is none yet.
fn prepare(dir: &Path, options: &StoreOptions) -> StoreResult<Manifest> {
    if options.seal_every == 0 {
        return Err(StoreError::new(
            StoreErrorKind::Io,
            "seal_every must be at least 1",
        ));
    }
    std::fs::create_dir_all(dir)?;
    match Manifest::load(dir) {
        Ok(manifest) => Ok(manifest),
        Err(e) if e.kind == StoreErrorKind::MissingManifest => Ok(Manifest::new()),
        Err(e) => Err(e),
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        // A dropped-without-finish writer still flushes its tail so an
        // orderly (non-crash) unwind loses nothing; the campaign stays
        // marked unsealed, which is exactly what it is.
        if !self.finished {
            let _ = self.seal_segment();
        }
    }
}
