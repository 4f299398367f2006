//! Segment format: one append-only, compacted file holding three
//! record tables — per-app analyses, their flows, and low-volume
//! report records — as string-pooled, dictionary/delta-encoded
//! columns behind a fixed little-endian header.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SPSTSEG1"
//! 8       4     version (1)
//! 12      4     campaign id
//! 16      4     segment sequence within the campaign
//! 20      4     n_analyses
//! 24      4     n_flows
//! 28      4     n_reports
//! 32      4     pool_len   (pool starts at HEADER_LEN)
//! 36      4     cols_len   (columns follow the pool)
//! 40      8     fingerprint: FNV-1a-64 over bytes[HEADER_LEN..]
//! 48      16    zero padding
//! 64            string pool, then length-prefixed column blocks
//! ```
//!
//! Column blocks appear in a fixed order (A0–A13 analyses, F0–F11
//! flows, R0–R1 reports), each prefixed by its `u32` byte length.
//! Dictionary columns store pool ids (`u32`, [`NO_STRING`] for
//! `None`/builtin); enum columns store a `u8` index into the enum's
//! `ALL` table; byte counters are LEB128 varint streams; flow start
//! timestamps are zigzag varint deltas against the previous flow in
//! the segment.
//!
//! [`SegmentView::parse`] validates *everything* once — magic,
//! version, fingerprint, pool UTF-8, block framing, every pool id,
//! every enum discriminant, every varint stream's framing and count —
//! so the row accessors and iterators after it are infallible and
//! borrow straight from the file bytes (the `CaptureIndex`/`FrameRef`
//! zero-copy discipline). Corruption anywhere surfaces as one
//! classified [`StoreError`] at parse, never a panic later.

use std::collections::BTreeMap;

use libspector::pipeline::DetectStats;
use libspector::{AppAnalysis, CoverageReport, FlowRow, FlowShape, IpFamily, RunIntegrity};
use spector_libradar::{DetectTier, LibCategory};
use spector_sampling::SamplingLedger;
use spector_vtcat::DomainCategory;

use crate::codec::{
    fnv1a64, put_u32, put_u64, put_varint, unzigzag, zigzag, Cursor, U32Col, U64Col,
};
use crate::error::{StoreError, StoreErrorKind, StoreResult};
use crate::pool::{PoolBuilder, PoolView, NO_STRING};

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Segment file magic.
pub const MAGIC: [u8; 8] = *b"SPSTSEG1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Segment file extension.
pub const SEGMENT_EXT: &str = "spseg";

/// Report-record kinds (the `R0` column).
pub const REPORT_KIND_CAMPAIGN_SEAL: u8 = 0;
/// Live snapshot record. Nothing writes these any more; stores written
/// by earlier builds hold them, so a segment carrying one still parses.
pub const REPORT_KIND_LIVE_SNAPSHOT: u8 = 1;

/// Flow flag bits (the `F5` column).
const FLAG_ANT: u8 = 1;
const FLAG_COMMON: u8 = 2;

/// Accumulates records for one segment and encodes the file bytes.
#[derive(Debug, Default)]
pub struct SegmentBuilder {
    pool: PoolBuilder,
    // Analyses: A0–A13.
    app_index: Vec<u32>,
    package: Vec<u32>,
    app_category: Vec<u32>,
    flow_count: Vec<u32>,
    unattributed: Vec<u32>,
    reports_without_flow: Vec<u32>,
    dns_packets: Vec<u32>,
    report_packets: Vec<u32>,
    coverage: Vec<u32>,
    integrity: Vec<u32>,
    detect_scalars: Vec<u64>,
    tier_counts: Vec<u32>,
    tier_ids: Vec<u32>,
    tier_bytes: Vec<u8>,
    sampling: Vec<u64>,
    // Flows: F0–F11.
    domain: Vec<u32>,
    domain_category: Vec<u8>,
    origin: Vec<u32>,
    two_level: Vec<u32>,
    lib_category: Vec<u8>,
    flags: Vec<u8>,
    sent_bytes: Vec<u8>,
    recv_bytes: Vec<u8>,
    sent_payload: Vec<u8>,
    recv_payload: Vec<u8>,
    start_micros: Vec<u8>,
    prev_start: u64,
    user_agent: Vec<u32>,
    // Reports: R0–R1.
    report_kind: Vec<u8>,
    report_payload: Vec<u32>,
    // Socket-realism columns F12–F14, appended as trailing blocks and
    // only when some flow is non-default, so every legacy (v4-only,
    // plain, single-stream) segment stays byte-identical to the
    // pre-shape format.
    family: Vec<u8>,
    shape: Vec<u8>,
    stream: Vec<u8>,
}

impl SegmentBuilder {
    /// Records appended so far, split as (analyses, flows, reports).
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.app_index.len(),
            self.domain.len(),
            self.report_kind.len(),
        )
    }

    /// `true` when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.counts() == (0, 0, 0)
    }

    /// Appends one per-app analysis (and all its flows) under the
    /// campaign-local `app_index` that restores corpus order on read.
    pub fn push_analysis(&mut self, app_index: u32, analysis: &AppAnalysis) {
        self.app_index.push(app_index);
        self.package.push(self.pool.intern(&analysis.package));
        // Reuse the field below through a local to appease the borrow
        // checker on `self.pool`.
        let app_category = self.pool.intern(&analysis.app_category);
        self.app_category.push(app_category);
        self.flow_count.push(analysis.flows.len() as u32);
        self.unattributed.push(analysis.unattributed_flows as u32);
        self.reports_without_flow
            .push(analysis.reports_without_flow as u32);
        self.dns_packets.push(analysis.dns_packets as u32);
        self.report_packets.push(analysis.report_packets as u32);
        self.coverage.extend([
            analysis.coverage.total_methods as u32,
            analysis.coverage.executed_methods as u32,
            analysis.coverage.external_methods as u32,
        ]);
        self.integrity.extend([
            analysis.integrity.frames_truncated as u32,
            analysis.integrity.frames_malformed as u32,
            analysis.integrity.frames_bad_checksum as u32,
            analysis.integrity.reports_truncated as u32,
            analysis.integrity.reports_malformed as u32,
            analysis.integrity.synthesized_flows as u32,
        ]);
        self.detect_scalars.extend([
            analysis.detect.lookups,
            analysis.detect.trie_hits,
            analysis.detect.exact_fp_hits,
            analysis.detect.structural_hits,
            analysis.detect.misses,
        ]);
        self.tier_counts
            .push(analysis.detect.per_library_tier.len() as u32);
        for (library, tier) in &analysis.detect.per_library_tier {
            let id = self.pool.intern(library);
            self.tier_ids.push(id);
            self.tier_bytes.push(enum_index(&DetectTier::ALL, tier));
        }
        self.sampling.extend([
            analysis.sampling.reports_observed,
            analysis.sampling.reports_emitted,
            analysis.sampling.sampled_out,
            analysis.sampling.budget_suppressed,
            analysis.sampling.windows_exhausted,
            analysis.sampling.ledgers_lost,
        ]);
        for flow in &analysis.flows {
            self.push_flow(flow.row());
        }
    }

    fn push_flow(&mut self, flow: FlowRow<'_>) {
        self.domain.push(self.pool.intern_opt(flow.domain));
        self.domain_category
            .push(enum_index(&DomainCategory::ALL, &flow.domain_category));
        let origin = self.pool.intern_opt(flow.origin);
        let two_level = self.pool.intern_opt(flow.two_level);
        self.origin.push(origin);
        self.two_level.push(two_level);
        self.lib_category
            .push(enum_index(&LibCategory::ALL, &flow.lib_category));
        let mut flags = 0u8;
        if flow.is_ant {
            flags |= FLAG_ANT;
        }
        if flow.is_common {
            flags |= FLAG_COMMON;
        }
        self.flags.push(flags);
        put_varint(&mut self.sent_bytes, flow.sent_bytes);
        put_varint(&mut self.recv_bytes, flow.recv_bytes);
        put_varint(&mut self.sent_payload, flow.sent_payload);
        put_varint(&mut self.recv_payload, flow.recv_payload);
        let delta = flow.start_micros.wrapping_sub(self.prev_start) as i64;
        put_varint(&mut self.start_micros, zigzag(delta));
        self.prev_start = flow.start_micros;
        self.user_agent
            .push(self.pool.intern_opt(flow.http_user_agent));
        self.family.push(match flow.family {
            IpFamily::V4 => 0,
            IpFamily::V6 => 1,
        });
        self.shape.push(match flow.shape {
            FlowShape::Plain => 0,
            FlowShape::TlsLike => 1,
            FlowShape::ConnectProxy => 2,
        });
        // `ordinal + 1`, so 0 encodes `None` (a whole-connection row).
        put_varint(
            &mut self.stream,
            flow.stream.map(|k| u64::from(k) + 1).unwrap_or(0),
        );
    }

    /// Appends one report record: a `kind` byte plus a JSON payload
    /// that rides in the string pool (reports are low-volume; only the
    /// analysis and flow tables are columnar).
    pub fn push_report(&mut self, kind: u8, payload: &str) {
        self.report_kind.push(kind);
        self.report_payload.push(self.pool.intern(payload));
    }

    /// Encodes the complete segment file for `(campaign, seq)` and
    /// resets the builder for the next segment.
    pub fn seal(&mut self, campaign: u32, seq: u32) -> Vec<u8> {
        let mut pool = Vec::new();
        self.pool.encode(&mut pool);

        let mut cols = Vec::new();
        // A0–A12.
        block_u32(&mut cols, &self.app_index);
        block_u32(&mut cols, &self.package);
        block_u32(&mut cols, &self.app_category);
        block_u32(&mut cols, &self.flow_count);
        block_u32(&mut cols, &self.unattributed);
        block_u32(&mut cols, &self.reports_without_flow);
        block_u32(&mut cols, &self.dns_packets);
        block_u32(&mut cols, &self.report_packets);
        block_u32(&mut cols, &self.coverage);
        block_u32(&mut cols, &self.integrity);
        block_u64(&mut cols, &self.detect_scalars);
        block_u32(&mut cols, &self.tier_counts);
        let mut tier_entries = Vec::new();
        for &id in &self.tier_ids {
            put_u32(&mut tier_entries, id);
        }
        tier_entries.extend_from_slice(&self.tier_bytes);
        block_bytes(&mut cols, &tier_entries);
        block_u64(&mut cols, &self.sampling);
        // F0–F11.
        block_u32(&mut cols, &self.domain);
        block_bytes(&mut cols, &self.domain_category);
        block_u32(&mut cols, &self.origin);
        block_u32(&mut cols, &self.two_level);
        block_bytes(&mut cols, &self.lib_category);
        block_bytes(&mut cols, &self.flags);
        block_bytes(&mut cols, &self.sent_bytes);
        block_bytes(&mut cols, &self.recv_bytes);
        block_bytes(&mut cols, &self.sent_payload);
        block_bytes(&mut cols, &self.recv_payload);
        block_bytes(&mut cols, &self.start_micros);
        block_u32(&mut cols, &self.user_agent);
        // R0–R1.
        block_bytes(&mut cols, &self.report_kind);
        block_u32(&mut cols, &self.report_payload);
        // F12–F14 trail the fixed layout and are present only when some
        // flow departs from the legacy defaults; an all-default segment
        // ends at R1 exactly as before.
        let modern = self.family.iter().any(|&b| b != 0)
            || self.shape.iter().any(|&b| b != 0)
            || self.stream.iter().any(|&b| b != 0);
        if modern {
            block_bytes(&mut cols, &self.family);
            block_bytes(&mut cols, &self.shape);
            block_bytes(&mut cols, &self.stream);
        }

        let (n_analyses, n_flows, n_reports) = self.counts();
        let mut file = Vec::with_capacity(HEADER_LEN + pool.len() + cols.len());
        file.extend_from_slice(&MAGIC);
        put_u32(&mut file, VERSION);
        put_u32(&mut file, campaign);
        put_u32(&mut file, seq);
        put_u32(&mut file, n_analyses as u32);
        put_u32(&mut file, n_flows as u32);
        put_u32(&mut file, n_reports as u32);
        put_u32(&mut file, pool.len() as u32);
        put_u32(&mut file, cols.len() as u32);
        // Fingerprint back-patched below.
        put_u64(&mut file, 0);
        file.resize(HEADER_LEN, 0);
        file.extend_from_slice(&pool);
        file.extend_from_slice(&cols);
        let fingerprint = fnv1a64(&file[HEADER_LEN..]);
        file[40..48].copy_from_slice(&fingerprint.to_le_bytes());

        *self = SegmentBuilder::default();
        file
    }
}

/// Index of `value` in the enum's `ALL` table (the on-disk `u8`).
fn enum_index<T: PartialEq>(all: &[T], value: &T) -> u8 {
    all.iter()
        .position(|v| v == value)
        .expect("enum value missing from ALL table") as u8
}

fn block_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn block_u32(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, (values.len() * 4) as u32);
    for &v in values {
        put_u32(out, v);
    }
}

fn block_u64(out: &mut Vec<u8>, values: &[u64]) {
    put_u32(out, (values.len() * 8) as u32);
    for &v in values {
        put_u64(out, v);
    }
}

/// One decoded analysis row (strings borrow the segment bytes).
#[derive(Debug, Clone, Copy)]
pub struct AnalysisRow<'a> {
    /// Campaign-local app index (corpus order).
    pub app_index: u32,
    /// App package name.
    pub package: &'a str,
    /// Play-store category.
    pub app_category: &'a str,
    /// Flows this analysis contributed to the segment's flow table.
    pub flow_count: u32,
    /// Unattributed stream epochs.
    pub unattributed_flows: u32,
    /// Reports that joined no flow.
    pub reports_without_flow: u32,
    /// DNS datagrams observed.
    pub dns_packets: u32,
    /// Supervisor report datagrams observed.
    pub report_packets: u32,
    /// Coverage (total, executed, external).
    pub coverage: [u32; 3],
    /// Degraded-mode accounting.
    pub integrity: RunIntegrity,
    /// Detect scalars (lookups, trie, exact_fp, structural, misses).
    pub detect: [u64; 5],
    /// Sampled-tracing accounting.
    pub sampling: SamplingLedger,
}

/// One decoded report record.
#[derive(Debug, Clone, Copy)]
pub struct ReportRow<'a> {
    /// [`REPORT_KIND_CAMPAIGN_SEAL`] or [`REPORT_KIND_LIVE_SNAPSHOT`].
    pub kind: u8,
    /// JSON payload.
    pub payload: &'a str,
}

/// A fully-validated zero-copy view of one segment's bytes.
#[derive(Debug)]
pub struct SegmentView<'a> {
    /// Campaign id from the header.
    pub campaign: u32,
    /// Segment sequence from the header.
    pub seq: u32,
    /// Header fingerprint (validated against the content).
    pub fingerprint: u64,
    n_analyses: usize,
    n_flows: usize,
    pool: PoolView<'a>,
    app_index: U32Col<'a>,
    package: U32Col<'a>,
    app_category: U32Col<'a>,
    flow_count: U32Col<'a>,
    unattributed: U32Col<'a>,
    reports_without_flow: U32Col<'a>,
    dns_packets: U32Col<'a>,
    report_packets: U32Col<'a>,
    coverage: U32Col<'a>,
    integrity: U32Col<'a>,
    detect_scalars: U64Col<'a>,
    tier_counts: U32Col<'a>,
    tier_ids: U32Col<'a>,
    tier_bytes: &'a [u8],
    sampling: U64Col<'a>,
    domain: U32Col<'a>,
    domain_category: &'a [u8],
    origin: U32Col<'a>,
    two_level: U32Col<'a>,
    lib_category: &'a [u8],
    flags: &'a [u8],
    sent_bytes: &'a [u8],
    recv_bytes: &'a [u8],
    sent_payload: &'a [u8],
    recv_payload: &'a [u8],
    start_micros: &'a [u8],
    user_agent: U32Col<'a>,
    report_kind: &'a [u8],
    report_payload: U32Col<'a>,
    // F12–F14; all empty for a legacy segment (defaults apply).
    family: &'a [u8],
    shape: &'a [u8],
    stream: &'a [u8],
}

impl<'a> SegmentView<'a> {
    /// Parses and validates `bytes` as one segment file. Everything is
    /// checked here — after `parse` succeeds, every accessor and
    /// iterator on the view is infallible.
    pub fn parse(bytes: &'a [u8]) -> StoreResult<SegmentView<'a>> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::truncated(format!(
                "header: file holds {} bytes, need {HEADER_LEN}",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(StoreError::new(
                StoreErrorKind::BadMagic,
                "header does not start with SPSTSEG1",
            ));
        }
        let mut header = Cursor::new(&bytes[8..HEADER_LEN]);
        let version = header.u32("version")?;
        if version != VERSION {
            return Err(StoreError::new(
                StoreErrorKind::BadVersion,
                format!("segment version {version}, reader speaks {VERSION}"),
            ));
        }
        let campaign = header.u32("campaign")?;
        let seq = header.u32("seq")?;
        let n_analyses = header.u32("n_analyses")? as usize;
        let n_flows = header.u32("n_flows")? as usize;
        let n_reports = header.u32("n_reports")? as usize;
        let pool_len = header.u32("pool_len")? as usize;
        let cols_len = header.u32("cols_len")? as usize;
        let fingerprint = header.u64("fingerprint")?;
        let declared = HEADER_LEN + pool_len + cols_len;
        if bytes.len() < declared {
            return Err(StoreError::truncated(format!(
                "file holds {} bytes, header declares {declared}",
                bytes.len()
            )));
        }
        let actual = fnv1a64(&bytes[HEADER_LEN..declared]);
        if actual != fingerprint {
            return Err(StoreError::new(
                StoreErrorKind::FingerprintMismatch,
                format!("content hashes to {actual:#018x}, header says {fingerprint:#018x}"),
            ));
        }
        let pool = PoolView::parse(&bytes[HEADER_LEN..HEADER_LEN + pool_len])?;
        let mut cols = Cursor::new(&bytes[HEADER_LEN + pool_len..declared]);

        let app_index = U32Col::new(block(&mut cols, "A0 app_index")?, n_analyses, "A0")?;
        let package = U32Col::new(block(&mut cols, "A1 package")?, n_analyses, "A1")?;
        let app_category = U32Col::new(block(&mut cols, "A2 app_category")?, n_analyses, "A2")?;
        let flow_count = U32Col::new(block(&mut cols, "A3 flow_count")?, n_analyses, "A3")?;
        let unattributed = U32Col::new(block(&mut cols, "A4 unattributed")?, n_analyses, "A4")?;
        let reports_without_flow = U32Col::new(
            block(&mut cols, "A5 reports_without_flow")?,
            n_analyses,
            "A5",
        )?;
        let dns_packets = U32Col::new(block(&mut cols, "A6 dns_packets")?, n_analyses, "A6")?;
        let report_packets = U32Col::new(block(&mut cols, "A7 report_packets")?, n_analyses, "A7")?;
        let coverage = U32Col::new(block(&mut cols, "A8 coverage")?, n_analyses * 3, "A8")?;
        let integrity = U32Col::new(block(&mut cols, "A9 integrity")?, n_analyses * 6, "A9")?;
        let detect_scalars = U64Col::new(block(&mut cols, "A10 detect")?, n_analyses * 5, "A10")?;
        let tier_counts = U32Col::new(block(&mut cols, "A11 tier_counts")?, n_analyses, "A11")?;
        let n_tiers: usize = tier_counts.iter().map(|c| c as usize).sum();
        let tier_entries = block(&mut cols, "A12 tier_entries")?;
        if tier_entries.len() != n_tiers * 5 {
            return Err(StoreError::malformed(format!(
                "A12: {} bytes for {n_tiers} tier entries, want {}",
                tier_entries.len(),
                n_tiers * 5
            )));
        }
        let tier_ids = U32Col::new(&tier_entries[..n_tiers * 4], n_tiers, "A12 ids")?;
        let tier_bytes = &tier_entries[n_tiers * 4..];
        let sampling = U64Col::new(block(&mut cols, "A13 sampling")?, n_analyses * 6, "A13")?;

        let domain = U32Col::new(block(&mut cols, "F0 domain")?, n_flows, "F0")?;
        let domain_category = fixed_block(&mut cols, n_flows, "F1 domain_category")?;
        let origin = U32Col::new(block(&mut cols, "F2 origin")?, n_flows, "F2")?;
        let two_level = U32Col::new(block(&mut cols, "F3 two_level")?, n_flows, "F3")?;
        let lib_category = fixed_block(&mut cols, n_flows, "F4 lib_category")?;
        let flags = fixed_block(&mut cols, n_flows, "F5 flags")?;
        let sent_bytes = block(&mut cols, "F6 sent_bytes")?;
        let recv_bytes = block(&mut cols, "F7 recv_bytes")?;
        let sent_payload = block(&mut cols, "F8 sent_payload")?;
        let recv_payload = block(&mut cols, "F9 recv_payload")?;
        let start_micros = block(&mut cols, "F10 start_micros")?;
        let user_agent = U32Col::new(block(&mut cols, "F11 user_agent")?, n_flows, "F11")?;

        let report_kind = fixed_block(&mut cols, n_reports, "R0 kind")?;
        let report_payload = U32Col::new(block(&mut cols, "R1 payload")?, n_reports, "R1")?;
        // Trailing socket-realism blocks (F12–F14): absent in legacy
        // segments, in which case every flow decodes with the default
        // family/shape/stream.
        let (family, shape, stream): (&[u8], &[u8], &[u8]) = if cols.remaining() != 0 {
            (
                fixed_block(&mut cols, n_flows, "F12 family")?,
                fixed_block(&mut cols, n_flows, "F13 shape")?,
                block(&mut cols, "F14 stream")?,
            )
        } else {
            (&[], &[], &[])
        };
        if cols.remaining() != 0 {
            return Err(StoreError::malformed(format!(
                "{} trailing bytes after the last column block",
                cols.remaining()
            )));
        }

        let view = SegmentView {
            campaign,
            seq,
            fingerprint,
            n_analyses,
            n_flows,
            pool,
            app_index,
            package,
            app_category,
            flow_count,
            unattributed,
            reports_without_flow,
            dns_packets,
            report_packets,
            coverage,
            integrity,
            detect_scalars,
            tier_counts,
            tier_ids,
            tier_bytes,
            sampling,
            domain,
            domain_category,
            origin,
            two_level,
            lib_category,
            flags,
            sent_bytes,
            recv_bytes,
            sent_payload,
            recv_payload,
            start_micros,
            user_agent,
            report_kind,
            report_payload,
            family,
            shape,
            stream,
        };
        view.validate_content()?;
        Ok(view)
    }

    /// Cross-column invariants and value-domain checks, so the
    /// accessors below never fail.
    fn validate_content(&self) -> StoreResult<()> {
        let flow_sum: usize = self.flow_count.iter().map(|c| c as usize).sum();
        if flow_sum != self.n_flows {
            return Err(StoreError::malformed(format!(
                "A3 flow counts sum to {flow_sum}, header declares {} flows",
                self.n_flows
            )));
        }
        for (what, col) in [
            ("A1 package", &self.package),
            ("A2 app_category", &self.app_category),
        ] {
            for id in col.iter() {
                self.pool.get(id, what)?;
            }
        }
        for id in self.tier_ids.iter() {
            self.pool.get(id, "A12 tier library")?;
        }
        for (i, &tier) in self.tier_bytes.iter().enumerate() {
            if tier as usize >= DetectTier::ALL.len() {
                return Err(StoreError::malformed(format!(
                    "A12 entry {i}: tier discriminant {tier} out of range"
                )));
            }
        }
        for (what, col) in [
            ("F0 domain", &self.domain),
            ("F2 origin", &self.origin),
            ("F3 two_level", &self.two_level),
            ("F11 user_agent", &self.user_agent),
        ] {
            for id in col.iter() {
                self.pool.get_opt(id, what)?;
            }
        }
        for i in 0..self.n_flows {
            // Library origins carry both labels; builtins neither.
            if (self.origin.get(i) == NO_STRING) != (self.two_level.get(i) == NO_STRING) {
                return Err(StoreError::malformed(format!(
                    "flow {i}: origin/two_level disagree on builtin"
                )));
            }
            if self.domain_category[i] as usize >= DomainCategory::ALL.len() {
                return Err(StoreError::malformed(format!(
                    "flow {i}: domain_category discriminant {} out of range",
                    self.domain_category[i]
                )));
            }
            if self.lib_category[i] as usize >= LibCategory::ALL.len() {
                return Err(StoreError::malformed(format!(
                    "flow {i}: lib_category discriminant {} out of range",
                    self.lib_category[i]
                )));
            }
            if self.flags[i] & !(FLAG_ANT | FLAG_COMMON) != 0 {
                return Err(StoreError::malformed(format!(
                    "flow {i}: unknown flag bits {:#04x}",
                    self.flags[i]
                )));
            }
            if !self.family.is_empty() {
                if self.family[i] > 1 {
                    return Err(StoreError::malformed(format!(
                        "flow {i}: family discriminant {} out of range",
                        self.family[i]
                    )));
                }
                if self.shape[i] > 2 {
                    return Err(StoreError::malformed(format!(
                        "flow {i}: shape discriminant {} out of range",
                        self.shape[i]
                    )));
                }
            }
        }
        if !self.family.is_empty() {
            let mut cursor = Cursor::new(self.stream);
            for _ in 0..self.n_flows {
                cursor.varint("F14 stream")?;
            }
            if cursor.remaining() != 0 {
                return Err(StoreError::malformed(format!(
                    "F14 stream: {} trailing bytes after {} varints",
                    cursor.remaining(),
                    self.n_flows
                )));
            }
        }
        for (what, stream) in [
            ("F6 sent_bytes", self.sent_bytes),
            ("F7 recv_bytes", self.recv_bytes),
            ("F8 sent_payload", self.sent_payload),
            ("F9 recv_payload", self.recv_payload),
            ("F10 start_micros", self.start_micros),
        ] {
            let mut cursor = Cursor::new(stream);
            for _ in 0..self.n_flows {
                cursor.varint(what)?;
            }
            if cursor.remaining() != 0 {
                return Err(StoreError::malformed(format!(
                    "{what}: {} trailing bytes after {} varints",
                    cursor.remaining(),
                    self.n_flows
                )));
            }
        }
        for i in 0..self.n_analyses {
            // The hook side only ever emits balanced ledgers, so an
            // unbalanced stored row is corruption, caught at parse.
            let observed = self.sampling.get(i * 6);
            let accounted = self
                .sampling
                .get(i * 6 + 1)
                .wrapping_add(self.sampling.get(i * 6 + 2))
                .wrapping_add(self.sampling.get(i * 6 + 3));
            if observed != accounted {
                return Err(StoreError::malformed(format!(
                    "analysis {i}: A13 sampling ledger unbalanced \
                     ({observed} observed, {accounted} accounted)"
                )));
            }
        }
        for (i, &kind) in self.report_kind.iter().enumerate() {
            if kind > REPORT_KIND_LIVE_SNAPSHOT {
                return Err(StoreError::malformed(format!(
                    "report {i}: unknown kind {kind}"
                )));
            }
        }
        for id in self.report_payload.iter() {
            self.pool.get(id, "R1 payload")?;
        }
        Ok(())
    }

    /// Record counts as (analyses, flows, reports).
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.n_analyses, self.n_flows, self.report_kind.len())
    }

    /// Iterates the analysis rows in append order.
    pub fn analyses(&self) -> impl Iterator<Item = AnalysisRow<'a>> + '_ {
        (0..self.n_analyses).map(|i| AnalysisRow {
            app_index: self.app_index.get(i),
            package: self.pool.get(self.package.get(i), "A1").expect("validated"),
            app_category: self
                .pool
                .get(self.app_category.get(i), "A2")
                .expect("validated"),
            flow_count: self.flow_count.get(i),
            unattributed_flows: self.unattributed.get(i),
            reports_without_flow: self.reports_without_flow.get(i),
            dns_packets: self.dns_packets.get(i),
            report_packets: self.report_packets.get(i),
            coverage: [
                self.coverage.get(i * 3),
                self.coverage.get(i * 3 + 1),
                self.coverage.get(i * 3 + 2),
            ],
            integrity: {
                let at = |j: usize| self.integrity.get(i * 6 + j) as usize;
                RunIntegrity {
                    frames_truncated: at(0),
                    frames_malformed: at(1),
                    frames_bad_checksum: at(2),
                    reports_truncated: at(3),
                    reports_malformed: at(4),
                    synthesized_flows: at(5),
                }
            },
            detect: std::array::from_fn(|j| self.detect_scalars.get(i * 5 + j)),
            sampling: {
                let at = |j: usize| self.sampling.get(i * 6 + j);
                SamplingLedger {
                    reports_observed: at(0),
                    reports_emitted: at(1),
                    sampled_out: at(2),
                    budget_suppressed: at(3),
                    windows_exhausted: at(4),
                    ledgers_lost: at(5),
                }
            },
        })
    }

    /// Iterates the flow rows in append order (grouped by analysis),
    /// each with the index of its analysis row in this segment.
    pub fn flows(&self) -> FlowIter<'a, '_> {
        FlowIter {
            view: self,
            i: 0,
            analysis_row: 0,
            flows_left_in_row: if self.n_analyses == 0 {
                0
            } else {
                self.flow_count.get(0)
            },
            sent_bytes: Cursor::new(self.sent_bytes),
            recv_bytes: Cursor::new(self.recv_bytes),
            sent_payload: Cursor::new(self.sent_payload),
            recv_payload: Cursor::new(self.recv_payload),
            start_micros: Cursor::new(self.start_micros),
            prev_start: 0,
            stream: Cursor::new(self.stream),
        }
    }

    /// Iterates the report records in append order.
    pub fn reports(&self) -> impl Iterator<Item = ReportRow<'a>> + '_ {
        self.report_kind
            .iter()
            .enumerate()
            .map(|(i, &kind)| ReportRow {
                kind,
                payload: self
                    .pool
                    .get(self.report_payload.get(i), "R1")
                    .expect("validated"),
            })
    }

    /// Reconstructs the owned `(app_index, AppAnalysis)` records —
    /// the exact structs the pipeline produced, for the byte-identity
    /// render path.
    pub fn materialize(&self) -> Vec<(u32, AppAnalysis)> {
        // Each row's tiers start where the previous row's ended.
        let mut tier_start = 0;
        let mut out: Vec<(u32, AppAnalysis)> = self
            .analyses()
            .enumerate()
            .map(|(i, row)| {
                let tiers = tier_start..tier_start + self.tier_counts.get(i) as usize;
                tier_start = tiers.end;
                let per_library_tier: BTreeMap<String, DetectTier> = tiers
                    .map(|e| {
                        let library = self.pool.get(self.tier_ids.get(e), "A12");
                        (
                            library.expect("validated").to_owned(),
                            DetectTier::ALL[self.tier_bytes[e] as usize],
                        )
                    })
                    .collect();
                (
                    row.app_index,
                    AppAnalysis {
                        package: row.package.to_owned(),
                        app_category: row.app_category.to_owned(),
                        flows: Vec::with_capacity(row.flow_count as usize),
                        unattributed_flows: row.unattributed_flows as usize,
                        reports_without_flow: row.reports_without_flow as usize,
                        coverage: CoverageReport {
                            total_methods: row.coverage[0] as usize,
                            executed_methods: row.coverage[1] as usize,
                            external_methods: row.coverage[2] as usize,
                        },
                        dns_packets: row.dns_packets as usize,
                        report_packets: row.report_packets as usize,
                        integrity: row.integrity,
                        detect: DetectStats {
                            lookups: row.detect[0],
                            trie_hits: row.detect[1],
                            exact_fp_hits: row.detect[2],
                            structural_hits: row.detect[3],
                            misses: row.detect[4],
                            per_library_tier,
                        },
                        sampling: row.sampling,
                    },
                )
            })
            .collect();
        for (row, flow) in self.flows() {
            out[row].1.flows.push(flow.to_flow());
        }
        out
    }
}

/// Iterator over the flow rows, each with the index of its analysis row
/// within the segment; carries the varint-stream cursors.
pub struct FlowIter<'a, 'v> {
    view: &'v SegmentView<'a>,
    i: usize,
    analysis_row: usize,
    flows_left_in_row: u32,
    sent_bytes: Cursor<'a>,
    recv_bytes: Cursor<'a>,
    sent_payload: Cursor<'a>,
    recv_payload: Cursor<'a>,
    start_micros: Cursor<'a>,
    prev_start: u64,
    stream: Cursor<'a>,
}

impl<'a> Iterator for FlowIter<'a, '_> {
    type Item = (usize, FlowRow<'a>);

    fn next(&mut self) -> Option<(usize, FlowRow<'a>)> {
        if self.i >= self.view.n_flows {
            return None;
        }
        while self.flows_left_in_row == 0 {
            self.analysis_row += 1;
            self.flows_left_in_row = self.view.flow_count.get(self.analysis_row);
        }
        self.flows_left_in_row -= 1;
        let i = self.i;
        self.i += 1;
        let view = self.view;
        // Streams were fully validated at parse; re-decoding the same
        // bytes cannot fail.
        let delta = unzigzag(self.start_micros.varint("F10").expect("validated"));
        let start = self.prev_start.wrapping_add(delta as u64);
        self.prev_start = start;
        let row = FlowRow {
            domain: view
                .pool
                .get_opt(view.domain.get(i), "F0")
                .expect("validated"),
            domain_category: DomainCategory::ALL[view.domain_category[i] as usize],
            origin: view
                .pool
                .get_opt(view.origin.get(i), "F2")
                .expect("validated"),
            two_level: view
                .pool
                .get_opt(view.two_level.get(i), "F3")
                .expect("validated"),
            lib_category: LibCategory::ALL[view.lib_category[i] as usize],
            is_ant: view.flags[i] & FLAG_ANT != 0,
            is_common: view.flags[i] & FLAG_COMMON != 0,
            sent_bytes: self.sent_bytes.varint("F6").expect("validated"),
            recv_bytes: self.recv_bytes.varint("F7").expect("validated"),
            sent_payload: self.sent_payload.varint("F8").expect("validated"),
            recv_payload: self.recv_payload.varint("F9").expect("validated"),
            start_micros: start,
            http_user_agent: view
                .pool
                .get_opt(view.user_agent.get(i), "F11")
                .expect("validated"),
            family: match view.family.get(i) {
                Some(1) => IpFamily::V6,
                _ => IpFamily::V4,
            },
            shape: match view.shape.get(i) {
                Some(1) => FlowShape::TlsLike,
                Some(2) => FlowShape::ConnectProxy,
                _ => FlowShape::Plain,
            },
            stream: if view.family.is_empty() {
                None
            } else {
                let raw = self.stream.varint("F14").expect("validated");
                raw.checked_sub(1).map(|k| k as u32)
            },
        };
        Some((self.analysis_row, row))
    }
}

/// Reads one u32-length-prefixed block.
fn block<'a>(cursor: &mut Cursor<'a>, what: &str) -> StoreResult<&'a [u8]> {
    let len = cursor.u32(what)? as usize;
    cursor.take(len, what)
}

/// Reads a block whose length must equal `rows` bytes.
fn fixed_block<'a>(cursor: &mut Cursor<'a>, rows: usize, what: &str) -> StoreResult<&'a [u8]> {
    let bytes = block(cursor, what)?;
    if bytes.len() != rows {
        return Err(StoreError::malformed(format!(
            "{what}: {} bytes for {rows} rows",
            bytes.len()
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use libspector::{AnalyzedFlow, OriginKind};

    use super::*;

    fn sample_analysis(package: &str, flows: usize) -> AppAnalysis {
        let mut detect = DetectStats {
            lookups: flows as u64,
            trie_hits: flows as u64,
            ..DetectStats::default()
        };
        detect
            .per_library_tier
            .insert("com.ads.sdk".to_owned(), DetectTier::Trie);
        AppAnalysis {
            package: package.to_owned(),
            app_category: "Tools".to_owned(),
            flows: (0..flows)
                .map(|i| AnalyzedFlow {
                    domain: (i % 2 == 0).then(|| format!("cdn{i}.example.com")),
                    domain_category: DomainCategory::ALL[i % DomainCategory::ALL.len()],
                    origin: if i % 3 == 0 {
                        OriginKind::Builtin
                    } else {
                        OriginKind::Library {
                            origin_library: "com.ads.sdk.net".to_owned(),
                            two_level: "com.ads".to_owned(),
                        }
                    },
                    lib_category: LibCategory::ALL[i % LibCategory::ALL.len()],
                    is_ant: i % 3 == 1,
                    is_common: i % 4 == 0,
                    sent_bytes: 1_000 + i as u64 * 37,
                    recv_bytes: 50_000 + i as u64 * 911,
                    sent_payload: 900 + i as u64 * 31,
                    recv_payload: 49_000 + i as u64 * 907,
                    start_micros: 1_000_000 + i as u64 * 250_000,
                    http_user_agent: (i % 2 == 1).then(|| "okhttp/4.9".to_owned()),
                    family: Default::default(),
                    shape: Default::default(),
                    stream: None,
                })
                .collect(),
            unattributed_flows: 2,
            reports_without_flow: 1,
            coverage: CoverageReport {
                total_methods: 5_000,
                executed_methods: 1_234,
                external_methods: 400,
            },
            dns_packets: 12,
            report_packets: 34,
            integrity: RunIntegrity {
                frames_truncated: 1,
                synthesized_flows: 2,
                ..RunIntegrity::default()
            },
            detect,
            sampling: SamplingLedger {
                reports_observed: 40,
                reports_emitted: 34,
                sampled_out: 5,
                budget_suppressed: 1,
                windows_exhausted: 1,
                ledgers_lost: 0,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let mut builder = SegmentBuilder::default();
        let analyses = [
            sample_analysis("com.app.one", 5),
            sample_analysis("com.app.two", 0),
        ];
        builder.push_analysis(7, &analyses[0]);
        builder.push_analysis(3, &analyses[1]);
        builder.push_report(REPORT_KIND_CAMPAIGN_SEAL, "{\"seed\":1}");
        // The record earlier builds wrote on every live snapshot.
        builder.push_report(REPORT_KIND_LIVE_SNAPSHOT, "{\"events\":3}");
        let bytes = builder.seal(2, 9);
        assert!(builder.is_empty(), "seal resets the builder");

        let view = SegmentView::parse(&bytes).unwrap();
        assert_eq!((view.campaign, view.seq), (2, 9));
        assert_eq!(view.counts(), (2, 5, 2));
        let materialized = view.materialize();
        assert_eq!(materialized[0], (7, analyses[0].clone()));
        assert_eq!(materialized[1], (3, analyses[1].clone()));
        let reports: Vec<_> = view.reports().collect();
        assert_eq!(reports[0].kind, REPORT_KIND_CAMPAIGN_SEAL);
        assert_eq!(reports[0].payload, "{\"seed\":1}");
        assert_eq!(reports[1].kind, REPORT_KIND_LIVE_SNAPSHOT);
    }

    #[test]
    fn materialized_tiers_round_trip_per_row() {
        // Rows with no tiers, one tier and many, in an order where a
        // wrong running offset would shift a later row's tiers.
        let tiers = |n: usize| {
            let mut analysis = sample_analysis("com.app", 2);
            analysis.detect.per_library_tier = (0..n)
                .map(|j| {
                    (
                        format!("lib{j:02}.sdk"),
                        DetectTier::ALL[j % DetectTier::ALL.len()],
                    )
                })
                .collect();
            analysis
        };
        let mut builder = SegmentBuilder::default();
        let analyses: Vec<AppAnalysis> = [3, 0, 1, 12, 0, 0, 1, 5].map(tiers).into();
        for (i, analysis) in analyses.iter().enumerate() {
            builder.push_analysis(i as u32, analysis);
        }
        let bytes = builder.seal(1, 0);
        let view = SegmentView::parse(&bytes).unwrap();
        let materialized = view.materialize();
        assert_eq!(materialized.len(), analyses.len());
        for (i, (_, analysis)) in materialized.iter().enumerate() {
            assert_eq!(*analysis, analyses[i], "row {i}");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected_or_harmless() {
        let mut builder = SegmentBuilder::default();
        builder.push_analysis(0, &sample_analysis("com.app", 3));
        let bytes = builder.seal(1, 0);
        let baseline = SegmentView::parse(&bytes).unwrap().materialize();
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x41;
            match SegmentView::parse(&corrupt) {
                Err(_) => {}
                Ok(view) => {
                    // A flip that survives must not change content
                    // (e.g. padding) — decode equality proves it.
                    assert_eq!(
                        view.materialize(),
                        baseline,
                        "undetected change at byte {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_is_classified_truncated_or_mismatch() {
        let mut builder = SegmentBuilder::default();
        builder.push_analysis(0, &sample_analysis("com.app", 2));
        let bytes = builder.seal(1, 0);
        for keep in [0, 10, HEADER_LEN, bytes.len() - 1] {
            let err = SegmentView::parse(&bytes[..keep]).unwrap_err();
            assert!(
                matches!(
                    err.kind,
                    StoreErrorKind::Truncated | StoreErrorKind::BadMagic
                ),
                "keep={keep} gave {err}"
            );
        }
    }
}
