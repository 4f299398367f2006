//! The offline analysis pipeline (§III-C/E/F).
//!
//! Input: one [`RawRun`] (capture + trace) plus corpus [`Knowledge`].
//! Steps:
//!
//! 1. reassemble TCP stream epochs from the capture and recover the
//!    IP→domain map from its DNS responses;
//! 2. extract the Socket Supervisor's UDP reports (and thereby exclude
//!    instrumentation traffic from accounting — only TCP is summed, and
//!    reports travel over UDP);
//! 3. join every report with its stream epoch via the connection
//!    4-tuple, picking the epoch active at report time, so sequential
//!    port reuse is counted separately;
//! 4. attribute each flow to its origin-library (builtin filter +
//!    chronologically-first heuristic), reduce to 2-level libraries,
//!    and predict library categories via the LibRadar aggregate;
//! 5. categorize destination domains by tokenizing their vendor labels;
//! 6. compute method coverage.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use spector_hooks::supervisor::decode_reports_classified;
use spector_hooks::{CollectorStats, LedgerRecord, ReportErrorKind, SocketReport};
use spector_libradar::{DetectTier, LibCategory};
use spector_netsim::flows::{DnsMap, FlowTable};
use spector_netsim::shape::{FlowShape, IpFamily};
use spector_netsim::{CaptureIndex, FrameErrorCounts};
use spector_sampling::SamplingLedger;
use spector_telemetry::{Counter, Histogram, StageRecorder, Telemetry, SIZE_BOUNDS_BYTES};
use spector_vtcat::DomainCategory;

use crate::attribution::OriginKind;
use crate::coverage::{compute_coverage, CoverageReport};
use crate::experiment::RawRun;
use crate::join::{ClaimOutcome, ReportJoin};
use crate::knowledge::Knowledge;

/// One fully-analyzed TCP flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzedFlow {
    /// Destination domain, when a DNS response for the address was
    /// observed in the capture.
    pub domain: Option<String>,
    /// Generic category of the destination domain.
    pub domain_category: DomainCategory,
    /// Attribution result.
    pub origin: OriginKind,
    /// Predicted category of the origin-library.
    pub lib_category: LibCategory,
    /// Origin is on the AnT list.
    pub is_ant: bool,
    /// Origin is on the common-libraries list.
    pub is_common: bool,
    /// Wire bytes sent by the app (initiator → responder).
    pub sent_bytes: u64,
    /// Wire bytes received by the app.
    pub recv_bytes: u64,
    /// Payload-only bytes sent.
    pub sent_payload: u64,
    /// Payload-only bytes received.
    pub recv_payload: u64,
    /// Flow start, microseconds.
    pub start_micros: u64,
    /// `User-Agent` of the HTTP request head, when the flow carried
    /// parseable HTTP (what header-based classifiers inspect).
    #[serde(default)]
    pub http_user_agent: Option<String>,
    /// Address family of the flow's canonical 4-tuple (v4-mapped
    /// endpoints fold to [`IpFamily::V4`]).
    #[serde(default)]
    pub family: IpFamily,
    /// Visible wire shape classified from the flow's leading payload:
    /// plain, TLS-like (SNI hello), or CONNECT-proxied.
    #[serde(default)]
    pub shape: FlowShape,
    /// Stream ordinal within a reused (keep-alive) connection when
    /// this row is a per-stream split; `None` for whole-connection
    /// rows, which is every flow of a legacy single-stream run.
    #[serde(default)]
    pub stream: Option<u32>,
}

impl AnalyzedFlow {
    /// Total wire bytes.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes + self.recv_bytes
    }
}

/// Degraded-mode accounting for one analyzed run: how much of the
/// measurement substrate was lost, corrupted, or reconstructed from
/// partial evidence. The pipeline has always *tolerated* noisy input
/// (undecodable frames and payloads are skipped); these counters make
/// the tolerance measurable, so a headline number can carry an
/// integrity annotation instead of silently absorbing missing data.
///
/// All counters are zero for a clean capture, which is what every
/// fault-free run produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunIntegrity {
    /// Capture frames dropped as truncated (packet loss, snap length).
    pub frames_truncated: usize,
    /// Capture frames dropped as structurally malformed.
    pub frames_malformed: usize,
    /// Capture frames dropped on IPv4/TCP checksum mismatch.
    pub frames_bad_checksum: usize,
    /// Collector-port datagrams whose report payload was truncated.
    pub reports_truncated: usize,
    /// Collector-port datagrams whose report payload was malformed.
    pub reports_malformed: usize,
    /// Stream epochs reassembled without a SYN (capture started or
    /// died mid-connection): flows attributed from partial evidence.
    pub synthesized_flows: usize,
}

impl RunIntegrity {
    /// The one way a run's ledger is built, offline and on every live
    /// shard: the frame step's decode failures, the collector step's
    /// rejected reports, and the flow table's synthesized epochs.
    pub fn new(
        frames: &FrameErrorCounts,
        collector: &CollectorStats,
        synthesized_flows: usize,
    ) -> RunIntegrity {
        RunIntegrity {
            frames_truncated: frames.truncated,
            frames_malformed: frames.malformed,
            frames_bad_checksum: frames.bad_checksum,
            reports_truncated: collector.truncated,
            reports_malformed: collector.malformed,
            synthesized_flows,
        }
    }

    /// `true` when any measurement input was lost, corrupted, or
    /// reconstructed from partial evidence.
    pub fn is_degraded(&self) -> bool {
        *self != RunIntegrity::default()
    }

    /// Total capture frames that failed to decode.
    pub fn frames_lost(&self) -> usize {
        self.frames_truncated + self.frames_malformed + self.frames_bad_checksum
    }

    /// Total report payloads that failed to decode.
    pub fn reports_lost(&self) -> usize {
        self.reports_truncated + self.reports_malformed
    }

    /// Field-wise sum, for campaign-level aggregation.
    pub fn merge(&mut self, other: &RunIntegrity) {
        self.frames_truncated += other.frames_truncated;
        self.frames_malformed += other.frames_malformed;
        self.frames_bad_checksum += other.frames_bad_checksum;
        self.reports_truncated += other.reports_truncated;
        self.reports_malformed += other.reports_malformed;
        self.synthesized_flows += other.synthesized_flows;
    }
}

/// Which detection tier attributed each origin-library of a run, plus
/// the tier totals (§III-C cascade: trie prefix → exact fingerprint →
/// structural profile). One lookup is counted per attributed
/// library-origin flow; builtin flows never consult the cascade.
///
/// Invariant (asserted by the telemetry-integrity wall):
/// `lookups == trie_hits + exact_fp_hits + structural_hits + misses`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DetectStats {
    /// Library-origin verdict lookups performed by the join.
    pub lookups: u64,
    /// Lookups answered by the longest-prefix trie tier.
    pub trie_hits: u64,
    /// Lookups answered by the exact subtree-fingerprint tier.
    pub exact_fp_hits: u64,
    /// Lookups answered by the structural-profile tier.
    pub structural_hits: u64,
    /// Lookups no tier could attribute.
    pub misses: u64,
    /// Tier that attributed each distinct origin-library package.
    pub per_library_tier: BTreeMap<String, DetectTier>,
}

impl DetectStats {
    /// Records one verdict lookup resolved at `tier` for `origin`.
    pub fn record(&mut self, origin: &str, tier: DetectTier) {
        self.lookups += 1;
        match tier {
            DetectTier::Trie => self.trie_hits += 1,
            DetectTier::ExactFingerprint => self.exact_fp_hits += 1,
            DetectTier::Structural => self.structural_hits += 1,
            DetectTier::Miss => self.misses += 1,
        }
        self.per_library_tier
            .entry(origin.to_owned())
            .or_insert(tier);
    }

    /// Sum of the per-tier counters (must equal `lookups`).
    pub fn tier_sum(&self) -> u64 {
        self.trie_hits + self.exact_fp_hits + self.structural_hits + self.misses
    }

    /// Field-wise sum, for campaign-level aggregation; per-library
    /// tiers keep the first tier seen (tiers are deterministic per
    /// knowledge base, so collisions agree).
    pub fn merge(&mut self, other: &DetectStats) {
        self.lookups += other.lookups;
        self.trie_hits += other.trie_hits;
        self.exact_fp_hits += other.exact_fp_hits;
        self.structural_hits += other.structural_hits;
        self.misses += other.misses;
        for (origin, tier) in &other.per_library_tier {
            self.per_library_tier.entry(origin.clone()).or_insert(*tier);
        }
    }
}

/// Per-app analysis output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppAnalysis {
    /// App package name.
    pub package: String,
    /// Play-store category.
    pub app_category: String,
    /// One entry per attributed TCP stream epoch.
    pub flows: Vec<AnalyzedFlow>,
    /// TCP stream epochs with no matching supervisor report.
    pub unattributed_flows: usize,
    /// Supervisor reports whose 4-tuple joined no TCP stream epoch
    /// (e.g. the connection's packets were lost from the capture).
    #[serde(default)]
    pub reports_without_flow: usize,
    /// Method coverage.
    pub coverage: CoverageReport,
    /// DNS datagrams observed (excluded from accounting, like all UDP).
    pub dns_packets: usize,
    /// Supervisor report datagrams observed (instrumentation traffic).
    pub report_packets: usize,
    /// Degraded-mode accounting: what this run's capture lost.
    #[serde(default)]
    pub integrity: RunIntegrity,
    /// Detection-cascade accounting: which tier attributed each
    /// origin-library.
    #[serde(default)]
    pub detect: DetectStats,
    /// Sampled-tracing accounting: reports the hook observed, emitted,
    /// and suppressed (all-zero on an exact run, which emits no
    /// ledger).
    #[serde(default)]
    pub sampling: SamplingLedger,
}

/// Display label for platform-created sockets ([`OriginKind::Builtin`])
/// in per-library breakdowns — Figure 3's `*` bucket.
pub const BUILTIN_ORIGIN_LABEL: &str = "(builtin)";

/// Stable per-library accounting label of an attribution origin: the
/// origin-library package, or [`BUILTIN_ORIGIN_LABEL`]. Both the
/// offline reducers and the streaming engine key their per-library
/// counters by this label, which is what makes their breakdowns
/// directly comparable.
pub fn origin_label(origin: &OriginKind) -> &str {
    match origin {
        OriginKind::Library { origin_library, .. } => origin_library,
        OriginKind::Builtin => BUILTIN_ORIGIN_LABEL,
    }
}

impl AppAnalysis {
    /// Total wire bytes sent by the app across attributed flows.
    pub fn total_sent(&self) -> u64 {
        self.flows.iter().map(|f| f.sent_bytes).sum()
    }

    /// Total wire bytes received.
    pub fn total_recv(&self) -> u64 {
        self.flows.iter().map(|f| f.recv_bytes).sum()
    }

    /// Bytes attributed to AnT origins.
    pub fn ant_bytes(&self) -> u64 {
        self.flows
            .iter()
            .filter(|f| f.is_ant)
            .map(AnalyzedFlow::total_bytes)
            .sum()
    }
}

/// Pre-fetched telemetry handles for the offline pipeline: one
/// [`StageRecorder`] per stage of the analyze hot path (slash-paths
/// under `pipeline/`), the report↔flow join balance counters, and the
/// [`RunIntegrity`] mirror counters.
///
/// Built once per campaign ([`PipelineTelemetry::new`]) and shared by
/// every worker; all handles are atomics behind `Arc`s, so recording
/// is lock-free. The plain [`analyze_run`] entry point routes through
/// a process-wide *disabled* instance, which reduces every telemetry
/// touch point to a single branch.
///
/// Two invariants these counters carry (both property-tested):
///
/// * **join balance** — every decoded report takes exactly one branch,
///   so `spector_pipeline_reports_total` always equals
///   `flows_attributed + duplicate_reports + reports_without_flow`;
/// * **integrity agreement** — [`PipelineTelemetry::record_integrity`]
///   is called exactly once per accepted analysis, so the
///   `spector_integrity_*_total` counters equal the field-wise sum of
///   the [`RunIntegrity`] values over the campaign's analyses.
#[derive(Clone)]
pub struct PipelineTelemetry {
    /// `pipeline/capture_decode`: one-pass capture index build.
    pub capture_decode: StageRecorder,
    /// `pipeline/report_decode`: supervisor report datagram decode.
    pub report_decode: StageRecorder,
    /// `pipeline/flow_join`: the report↔epoch join (steps 3–6).
    pub flow_join: StageRecorder,
    /// `pipeline/flow_join/attribute`: frame translation, builtin
    /// filter, origin-library pick.
    pub attribute: StageRecorder,
    /// `pipeline/flow_join/library_verdict`: category prediction +
    /// AnT/common list membership for the picked origin.
    pub library_verdict: StageRecorder,
    /// `pipeline/flow_join/domain_categorize`: DNS domain recovery and
    /// vendor-label categorization.
    pub domain_categorize: StageRecorder,
    /// `pipeline/coverage`: executed ∩ dex method coverage.
    pub coverage: StageRecorder,
    /// `spector_pipeline_reports_total`: decoded supervisor reports
    /// entering the join.
    pub reports_total: Counter,
    /// `spector_pipeline_flows_attributed_total`: reports that joined a
    /// fresh stream epoch and produced an [`AnalyzedFlow`].
    pub flows_attributed: Counter,
    /// `spector_pipeline_duplicate_reports_total`: reports whose epoch
    /// was already matched (counted once, skipped thereafter).
    pub duplicate_reports: Counter,
    /// `spector_pipeline_reports_without_flow_total`: reports whose
    /// 4-tuple joined no epoch.
    pub reports_without_flow: Counter,
    /// `spector_pipeline_flows_unattributed_total`: stream epochs with
    /// no matching report.
    pub flows_unattributed: Counter,
    /// `spector_pipeline_flow_bytes`: wire bytes per attributed flow.
    pub flow_bytes: Histogram,
    /// `spector_detect_lookups_total`: library-origin verdict lookups
    /// entering the detection cascade.
    pub detect_lookups: Counter,
    /// `spector_detect_trie_hit_total`: lookups answered by the trie
    /// longest-prefix tier.
    pub detect_trie_hit: Counter,
    /// `spector_detect_exact_fp_hit_total`: lookups answered by the
    /// exact subtree-fingerprint tier.
    pub detect_exact_fp_hit: Counter,
    /// `spector_detect_structural_hit_total`: lookups answered by the
    /// structural-profile tier.
    pub detect_structural_hit: Counter,
    /// `spector_detect_miss_total`: lookups no tier attributed.
    pub detect_miss: Counter,
    integrity: [Counter; 6],
    sampling: [Counter; 6],
}

impl PipelineTelemetry {
    /// Fetches all pipeline handles from `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Self {
        let integrity_counter =
            |field: &str| telemetry.counter(&format!("spector_integrity_{field}_total"));
        let sampling_counter =
            |field: &str| telemetry.counter(&format!("spector_sampling_{field}_total"));
        PipelineTelemetry {
            capture_decode: telemetry.stage_recorder("pipeline/capture_decode"),
            report_decode: telemetry.stage_recorder("pipeline/report_decode"),
            flow_join: telemetry.stage_recorder("pipeline/flow_join"),
            attribute: telemetry.stage_recorder("pipeline/flow_join/attribute"),
            library_verdict: telemetry.stage_recorder("pipeline/flow_join/library_verdict"),
            domain_categorize: telemetry.stage_recorder("pipeline/flow_join/domain_categorize"),
            coverage: telemetry.stage_recorder("pipeline/coverage"),
            reports_total: telemetry.counter("spector_pipeline_reports_total"),
            flows_attributed: telemetry.counter("spector_pipeline_flows_attributed_total"),
            duplicate_reports: telemetry.counter("spector_pipeline_duplicate_reports_total"),
            reports_without_flow: telemetry.counter("spector_pipeline_reports_without_flow_total"),
            flows_unattributed: telemetry.counter("spector_pipeline_flows_unattributed_total"),
            flow_bytes: telemetry.histogram("spector_pipeline_flow_bytes", &SIZE_BOUNDS_BYTES),
            detect_lookups: telemetry.counter("spector_detect_lookups_total"),
            detect_trie_hit: telemetry.counter("spector_detect_trie_hit_total"),
            detect_exact_fp_hit: telemetry.counter("spector_detect_exact_fp_hit_total"),
            detect_structural_hit: telemetry.counter("spector_detect_structural_hit_total"),
            detect_miss: telemetry.counter("spector_detect_miss_total"),
            integrity: [
                integrity_counter("frames_truncated"),
                integrity_counter("frames_malformed"),
                integrity_counter("frames_bad_checksum"),
                integrity_counter("reports_truncated"),
                integrity_counter("reports_malformed"),
                integrity_counter("synthesized_flows"),
            ],
            sampling: [
                sampling_counter("reports_observed"),
                sampling_counter("reports_emitted"),
                sampling_counter("sampled_out"),
                sampling_counter("budget_suppressed"),
                sampling_counter("windows_exhausted"),
                sampling_counter("ledgers_lost"),
            ],
        }
    }

    /// The process-wide disabled instance [`analyze_run`] routes
    /// through: every handle is inert, so instrumentation costs one
    /// branch per touch point and performs no allocation per call.
    pub fn disabled_ref() -> &'static PipelineTelemetry {
        static DISABLED: OnceLock<PipelineTelemetry> = OnceLock::new();
        DISABLED.get_or_init(|| PipelineTelemetry::new(&Telemetry::disabled()))
    }

    /// Mirrors one cascade lookup into the `spector_detect_*` counters.
    pub fn record_detect(&self, tier: DetectTier) {
        self.detect_lookups.inc();
        match tier {
            DetectTier::Trie => self.detect_trie_hit.inc(),
            DetectTier::ExactFingerprint => self.detect_exact_fp_hit.inc(),
            DetectTier::Structural => self.detect_structural_hit.inc(),
            DetectTier::Miss => self.detect_miss.inc(),
        }
    }

    /// Mirrors one run's [`SamplingLedger`] into the
    /// `spector_sampling_*_total` counters. Called once per accepted
    /// analysis, so the counters inherit the ledger's balance
    /// invariant: `spector_sampling_reports_observed_total` equals
    /// emitted + sampled_out + budget_suppressed across the campaign.
    pub fn record_sampling(&self, ledger: &SamplingLedger) {
        let fields = [
            ledger.reports_observed,
            ledger.reports_emitted,
            ledger.sampled_out,
            ledger.budget_suppressed,
            ledger.windows_exhausted,
            ledger.ledgers_lost,
        ];
        for (counter, value) in self.sampling.iter().zip(fields) {
            counter.add(value);
        }
    }

    /// Mirrors one run's [`RunIntegrity`] into the
    /// `spector_integrity_*_total` counters.
    pub fn record_integrity(&self, integrity: &RunIntegrity) {
        let fields = [
            integrity.frames_truncated,
            integrity.frames_malformed,
            integrity.frames_bad_checksum,
            integrity.reports_truncated,
            integrity.reports_malformed,
            integrity.synthesized_flows,
        ];
        for (counter, value) in self.integrity.iter().zip(fields) {
            counter.add(value as u64);
        }
    }
}

/// Analyzes one raw run against corpus knowledge.
///
/// This is the hot path: the capture is decoded exactly once (flow
/// table, DNS map, and report datagrams come out of one
/// [`CaptureIndex`] pass), and origin-library verdicts go through the
/// knowledge base's memoizing caches. [`analyze_run_oracle`] is the
/// retired three-pass/uncached implementation, kept as a reference;
/// both produce identical [`AppAnalysis`] values.
///
/// Routes through [`analyze_run_instrumented`] with the disabled
/// telemetry instance — one branch per stage, no recording.
pub fn analyze_run(raw: &RawRun, knowledge: &Knowledge, collector_port: u16) -> AppAnalysis {
    analyze_run_instrumented(
        raw,
        knowledge,
        collector_port,
        PipelineTelemetry::disabled_ref(),
    )
}

/// [`analyze_run`] with per-stage spans and join-balance counters
/// recorded into `pt`. Produces byte-identical [`AppAnalysis`] values
/// to the plain entry point — telemetry observes the pipeline, it
/// never steers it.
pub fn analyze_run_instrumented(
    raw: &RawRun,
    knowledge: &Knowledge,
    collector_port: u16,
    pt: &PipelineTelemetry,
) -> AppAnalysis {
    let index = pt
        .capture_decode
        .time(|| CaptureIndex::build(&raw.capture, collector_port));
    let (reports, collector) = pt
        .report_decode
        .time(|| decode_reports_classified(index.report_payloads.iter().copied()));
    let integrity = RunIntegrity::new(
        &index.frame_errors,
        &collector,
        index.flows.synthesized_epochs(),
    );
    pt.record_integrity(&integrity);
    pt.record_sampling(&collector.sampling);
    join_reports(
        raw,
        knowledge,
        &index.flows,
        &index.dns,
        &reports,
        integrity,
        collector.sampling,
        pt,
        ReportJoin::new(),
    )
}

/// Reference implementation of [`analyze_run`]: three independent
/// capture walks and no memoization — linear longest-prefix matching
/// ([`spector_libradar::AggregatedLibraries::predict_category_oracle`])
/// and per-report list scans. Exists to pin the fast path's behavior
/// (equivalence is asserted by tests and measured by the benches); not
/// for production use.
pub fn analyze_run_oracle(raw: &RawRun, knowledge: &Knowledge, collector_port: u16) -> AppAnalysis {
    use spector_netsim::packet::{decode_frame_ref, FrameErrorKind, TransportRef};

    let flow_table = FlowTable::from_capture(&raw.capture);
    let dns_map = DnsMap::from_capture(&raw.capture);
    // Reference integrity pass: one more capture walk, classifying
    // every frame and collector-port payload the views skipped.
    let mut reports = Vec::new();
    let mut sampling = SamplingLedger::default();
    let mut integrity = RunIntegrity {
        synthesized_flows: flow_table.synthesized_epochs(),
        ..RunIntegrity::default()
    };
    for packet in &raw.capture {
        match decode_frame_ref(&packet.data) {
            Ok(frame) => {
                let TransportRef::Udp { payload } = frame.transport else {
                    continue;
                };
                if frame.pair.dst_port != collector_port {
                    continue;
                }
                if LedgerRecord::is_ledger_payload(payload) {
                    match LedgerRecord::decode(payload) {
                        Ok(record) => sampling.merge(&record.ledger),
                        Err(_) => sampling.ledgers_lost += 1,
                    }
                    continue;
                }
                match SocketReport::decode(payload) {
                    Ok(report) => reports.push(report),
                    Err(error) => match error.kind {
                        ReportErrorKind::Truncated => integrity.reports_truncated += 1,
                        ReportErrorKind::Malformed => integrity.reports_malformed += 1,
                    },
                }
            }
            Err(error) => match error.kind {
                FrameErrorKind::Truncated => integrity.frames_truncated += 1,
                FrameErrorKind::Malformed => integrity.frames_malformed += 1,
                FrameErrorKind::BadChecksum => integrity.frames_bad_checksum += 1,
            },
        }
    }
    join_reports(
        raw,
        knowledge,
        &flow_table,
        &dns_map,
        &reports,
        integrity,
        sampling,
        PipelineTelemetry::disabled_ref(),
        ReportJoin::oracle(),
    )
}

/// Drives a [`ReportJoin`] over one run's finished tables — steps 3–6
/// of the pipeline, shared by [`analyze_run`] and
/// [`analyze_run_oracle`]. Balance counters land in `pt` at the branch
/// they describe, so the join-balance invariant is structural, not
/// arithmetic.
#[allow(clippy::too_many_arguments)]
fn join_reports(
    raw: &RawRun,
    knowledge: &Knowledge,
    flow_table: &FlowTable,
    dns_map: &DnsMap,
    reports: &[SocketReport],
    integrity: RunIntegrity,
    sampling: SamplingLedger,
    pt: &PipelineTelemetry,
    mut join: ReportJoin,
) -> AppAnalysis {
    let mut reports_without_flow = 0usize;
    pt.reports_total.add(reports.len() as u64);
    let flows: Vec<AnalyzedFlow> = pt.flow_join.time(|| {
        for report in reports {
            match join.claim(report, flow_table, knowledge, pt) {
                ClaimOutcome::Claimed => pt.flows_attributed.inc(),
                ClaimOutcome::Duplicate => pt.duplicate_reports.inc(),
                ClaimOutcome::NoFlow => {
                    reports_without_flow += 1;
                    pt.reports_without_flow.inc();
                }
            }
        }
        join.rows(flow_table, dns_map, knowledge, pt)
            .inspect(|flow| pt.flow_bytes.record(flow.total_bytes()))
            .collect()
    });
    let unattributed_flows = join.unattributed(flow_table);
    pt.flows_unattributed.add(unattributed_flows as u64);
    let coverage = pt
        .coverage
        .time(|| compute_coverage(&raw.executed_methods, &raw.dex_signatures));

    AppAnalysis {
        package: raw.package.clone(),
        app_category: raw.app_category.clone(),
        flows,
        unattributed_flows,
        reports_without_flow,
        coverage,
        dns_packets: dns_map.dns_packet_count,
        report_packets: reports.len(),
        integrity,
        detect: join.into_detect(),
        sampling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{resolver_for, run_app, ExperimentConfig};
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig, OpStyle};

    fn run_and_analyze(seed: u64) -> (Corpus, AppAnalysis) {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 1,
            seed,
            appgen: AppGenConfig {
                method_scale: 0.01,
                ..Default::default()
            },
            ..Default::default()
        });
        let app = &corpus.apps[0];
        let resolver = resolver_for(&corpus.domains);
        let system: Vec<_> = app
            .system_ops
            .iter()
            .map(|s| (s.op.clone(), s.dispatcher))
            .collect();
        let mut config = ExperimentConfig::default();
        config.monkey.events = 120;
        let raw = run_app(&app.apk, &resolver, &system, &config).unwrap();
        let knowledge = Knowledge::from_corpus(&corpus);
        let analysis = analyze_run(&raw, &knowledge, config.supervisor.collector_port);
        (corpus, analysis)
    }

    #[test]
    fn every_tcp_flow_is_attributed() {
        let (_, analysis) = run_and_analyze(11);
        assert!(!analysis.flows.is_empty());
        assert_eq!(
            analysis.unattributed_flows, 0,
            "all sockets were hooked, so all flows must join with reports"
        );
        assert!(analysis.report_packets >= analysis.flows.len());
    }

    #[test]
    fn attribution_matches_ground_truth() {
        let (corpus, analysis) = run_and_analyze(12);
        let app = &corpus.apps[0];
        let mut checked = 0;
        for flow in &analysis.flows {
            let Some(domain) = &flow.domain else {
                continue;
            };
            // Domains are sampled collision-avoiding per app, but tiny
            // categories can still be shared by several ops — accept
            // any of their expected origins.
            let expected: Vec<&Option<String>> = app
                .truth
                .iter()
                .filter(|t| &t.domain == domain)
                .map(|t| &t.expected_origin)
                .collect();
            if expected.is_empty() {
                continue;
            }
            checked += 1;
            let got = match &flow.origin {
                OriginKind::Library { origin_library, .. } => Some(origin_library.clone()),
                OriginKind::Builtin => None,
            };
            assert!(
                expected.contains(&&got),
                "domain {domain}: got {got:?}, want one of {expected:?}"
            );
        }
        assert!(checked > 0, "no flows joined with ground truth");
    }

    #[test]
    fn volumes_match_ground_truth_for_startup_flows() {
        let (corpus, analysis) = run_and_analyze(13);
        let app = &corpus.apps[0];
        for truth in app.truth.iter().filter(|t| t.style == OpStyle::Startup) {
            let total_payload: u64 = analysis
                .flows
                .iter()
                .filter(|f| f.domain.as_deref() == Some(truth.domain.as_str()))
                .map(|f| f.recv_payload)
                .sum();
            assert!(
                total_payload >= truth.recv_bytes,
                "domain {} payload {} < truth {}",
                truth.domain,
                total_payload,
                truth.recv_bytes
            );
        }
    }

    #[test]
    fn domains_recovered_and_categorized() {
        let (corpus, analysis) = run_and_analyze(14);
        assert!(analysis.flows.iter().all(|f| f.domain.is_some()));
        // Most flows' recovered domain category should match the true
        // category of the destination (oracle noise allows some drift).
        let mut correct = 0;
        let mut total = 0;
        for flow in &analysis.flows {
            let domain = corpus
                .domains
                .by_name(flow.domain.as_ref().unwrap())
                .unwrap();
            total += 1;
            if flow.domain_category == domain.true_category {
                correct += 1;
            }
        }
        assert!(correct * 100 / total.max(1) >= 50, "{correct}/{total}");
    }

    #[test]
    fn ant_flags_match_truth() {
        let (corpus, analysis) = run_and_analyze(15);
        let app = &corpus.apps[0];
        for flow in &analysis.flows {
            let Some(domain) = &flow.domain else { continue };
            let truths: Vec<_> = app
                .truth
                .iter()
                .filter(|t| &t.domain == domain && t.style != OpStyle::System)
                .collect();
            if truths.is_empty() {
                continue;
            }
            // System traffic is never AnT; app traffic must agree with
            // at least one op behind this domain.
            assert!(
                truths.iter().any(|t| t.is_ant == flow.is_ant),
                "domain {domain}: is_ant {}",
                flow.is_ant
            );
        }
    }

    #[test]
    fn coverage_is_partial() {
        let (_, analysis) = run_and_analyze(16);
        let ratio = analysis.coverage.ratio();
        assert!(ratio > 0.0, "some methods must execute");
        assert!(ratio < 0.9, "filler must remain unexecuted (got {ratio})");
    }

    #[test]
    fn duplicate_reports_for_one_epoch_counted_once() {
        use spector_dex::sha256::Sha256;
        use spector_hooks::{SocketReport, SupervisorConfig};
        use spector_netsim::packet::SocketPair;
        use spector_netsim::{Clock, NetStack};
        use std::net::Ipv4Addr;

        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("dup.example.net", Ipv4Addr::new(198, 51, 100, 7));
        let sock = stack.tcp_connect(ip, 443);
        let pair = stack.socket_pair(sock).unwrap();
        let report = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"dup-apk"),
            pair,
            timestamp_micros: stack.clock().now_micros(),
            frames: vec![
                "java.net.Socket.connect".into(),
                "com.thirdparty.sdk.Net.call".into(),
            ],
        };
        // The same report datagram lands in the capture twice (e.g. a
        // collector-path retransmit). Both join the same stream epoch.
        stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        // A third report references a 4-tuple with no packets at all.
        let orphan = SocketReport {
            stream: None,
            pair: SocketPair::new(
                Ipv4Addr::new(10, 0, 2, 15),
                61_000,
                Ipv4Addr::new(203, 0, 113, 80),
                443,
            ),
            ..report.clone()
        };
        stack.udp_send(config.collector_ip, config.collector_port, &orphan.encode());
        stack.tcp_transfer(sock, 100, 2_000);
        stack.tcp_close(sock);

        let raw = RawRun {
            package: "com.app.dup".into(),
            app_category: "Tools".into(),
            apk_sha256: Sha256::digest(b"dup-apk"),
            capture: stack.into_capture(),
            executed_methods: Default::default(),
            dex_signatures: Default::default(),
            monkey: Default::default(),
            runtime_stats: Default::default(),
            duration_micros: 0,
        };
        let knowledge = Knowledge::new(Default::default(), Default::default(), Default::default());
        let analysis = analyze_run(&raw, &knowledge, config.collector_port);
        assert_eq!(analysis.report_packets, 3);
        assert_eq!(
            analysis.flows.len(),
            1,
            "the duplicated epoch must be counted exactly once"
        );
        assert_eq!(analysis.flows[0].recv_payload, 2_000);
        assert_eq!(analysis.unattributed_flows, 0);
        assert_eq!(analysis.reports_without_flow, 1);
        // The oracle path applies the identical join rules.
        let oracle = analyze_run_oracle(&raw, &knowledge, config.collector_port);
        assert_eq!(analysis, oracle);
    }

    #[test]
    fn udp_excluded_from_flow_accounting() {
        let (_, analysis) = run_and_analyze(17);
        // DNS and report datagrams were observed but no flow is UDP.
        assert!(analysis.dns_packets > 0);
        assert!(analysis.report_packets > 0);
        // All accounted bytes come from TCP epochs; received dominates.
        assert!(analysis.total_recv() > analysis.total_sent());
    }
}
