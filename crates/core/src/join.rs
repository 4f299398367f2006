//! The report↔flow join (§III-C), shared by the offline pipeline and
//! the streaming engine.
//!
//! [`ReportJoin`] owns the two rules that turn Socket Supervisor reports
//! plus a flow table into attributed flows:
//!
//! * the **claim rule** ([`ReportJoin::claim`]), once per report: the
//!   stream epoch of the report's 4-tuple active at hook time is claimed
//!   by the first report per `(epoch, stream slot)`; the claimant's
//!   stack trace is attributed and its origin-library's tiered verdict
//!   resolved (and counted in [`DetectStats`]);
//! * the **row rule** ([`ReportJoin::rows`]), once per claim: the
//!   claim's byte volumes, destination domain and category, address
//!   family, wire shape and User-Agent are read off the flow table and
//!   DNS map as one [`AnalyzedFlow`].
//!
//! The offline pipeline drives both rules over a finished
//! [`CaptureIndex`](spector_netsim::CaptureIndex). The live engine
//! claims against its growing table as reports arrive and emits rows at
//! snapshot time; at end of stream its table *is* the finished one, so
//! both paths produce the same rows by construction.

use std::collections::HashSet;

use spector_hooks::SocketReport;
use spector_libradar::LibCategory;
use spector_netsim::http::HttpRequest;
use spector_netsim::shape::{classify_shape, resolve_flow_domain, IpFamily};
use spector_netsim::{DnsMap, FlowTable};
use spector_vtcat::DomainCategory;

use crate::attribution::{attribute, OriginKind};
use crate::knowledge::{Knowledge, LibraryVerdict};
use crate::pipeline::{AnalyzedFlow, DetectStats, PipelineTelemetry};

/// What the claim rule did with one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The report claimed a fresh `(epoch, stream slot)`.
    Claimed,
    /// An earlier report already claimed the slot (a duplicated
    /// datagram); the report is consumed without a row.
    Duplicate,
    /// The report's 4-tuple has no stream epoch in the table.
    NoFlow,
}

/// One claimed `(epoch, stream slot)` with its attribution verdict,
/// resolved at claim time (the stack trace is not kept).
#[derive(Debug, Clone)]
struct Claim {
    /// Index into the flow table's epoch array.
    epoch: usize,
    /// The report's raw stream ordinal (`None` for connect-time
    /// reports); volumes are resolved by the row rule.
    stream: Option<u32>,
    origin: OriginKind,
    verdict: LibraryVerdict,
}

/// One run's report↔flow join state: the claimed slots, their
/// verdicts, and the detection-cascade accounting. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ReportJoin {
    /// Resolve verdicts with the uncached reference cascade.
    oracle: bool,
    claimed: HashSet<(usize, u32)>,
    claims: Vec<Claim>,
    detect: DetectStats,
}

impl ReportJoin {
    /// A join resolving verdicts through the knowledge base's memoizing
    /// cascade.
    pub fn new() -> Self {
        ReportJoin::default()
    }

    /// A join resolving verdicts through
    /// [`Knowledge::library_verdict_tiered_oracle`] — the reference
    /// path of [`analyze_run_oracle`](crate::pipeline::analyze_run_oracle).
    pub fn oracle() -> Self {
        ReportJoin {
            oracle: true,
            ..ReportJoin::default()
        }
    }

    /// The claim rule. Joins `report` with the epoch of its 4-tuple
    /// active at hook time; the first report per `(epoch, stream slot)`
    /// claims it — the connect-time report (stream `None`) covers slot
    /// 0, explicit per-stream reports their own ordinal — and is
    /// attributed on the spot. Stage spans and detect counters land in
    /// `pt`; the join-balance counters are the caller's, since only it
    /// knows whether a [`ClaimOutcome::NoFlow`] is final.
    pub fn claim(
        &mut self,
        report: &SocketReport,
        flows: &FlowTable,
        knowledge: &Knowledge,
        pt: &PipelineTelemetry,
    ) -> ClaimOutcome {
        let Some(epoch) = flows.lookup_epoch(&report.pair, report.timestamp_micros) else {
            return ClaimOutcome::NoFlow;
        };
        if !self.claimed.insert((epoch, report.stream.unwrap_or(0))) {
            return ClaimOutcome::Duplicate;
        }
        let attribution = pt
            .attribute
            .time(|| attribute(&report.frames, &knowledge.builtin));
        let verdict = match &attribution.origin {
            OriginKind::Library { origin_library, .. } => {
                let (verdict, tier) = pt.library_verdict.time(|| {
                    if self.oracle {
                        knowledge.library_verdict_tiered_oracle(origin_library)
                    } else {
                        knowledge.library_verdict_tiered(origin_library)
                    }
                });
                self.detect.record(origin_library, tier);
                pt.record_detect(tier);
                verdict
            }
            OriginKind::Builtin => (LibCategory::Unknown, false, false),
        };
        self.claims.push(Claim {
            epoch,
            stream: report.stream,
            origin: attribution.origin,
            verdict,
        });
        ClaimOutcome::Claimed
    }

    /// The row rule, applied to every claim in claim order against the
    /// tables as they stand now: a growing table yields partial
    /// volumes and possibly unresolved domains, a finished one the
    /// offline rows.
    pub fn rows<'a>(
        &'a self,
        flows: &'a FlowTable,
        dns: &'a DnsMap,
        knowledge: &'a Knowledge,
        pt: &'a PipelineTelemetry,
    ) -> impl Iterator<Item = AnalyzedFlow> + 'a {
        self.claims.iter().map(move |claim| {
            let flow = &flows.flows()[claim.epoch];
            // Volume resolution: a legacy report (stream `None`) on a
            // single-stream epoch claims the whole epoch — the
            // pre-pooling behavior, byte for byte. On a multi-stream
            // epoch the connect report covers stream 0 and explicit
            // stream reports take their own ordinal's split, so the
            // per-stream rows sum exactly to the connection totals.
            let stream = match (claim.stream, flow.stream_count() > 1) {
                (None, false) => None,
                (None, true) => Some(0),
                (Some(k), _) => Some(k),
            };
            let (sent_bytes, recv_bytes, sent_payload, recv_payload) = flow.stream_volumes(stream);
            let (domain, domain_category) = pt.domain_categorize.time(|| {
                let domain = resolve_flow_domain(&flow.first_payload, &flow.pair, dns);
                let category = domain
                    .map(|d| knowledge.domain_category(d))
                    .unwrap_or(DomainCategory::Unknown);
                (domain.map(str::to_owned), category)
            });
            let (lib_category, is_ant, is_common) = claim.verdict;
            AnalyzedFlow {
                domain,
                domain_category,
                origin: claim.origin.clone(),
                lib_category,
                is_ant,
                is_common,
                sent_bytes,
                recv_bytes,
                sent_payload,
                recv_payload,
                start_micros: flow.start_micros,
                http_user_agent: HttpRequest::parse(&flow.first_payload)
                    .map(|request| request.user_agent),
                family: IpFamily::of(&flow.pair),
                shape: classify_shape(&flow.first_payload),
                stream,
            }
        })
    }

    /// Stream epochs of `flows` no report has claimed (an epoch counts
    /// as attributed once any of its stream slots is claimed).
    pub fn unattributed(&self, flows: &FlowTable) -> usize {
        let claimed: HashSet<usize> = self.claims.iter().map(|claim| claim.epoch).collect();
        flows.len().saturating_sub(claimed.len())
    }

    /// The detection-cascade accounting of every claim so far.
    pub fn into_detect(self) -> DetectStats {
        self.detect
    }
}
