//! The Socket Supervisor hook module.
//!
//! Attached to the runtime's post-`connect` hook point, the supervisor
//! performs the §II-B2 sequence for every socket the app creates:
//!
//! 1. capture the active stack trace (`getStackTrace` — dotted names,
//!    most recent first);
//! 2. translate each frame to its full method *type signature* using the
//!    parsed dex (framework frames, which the dex does not define, pass
//!    through untranslated — the offline filter removes them anyway);
//! 3. obtain the socket-pair parameters via the shared-library syscalls
//!    (`getsockname`/`getpeername` — here
//!    [`NetStack::socket_pair`](spector_netsim::NetStack::socket_pair));
//! 4. prepend the apk's SHA-256 and the connection parameters, and send
//!    the result as one UDP datagram to the collection server.
//!
//! Translation ambiguity: a dotted name does not carry parameter types,
//! so overloaded methods map to several candidate signatures; like the
//! original (which keys off dex parse order), the supervisor picks the
//! first candidate in definition order.

use std::net::Ipv4Addr;
use std::sync::Arc;

use spector_dex::model::SigIndex;
use spector_dex::sha256::Digest;
use spector_netsim::packet::{v6_octets, SocketPair};
use spector_netsim::SocketId;
use spector_runtime::{HookContext, RuntimeHook};
use spector_sampling::{should_sample, BudgetState, SamplingConfig, SamplingLedger};

use crate::ledger::LedgerRecord;
use crate::report::{ReportErrorKind, SocketReport};

/// Supervisor settings.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Collection server address.
    pub collector_ip: Ipv4Addr,
    /// Collection server UDP port.
    pub collector_port: u16,
    /// Sampled-tracing settings. The default is exact (rate 1.0, no
    /// budget), in which case the supervisor's wire behavior is
    /// byte-identical to a build without the sampling layer.
    pub sampling: SamplingConfig,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            collector_ip: Ipv4Addr::new(10, 0, 2, 2),
            collector_port: 47_000,
            sampling: SamplingConfig::default(),
        }
    }
}

/// The hook module. One instance is attached per app run.
#[derive(Debug)]
pub struct SocketSupervisor {
    apk_sha256: Digest,
    index: Arc<SigIndex>,
    config: SupervisorConfig,
    reports_sent: u64,
    ledger: SamplingLedger,
    budget: BudgetState,
}

/// Instrumentation latency added per hooked connection, in
/// microseconds. The paper measured a 0.5 ms (9.75 %) worst-case
/// per-request delay; this models a typical 300 µs.
const HOOK_LATENCY_MICROS: u64 = 300;

impl SocketSupervisor {
    /// Creates a supervisor for an app with the given apk checksum and
    /// dex signature index (shared with the app's runtime).
    pub fn new(apk_sha256: Digest, index: Arc<SigIndex>, config: SupervisorConfig) -> Self {
        SocketSupervisor {
            apk_sha256,
            index,
            config,
            reports_sent: 0,
            ledger: SamplingLedger::default(),
            budget: BudgetState::default(),
        }
    }

    /// Number of report datagrams sent so far.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// The run's sampling ledger so far (all-zero on the exact path).
    pub fn ledger(&self) -> SamplingLedger {
        self.ledger
    }

    /// The seeded inclusion decision for one socket: keyed by the
    /// sampling seed, the apk digest, and the canonical 4-tuple, so it
    /// is reproducible across workers, shards, and re-runs.
    fn sampled(&self, pair: &SocketPair) -> bool {
        use std::net::IpAddr;
        let canonical = pair.canonical();
        // Pure-v4 pairs keep the exact 12-byte key the pre-dual-stack
        // supervisor hashed, so legacy sampling decisions are inert;
        // any v6 endpoint widens both addresses to 16 bytes (36 total).
        let key: Vec<u8> = match (canonical.src_ip, canonical.dst_ip) {
            (IpAddr::V4(src), IpAddr::V4(dst)) => {
                let mut key = Vec::with_capacity(12);
                key.extend_from_slice(&src.octets());
                key.extend_from_slice(&canonical.src_port.to_be_bytes());
                key.extend_from_slice(&dst.octets());
                key.extend_from_slice(&canonical.dst_port.to_be_bytes());
                key
            }
            (src, dst) => {
                let mut key = Vec::with_capacity(36);
                key.extend_from_slice(&v6_octets(src));
                key.extend_from_slice(&canonical.src_port.to_be_bytes());
                key.extend_from_slice(&v6_octets(dst));
                key.extend_from_slice(&canonical.dst_port.to_be_bytes());
                key
            }
        };
        should_sample(
            self.config.sampling.seed,
            &self.apk_sha256.0,
            &key,
            self.config.sampling.rate,
        )
    }

    /// Translates one dotted stack-frame name: the full type signature
    /// when the app's dex defines the method, the dotted name otherwise.
    fn translate_frame(&self, dotted: &str) -> String {
        self.index
            .first_match(dotted)
            .map_or(dotted, |sig| sig.as_smali())
            .to_owned()
    }

    /// The shared report path behind both hook points: sampling gate,
    /// budget gate, stack translation, latency model, datagram send.
    /// `stream` is `None` for the connection-level report fired at
    /// connect time, `Some(ordinal)` for keep-alive per-stream reports.
    fn emit_report(&mut self, ctx: &mut HookContext<'_>, socket: SocketId, stream: Option<u32>) {
        // Shared-library syscall shim: getsockname + getpeername.
        let Some(pair) = ctx.net.socket_pair(socket) else {
            return;
        };
        self.ledger.reports_observed += 1;
        // Sampled tracing: suppressed reports are counted, never
        // silent, and the decision never touches the virtual clock —
        // at rate 1.0 with no budget this path is byte-identical to
        // the unsampled supervisor. The decision is per-socket (not
        // per-stream), so a connection's streams sample as one unit.
        if !self.sampled(&pair) {
            self.ledger.sampled_out += 1;
            return;
        }
        if let Some(budget) = self.config.sampling.budget {
            let now = ctx.net.clock().now_micros();
            if !self.budget.admit(&budget, now, &mut self.ledger) {
                return;
            }
        }
        // getStackTrace: most recent first.
        let frames: Vec<String> = ctx
            .stack
            .snapshot()
            .iter()
            .map(|dotted| self.translate_frame(dotted))
            .collect();
        let report = SocketReport {
            apk_sha256: self.apk_sha256,
            pair,
            timestamp_micros: ctx.net.clock().now_micros(),
            stream,
            frames,
        };
        // Model the measured instrumentation latency on the request path.
        ctx.net.clock().advance_micros(HOOK_LATENCY_MICROS);
        ctx.net.udp_send(
            self.config.collector_ip,
            self.config.collector_port,
            &report.encode(),
        );
        self.ledger.reports_emitted += 1;
        self.reports_sent += 1;
    }
}

impl RuntimeHook for SocketSupervisor {
    fn after_socket_connect(&mut self, ctx: &mut HookContext<'_>, socket: SocketId) {
        self.emit_report(ctx, socket, None);
    }

    fn after_stream_start(&mut self, ctx: &mut HookContext<'_>, socket: SocketId, ordinal: u32) {
        self.emit_report(ctx, socket, Some(ordinal));
    }

    fn on_run_finish(&mut self, ctx: &mut HookContext<'_>) {
        // Exact runs flush nothing: the capture must stay byte-
        // identical to a build without the sampling layer. Sampled
        // runs ship the ledger on the same out-of-band channel as the
        // reports, with no clock perturbation.
        if self.config.sampling.is_exact() {
            return;
        }
        let record = LedgerRecord {
            apk_sha256: self.apk_sha256,
            ledger: self.ledger,
        };
        ctx.net.udp_send(
            self.config.collector_ip,
            self.config.collector_port,
            &record.encode(),
        );
    }
}

/// Extracts all supervisor reports from a packet capture, in capture
/// order: [`CaptureIndex`](spector_netsim::CaptureIndex)'s collector
/// payloads through [`decode_reports_classified`]. Pipelines that
/// already hold the index decode its payloads directly.
pub fn extract_reports(
    capture: &[spector_netsim::pcap::CapturedPacket],
    collector_port: u16,
) -> Vec<SocketReport> {
    let index = spector_netsim::CaptureIndex::build(capture, collector_port);
    decode_reports_classified(index.report_payloads.iter().copied()).0
}

/// One collector-port payload, decoded: what the collection server can
/// receive on the supervisor's out-of-band channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Collected {
    /// A run's end-of-run sampling ledger.
    Ledger(SamplingLedger),
    /// A payload carrying the ledger magic that failed to decode.
    LostLedger,
    /// A supervisor report.
    Report(SocketReport),
    /// A payload that is not a valid report, classified.
    ReportError(ReportErrorKind),
}

impl Collected {
    /// The per-payload collector step: ledger datagrams are peeled off
    /// by their magic before report decode, so a ledger never counts as
    /// (or corrupts) a report.
    pub fn decode(payload: &[u8]) -> Collected {
        if LedgerRecord::is_ledger_payload(payload) {
            return match LedgerRecord::decode(payload) {
                Ok(record) => Collected::Ledger(record.ledger),
                Err(_) => Collected::LostLedger,
            };
        }
        match SocketReport::decode(payload) {
            Ok(report) => Collected::Report(report),
            Err(error) => Collected::ReportError(error.kind),
        }
    }
}

/// The collector lane's loss accounting: report payloads rejected by
/// classification, and the run's merged [`SamplingLedger`] — a ledger
/// that fails to decode is *counted* into `ledgers_lost`, so the loss
/// accounting never loses anything silently, not even its own records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Payloads rejected as truncated reports (datagram loss, capture
    /// snap).
    pub truncated: usize,
    /// Payloads rejected as structurally malformed reports.
    pub malformed: usize,
    /// Sampling ledgers received, merged.
    pub sampling: SamplingLedger,
}

impl CollectorStats {
    /// Tallies one collected payload and hands back the report it
    /// carried, if any.
    pub fn record(&mut self, collected: Collected) -> Option<SocketReport> {
        match collected {
            Collected::Ledger(ledger) => self.sampling.merge(&ledger),
            Collected::LostLedger => self.sampling.ledgers_lost += 1,
            Collected::Report(report) => return Some(report),
            Collected::ReportError(ReportErrorKind::Truncated) => self.truncated += 1,
            Collected::ReportError(ReportErrorKind::Malformed) => self.malformed += 1,
        }
        None
    }

    /// Total payloads that failed report decode.
    pub fn total(&self) -> usize {
        self.truncated + self.malformed
    }
}

/// Decodes collector-port payloads (the
/// [`spector_netsim::CaptureIndex::report_payloads`] view), in order:
/// [`Collected::decode`] folded through [`CollectorStats::record`]. The
/// stats make the skipped payloads measurable instead of silent.
pub fn decode_reports_classified<'a>(
    payloads: impl IntoIterator<Item = &'a [u8]>,
) -> (Vec<SocketReport>, CollectorStats) {
    let mut stats = CollectorStats::default();
    let reports = payloads
        .into_iter()
        .filter_map(|payload| stats.record(Collected::decode(payload)))
        .collect();
    (reports, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::model::{CodeItem, Connector, DexFile, Instruction, MethodDef, NetworkOp};
    use spector_dex::sha256::Sha256;
    use spector_dex::sig::MethodSig;
    use spector_netsim::clock::Clock;
    use spector_netsim::stack::NetStack;
    use spector_runtime::{Runtime, RuntimeConfig};

    fn network_dex() -> DexFile {
        DexFile {
            methods: vec![MethodDef {
                sig: MethodSig::new("com.vendor.sdk", "Fetcher", "pull", "()V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Network(NetworkOp {
                            domain: "api.vendor.example".into(),
                            port: 443,
                            send_bytes: 256,
                            recv_bytes: 8_192,
                            connector: Connector::AndroidOkHttp,
                            shape: spector_dex::model::WireShape::Plain,
                        }),
                        Instruction::Return,
                    ],
                },
            }],
            classes: vec![],
        }
    }

    fn run_app() -> (Vec<spector_netsim::pcap::CapturedPacket>, Digest) {
        let index = Arc::new(SigIndex::new(Arc::new(network_dex())));
        let digest = Sha256::digest(b"test-apk");
        let net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let mut rt = Runtime::new(Arc::clone(&index), net, RuntimeConfig::default());
        rt.add_hook(Box::new(SocketSupervisor::new(
            digest,
            index,
            SupervisorConfig::default(),
        )));
        rt.invoke_entry(&MethodSig::new("com.vendor.sdk", "Fetcher", "pull", "()V"));
        let (net, _) = rt.into_parts();
        (net.into_capture(), digest)
    }

    #[test]
    fn report_emitted_per_socket_with_translated_frames() {
        let (capture, digest) = run_app();
        let reports = extract_reports(&capture, SupervisorConfig::default().collector_port);
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.apk_sha256, digest);
        assert_eq!(report.pair.dst_port, 443);
        // Most recent frame is the connect syscall (builtin, untranslated).
        assert_eq!(report.frames[0], "java.net.Socket.connect");
        // The app frame is translated to its full type signature.
        assert!(report
            .frames
            .iter()
            .any(|f| f == "Lcom/vendor/sdk/Fetcher;->pull()V"));
    }

    #[test]
    fn report_pair_matches_a_tcp_flow_in_capture() {
        let (capture, _) = run_app();
        let port = SupervisorConfig::default().collector_port;
        let reports = extract_reports(&capture, port);
        let flows = spector_netsim::CaptureIndex::build(&capture, port).flows;
        let flow = flows
            .lookup(&reports[0].pair, reports[0].timestamp_micros)
            .expect("report must join with a flow");
        assert_eq!(flow.recv_payload_bytes, 8_192);
        assert_eq!(flow.sent_payload_bytes, 256);
    }

    #[test]
    fn extract_ignores_non_report_udp() {
        let mut net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        net.udp_send(Ipv4Addr::new(10, 0, 2, 2), 47_000, b"not a report");
        net.udp_send(Ipv4Addr::new(10, 0, 2, 2), 9_999, b"SRPTgarbage");
        let reports = extract_reports(net.capture(), 47_000);
        assert!(reports.is_empty());
    }

    #[test]
    fn decode_reports_matches_extract_reports() {
        let (mut capture, _) = run_app();
        // Add noise: a non-report datagram on the collector port and an
        // undecodable frame, both of which each path must skip.
        let mut net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        net.udp_send(
            Ipv4Addr::new(10, 0, 2, 2),
            SupervisorConfig::default().collector_port,
            b"not a report",
        );
        capture.extend(net.into_capture());
        capture.push(spector_netsim::pcap::CapturedPacket {
            timestamp_micros: 7,
            data: vec![0xff, 0x00],
        });

        let port = SupervisorConfig::default().collector_port;
        // Reference scan: decode every frame, keep the collector-port
        // payloads that decode as reports.
        let via_scan: Vec<SocketReport> = capture
            .iter()
            .filter_map(|packet| {
                let frame = spector_netsim::packet::decode_frame_ref(&packet.data).ok()?;
                match frame.transport {
                    spector_netsim::packet::TransportRef::Udp { payload }
                        if frame.pair.dst_port == port =>
                    {
                        SocketReport::decode(payload).ok()
                    }
                    _ => None,
                }
            })
            .collect();
        let index = spector_netsim::CaptureIndex::build(&capture, port);
        let (via_index, stats) = decode_reports_classified(index.report_payloads.iter().copied());
        assert_eq!(via_scan, via_index);
        assert_eq!(via_scan, extract_reports(&capture, port));
        assert_eq!(via_scan.len(), 1);
        assert_eq!(stats.total(), 1, "the noise datagram is counted");
    }

    #[test]
    fn overload_translation_picks_first_definition() {
        let dex = DexFile {
            methods: vec![
                MethodDef {
                    sig: MethodSig::new("com.a", "C", "m", "(I)V"),
                    code: CodeItem::default(),
                },
                MethodDef {
                    sig: MethodSig::new("com.a", "C", "m", "(J)V"),
                    code: CodeItem::default(),
                },
            ],
            classes: vec![],
        };
        let sup = SocketSupervisor::new(
            Sha256::digest(b"x"),
            Arc::new(SigIndex::build(&dex)),
            SupervisorConfig::default(),
        );
        assert_eq!(sup.translate_frame("com.a.C.m"), "Lcom/a/C;->m(I)V");
        assert_eq!(sup.translate_frame("unknown.F.g"), "unknown.F.g");
    }

    /// Drives the supervisor directly over `sockets` distinct flows,
    /// firing the end-of-run hook point at the end, and returns the
    /// supervisor plus the capture.
    fn drive(
        config: SupervisorConfig,
        sockets: usize,
    ) -> (SocketSupervisor, Vec<spector_netsim::pcap::CapturedPacket>) {
        use spector_runtime::stack::Frame;
        let dex = network_dex();
        let mut sup = SocketSupervisor::new(
            Sha256::digest(b"test-apk"),
            Arc::new(SigIndex::build(&dex)),
            config,
        );
        let mut net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let stack = spector_runtime::CallStack::with_base([
            Frame::new("android.os.Handler.dispatchMessage"),
            Frame::new("com.vendor.sdk.Fetcher.pull"),
            Frame::new("java.net.Socket.connect"),
        ]);
        for i in 0..sockets {
            let ip = net.resolve(
                &format!("s{i}.example.net"),
                Ipv4Addr::new(198, 51, 100, (i % 250 + 1) as u8),
            );
            let sock = net.tcp_connect(ip, 443);
            let mut ctx = HookContext {
                stack: &stack,
                net: &mut net,
            };
            sup.after_socket_connect(&mut ctx, sock);
            net.tcp_transfer(sock, 100, 1_000);
            net.tcp_close(sock);
        }
        let mut ctx = HookContext {
            stack: &stack,
            net: &mut net,
        };
        sup.on_run_finish(&mut ctx);
        (sup, net.into_capture())
    }

    #[test]
    fn sampled_run_counts_all_loss_and_ships_the_ledger() {
        let config = SupervisorConfig {
            sampling: spector_sampling::SamplingConfig {
                rate: 0.5,
                seed: 7,
                budget: None,
            },
            ..Default::default()
        };
        let (sup, capture) = drive(config.clone(), 40);
        let ledger = sup.ledger();
        assert_eq!(ledger.reports_observed, 40);
        assert!(ledger.sampled_out > 0, "rate 0.5 over 40 sockets");
        assert!(ledger.reports_emitted > 0);
        assert!(ledger.is_balanced());
        // The capture holds exactly `emitted` reports plus one ledger
        // datagram that round-trips the supervisor's counts.
        let reports = extract_reports(&capture, config.collector_port);
        assert_eq!(reports.len() as u64, ledger.reports_emitted);
        let shipped: Vec<crate::LedgerRecord> = capture
            .iter()
            .filter_map(|p| {
                let frame = spector_netsim::packet::decode_frame_ref(&p.data).ok()?;
                match frame.transport {
                    spector_netsim::packet::TransportRef::Udp { payload }
                        if crate::LedgerRecord::is_ledger_payload(payload) =>
                    {
                        crate::LedgerRecord::decode(payload).ok()
                    }
                    _ => None,
                }
            })
            .collect();
        assert_eq!(shipped.len(), 1);
        assert_eq!(shipped[0].ledger, ledger);
    }

    #[test]
    fn rate_one_without_budget_is_byte_identical_to_unsampled() {
        let exact = SupervisorConfig {
            sampling: spector_sampling::SamplingConfig {
                rate: 1.0,
                seed: 999, // seed must be irrelevant on the exact path
                budget: None,
            },
            ..Default::default()
        };
        let (sup, sampled_capture) = drive(exact, 12);
        let (_, plain_capture) = drive(SupervisorConfig::default(), 12);
        assert_eq!(sampled_capture, plain_capture);
        assert_eq!(sup.ledger().reports_emitted, 12);
        assert_eq!(sup.ledger().suppressed(), 0);
    }

    #[test]
    fn budget_exhaustion_degrades_to_counted_loss() {
        let config = SupervisorConfig {
            sampling: spector_sampling::SamplingConfig {
                rate: 1.0,
                seed: 0,
                budget: Some(spector_sampling::TraceBudget {
                    max_reports: 3,
                    window_micros: 0,
                }),
            },
            ..Default::default()
        };
        let (sup, capture) = drive(config.clone(), 10);
        let ledger = sup.ledger();
        assert_eq!(ledger.reports_observed, 10);
        assert_eq!(ledger.reports_emitted, 3);
        assert_eq!(ledger.budget_suppressed, 7);
        assert_eq!(ledger.windows_exhausted, 1);
        assert!(ledger.is_balanced());
        assert_eq!(
            extract_reports(&capture, config.collector_port).len(),
            3,
            "only the admitted reports reach the wire"
        );
    }

    #[test]
    fn hook_latency_advances_clock() {
        let (capture, _) = run_app();
        // DNS (2) + handshake (3) then the report datagram; its
        // timestamp reflects the added latency relative to the SYN.
        let reports = extract_reports(&capture, SupervisorConfig::default().collector_port);
        assert!(reports[0].timestamp_micros >= 300);
    }
}
