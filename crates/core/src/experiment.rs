//! The per-app experiment driver (§II-B3).
//!
//! One experiment = one fresh emulator + one app: install the apk,
//! attach the Socket Supervisor, run the app's process-level init, let
//! the platform generate its own background traffic, exercise the UI
//! with the monkey (1,000 events @ 500 ms by default), and hand back
//! everything the offline pipeline consumes — the packet capture (with
//! supervisor reports and DNS exchanges embedded in it) and the unique-
//! method trace over the dex's methods.
//!
//! The apk's dex is parsed once per run, into one shared [`SigIndex`]:
//! the runtime, the supervisor and the trace all read that dex.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use spector_dex::apk::{Apk, ApkError};
use spector_dex::model::{Dispatcher, NetworkOp, SigIndex};
use spector_dex::sha256::Digest;
use spector_hooks::supervisor::{SocketSupervisor, SupervisorConfig};
use spector_monkey::monkey::{Monkey, MonkeyConfig, MonkeyReport};
use spector_monkey::ui::UiModel;
use spector_netsim::clock::Clock;
use spector_netsim::pcap::CapturedPacket;
use spector_netsim::stack::NetStack;
use spector_runtime::{MethodTrace, Runtime, RuntimeConfig, RuntimeStats};

/// Experiment settings. Defaults mirror the paper's setup.
#[derive(Debug, Clone, Default)]
pub struct ExperimentConfig {
    /// Monkey settings (1,000 events, 500 ms throttle).
    pub monkey: MonkeyConfig,
    /// Runtime bounds and trace mode.
    pub runtime: RuntimeConfig,
    /// Socket Supervisor settings (collector endpoint, hook latency).
    pub supervisor: SupervisorConfig,
}

/// Everything recorded during one app run.
#[derive(Debug, Clone)]
pub struct RawRun {
    /// App package name.
    pub package: String,
    /// Play-store category from the manifest.
    pub app_category: String,
    /// SHA-256 of the apk.
    pub apk_sha256: Digest,
    /// The emulator's full packet capture.
    pub capture: Vec<CapturedPacket>,
    /// Unique methods recorded by the Method Monitor, over the apk's
    /// dex.
    pub executed_methods: MethodTrace,
    /// Monkey run report.
    pub monkey: MonkeyReport,
    /// Interpreter counters.
    pub runtime_stats: RuntimeStats,
    /// Virtual duration of the experiment, microseconds.
    pub duration_micros: u64,
}

/// Errors surfaced while setting up a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The apk could not be read.
    Apk(ApkError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Apk(e) => write!(f, "experiment setup: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ApkError> for ExperimentError {
    fn from(e: ApkError) -> Self {
        ExperimentError::Apk(e)
    }
}

/// Builds the domain→address resolver map from a corpus universe.
pub fn resolver_for(universe: &spector_corpus::DomainUniverse) -> HashMap<String, Ipv4Addr> {
    universe
        .domains()
        .iter()
        .map(|d| (d.name.clone(), d.ip))
        .collect()
}

/// Runs app `index` of `corpus` the way a campaign runs it: in a fresh
/// emulator with the corpus's system traffic for that app, and with the
/// monkey seed derived from `base`'s and the app's index — independent
/// of scheduling and of retries, so any one app's run replays alone.
///
/// # Errors
///
/// Same as [`run_app`].
pub fn run_corpus_app(
    corpus: &spector_corpus::Corpus,
    resolver: &HashMap<String, Ipv4Addr>,
    base: &ExperimentConfig,
    index: usize,
) -> Result<RawRun, ExperimentError> {
    let app = &corpus.apps[index];
    let mut config = base.clone();
    config.monkey.seed ^= (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let system_ops: Vec<_> = app
        .system_ops
        .iter()
        .map(|s| (s.op.clone(), s.dispatcher))
        .collect();
    run_app(&app.apk, resolver, &system_ops, &config)
}

/// Runs one app end-to-end in a fresh emulator.
///
/// `resolver` supplies authoritative addresses for the domains the app
/// may contact; `system_ops` is the platform-initiated traffic replayed
/// alongside the app (no app code on those stacks).
///
/// # Errors
///
/// Returns [`ExperimentError::Apk`] when the apk's manifest or dex is
/// malformed.
pub fn run_app(
    apk: &Apk,
    resolver: &HashMap<String, Ipv4Addr>,
    system_ops: &[(NetworkOp, Dispatcher)],
    config: &ExperimentConfig,
) -> Result<RawRun, ExperimentError> {
    run_app_with_hooks(apk, resolver, system_ops, config, Vec::new())
}

/// [`run_app`] with additional hook modules attached after the Socket
/// Supervisor — e.g. an online [`crate::policy::OnlineEnforcer`].
///
/// # Errors
///
/// Same as [`run_app`].
pub fn run_app_with_hooks(
    apk: &Apk,
    resolver: &HashMap<String, Ipv4Addr>,
    system_ops: &[(NetworkOp, Dispatcher)],
    config: &ExperimentConfig,
    extra_hooks: Vec<Box<dyn spector_runtime::RuntimeHook>>,
) -> Result<RawRun, ExperimentError> {
    let manifest = apk.manifest()?;
    let index = Arc::new(SigIndex::new(Arc::new(apk.dex()?.to_dex())));
    let digest = apk.sha256();

    // Fresh emulator: clock at zero, stock Android-emulator addressing.
    let clock = Clock::new();
    let net = NetStack::new(clock.clone(), Ipv4Addr::new(10, 0, 2, 15));
    let mut runtime = Runtime::new(Arc::clone(&index), net, config.runtime.clone());
    // Register only the domains this run can actually name: the dex's
    // network operands plus the system ops.
    for (op, _) in system_ops {
        if let Some(ip) = resolver.get(&op.domain) {
            runtime.register_domain(&op.domain, *ip);
        }
    }
    for (domain, ip) in collect_app_domains(&runtime, resolver) {
        runtime.register_domain(&domain, ip);
    }
    runtime.add_hook(Box::new(SocketSupervisor::new(
        digest,
        index,
        config.supervisor.clone(),
    )));
    for hook in extra_hooks {
        runtime.add_hook(hook);
    }

    // 1. Process start: Application.onCreate (SDK init, bulk fetches).
    for sig in &manifest.application_on_create {
        runtime.invoke_entry(sig);
    }
    // 2. Platform background traffic.
    for (op, dispatcher) in system_ops {
        runtime.perform_system_network(op, *dispatcher);
    }
    // 3. Monkey exercises the UI.
    let ui = UiModel::from_manifest(&manifest);
    let mut monkey = Monkey::new(config.monkey.clone());
    let monkey_report = monkey.run(&mut runtime, &ui);

    // 4. End of run: hooks flush out-of-band state (the supervisor's
    // sampling ledger; a no-op on the exact path).
    runtime.finish_hooks();

    let runtime_stats = runtime.stats();
    let duration_micros = runtime.net().clock().now_micros();
    let executed_methods = runtime.method_trace();
    let (net, _) = runtime.into_parts();

    Ok(RawRun {
        package: manifest.package,
        app_category: manifest.category,
        apk_sha256: digest,
        capture: net.into_capture(),
        executed_methods,
        monkey: monkey_report,
        runtime_stats,
        duration_micros,
    })
}

/// Domains referenced by the already-loaded runtime's dex that resolve
/// in the global map (helper to keep `run_app` readable).
fn collect_app_domains(
    runtime: &Runtime,
    resolver: &HashMap<String, Ipv4Addr>,
) -> Vec<(String, Ipv4Addr)> {
    let mut out = Vec::new();
    for method in &runtime.dex().methods {
        for op in method.code.network_ops() {
            if let Some(ip) = resolver.get(&op.domain) {
                out.push((op.domain.clone(), *ip));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};

    fn quick_config() -> ExperimentConfig {
        let mut config = ExperimentConfig::default();
        config.monkey.events = 60;
        config
    }

    fn one_app_corpus(seed: u64) -> Corpus {
        Corpus::generate(&CorpusConfig {
            apps: 1,
            seed,
            appgen: AppGenConfig {
                method_scale: 0.01,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn run_produces_capture_trace_and_coverage_inputs() {
        let corpus = one_app_corpus(5);
        let app = &corpus.apps[0];
        let resolver = resolver_for(&corpus.domains);
        let system: Vec<_> = app
            .system_ops
            .iter()
            .map(|s| (s.op.clone(), s.dispatcher))
            .collect();
        let raw = run_app(&app.apk, &resolver, &system, &quick_config()).unwrap();
        assert_eq!(raw.package, app.package);
        assert_eq!(raw.apk_sha256, app.apk.sha256());
        assert!(!raw.capture.is_empty(), "capture must contain packets");
        assert!(!raw.executed_methods.is_empty());
        assert_eq!(
            raw.executed_methods.method_count(),
            app.apk.dex().unwrap().len()
        );
        assert!(raw.executed_methods.method_count() >= raw.executed_methods.len() / 2);
        assert_eq!(raw.monkey.events_issued, 60);
        assert!(raw.duration_micros >= 30_000_000); // ≥ events × throttle
    }

    #[test]
    fn deterministic_runs() {
        let corpus = one_app_corpus(6);
        let app = &corpus.apps[0];
        let resolver = resolver_for(&corpus.domains);
        let run = || run_app(&app.apk, &resolver, &[], &quick_config()).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.capture.len(), b.capture.len());
        assert_eq!(a.executed_methods, b.executed_methods);
        for (x, y) in a.capture.iter().zip(&b.capture) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn system_ops_generate_traffic_without_app_code() {
        let corpus = one_app_corpus(7);
        let app = &corpus.apps[0];
        let resolver = resolver_for(&corpus.domains);
        let mut config = quick_config();
        config.monkey.events = 0;
        let without = run_app(&app.apk, &resolver, &[], &config).unwrap();
        let system: Vec<_> = app
            .system_ops
            .iter()
            .map(|s| (s.op.clone(), s.dispatcher))
            .collect();
        let with = run_app(&app.apk, &resolver, &system, &config).unwrap();
        if !system.is_empty() {
            assert!(with.capture.len() > without.capture.len());
        }
    }

    #[test]
    fn malformed_apk_is_rejected() {
        let apk = Apk::from_bytes(&{
            let manifest = spector_dex::Manifest {
                package: "x".into(),
                version_code: 1,
                category: "TOOLS".into(),
                dex_timestamp: 1,
                vt_scan_date: None,
                application_on_create: vec![],
                activities: vec![],
            };
            let apk = Apk::build(&manifest, &spector_dex::DexFile::new(), vec![]);
            apk.to_bytes()
        })
        .unwrap();
        // Corrupt the dex entry by rebuilding an apk with garbage dex.
        let entries = vec![
            apk.entries()[0].clone(),
            spector_dex::ApkEntry {
                name: "classes.dex".into(),
                data: bytes::Bytes::from_static(b"garbage"),
            },
        ];
        let broken = rebuild(entries);
        let err = run_app(&broken, &HashMap::new(), &[], &quick_config()).unwrap_err();
        assert!(matches!(err, ExperimentError::Apk(_)));
    }

    fn rebuild(entries: Vec<spector_dex::ApkEntry>) -> Apk {
        // Serialize a synthetic container around arbitrary entries.
        use bytes::{BufMut, BytesMut};
        let mut buf = BytesMut::new();
        buf.put_slice(spector_dex::apk::APK_MAGIC);
        buf.put_u32_le(entries.len() as u32);
        for e in &entries {
            buf.put_u32_le(e.name.len() as u32);
            buf.put_slice(e.name.as_bytes());
            buf.put_u32_le(e.data.len() as u32);
            buf.put_slice(&e.data);
        }
        Apk::from_bytes(&buf).unwrap()
    }
}
