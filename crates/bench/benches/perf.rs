//! Performance benchmarks for the measurement system itself (§II-B3):
//!
//! * per-connection instrumentation overhead (the paper measured a
//!   0.5 ms / 9.75 % worst-case per-request delay on-device);
//! * the per-app offline analysis (the paper: < 5 s per app);
//! * the corpus knowledge build that precedes any traffic analysis
//!   (§III-D: library detection over every apk, domain classification);
//! * the hot substrate paths: frame encode/decode, SHA-256, dex
//!   disassembly, builtin-filter regex matching, report codec.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use libspector::attribution::{attribute, BuiltinFilter};
use libspector::experiment::{resolver_for, run_app, ExperimentConfig};
use libspector::pipeline::analyze_run;
use spector_bench::{corpus, knowledge, throughput_fixture, THROUGHPUT_APPS};
use spector_corpus::GeneratedApp;
use spector_dex::model::{Dispatcher, NetworkOp, SigIndex};
use spector_dex::sha256::Sha256;
use spector_dex::{parse_dex, write_dex, DexView, FeatureTable, PackageTree};
use spector_hooks::report::SocketReport;
use spector_hooks::supervisor::decode_reports_classified;
use spector_netsim::clock::Clock;
use spector_netsim::packet::{decode_frame_ref, encode_tcp, tcp_flags, SocketPair};
use spector_netsim::stack::NetStack;
use spector_netsim::CaptureIndex;
use spector_vtcat::Tokenizer;

fn bench_hook_overhead(c: &mut Criterion) {
    // Time to connect+report with the supervisor attached vs the bare
    // connect, isolating the instrumentation cost the paper quantifies.
    use spector_hooks::supervisor::{SocketSupervisor, SupervisorConfig};
    use spector_runtime::stack::{CallStack, Frame};
    use spector_runtime::{HookContext, RuntimeHook};

    let mut group = c.benchmark_group("perf/hook");
    group.bench_function("connect_bare", |b| {
        let mut net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        b.iter(|| {
            let sock = net.tcp_connect(Ipv4Addr::new(198, 18, 0, 1), 443);
            std::hint::black_box(sock)
        });
    });
    group.bench_function("connect_hooked", |b| {
        let mut net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let mut supervisor = SocketSupervisor::new(
            Sha256::digest(b"bench-apk"),
            Arc::new(SigIndex::default()),
            SupervisorConfig::default(),
        );
        let mut stack = CallStack::new();
        for i in 0..14 {
            stack.push(Frame::new(format!("com.bench.pkg.C{i}.m{i}")));
        }
        b.iter(|| {
            let sock = net.tcp_connect(Ipv4Addr::new(198, 18, 0, 1), 443);
            let mut ctx = HookContext {
                stack: &stack,
                net: &mut net,
            };
            supervisor.after_socket_connect(&mut ctx, sock);
            std::hint::black_box(sock)
        });
    });
    group.finish();
}

fn bench_per_app_pipeline(c: &mut Criterion) {
    let corpus = corpus();
    let knowledge = knowledge();
    let resolver = resolver_for(&corpus.domains);
    let app = &corpus.apps[0];
    let mut config = ExperimentConfig::default();
    config.monkey.events = 120;
    let system: Vec<_> = app
        .system_ops
        .iter()
        .map(|s| (s.op.clone(), s.dispatcher))
        .collect();
    let raw = run_app(&app.apk, &resolver, &system, &config).unwrap();

    let mut group = c.benchmark_group("perf/pipeline");
    group.sample_size(20);
    group.bench_function("experiment_one_app", |b| {
        b.iter(|| std::hint::black_box(run_app(&app.apk, &resolver, &system, &config).unwrap()));
    });
    // The paper's "<5 s offline analysis per app" path.
    group.bench_function("offline_analysis_one_app", |b| {
        b.iter(|| {
            std::hint::black_box(analyze_run(
                &raw,
                knowledge,
                config.supervisor.collector_port,
            ))
        });
    });
    group.finish();
}

/// The 50-app campaign slice of [`bench_experiment_slice`] and
/// [`bench_attribute`], at the CLI's method scale (0.02) and a tenth of
/// the paper's byte volume, with its experiment settings (300 monkey
/// events).
fn slice() -> (spector_corpus::Corpus, ExperimentConfig) {
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};

    let corpus = Corpus::generate(&CorpusConfig {
        apps: 50,
        seed: 7_781,
        appgen: AppGenConfig {
            method_scale: 0.02,
            volume_scale: 0.1,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut config = ExperimentConfig::default();
    config.monkey.events = 300;
    (corpus, config)
}

/// An app's system traffic as `run_app` takes it.
fn system_ops(app: &GeneratedApp) -> Vec<(NetworkOp, Dispatcher)> {
    app.system_ops
        .iter()
        .map(|s| (s.op.clone(), s.dispatcher))
        .collect()
}

/// One 50-app campaign slice through `run_app` on one thread: what a
/// campaign pays per app for dex parse, the Socket Supervisor's frame
/// index, the apk checksum and the emulated traffic.
/// `experiment_one_app` above runs one small app with 120 events, where
/// the per-app set-up is a sliver.
fn bench_experiment_slice(c: &mut Criterion) {
    let (corpus, config) = slice();
    let resolver = resolver_for(&corpus.domains);
    let apps: Vec<_> = corpus
        .apps
        .iter()
        .map(|app| (&app.apk, system_ops(app)))
        .collect();
    let mut group = c.benchmark_group("perf/experiment");
    group.sample_size(10);
    group.throughput(Throughput::Elements(apps.len() as u64));
    group.bench_function("slice", |b| {
        b.iter(|| {
            for (apk, system) in &apps {
                std::hint::black_box(run_app(apk, &resolver, system, &config).unwrap());
            }
        });
    });
    // The part of each run above that sets the app up: one dex parse,
    // the shared signature index and the apk digest.
    group.bench_function("app_image", |b| {
        b.iter(|| {
            for (apk, _) in &apps {
                let index = SigIndex::new(Arc::new(apk.dex().unwrap().to_dex()));
                std::hint::black_box((index, apk.sha256()));
            }
        });
    });
    group.finish();
}

/// `attribute` over every report of the 50-app slice, recorded once:
/// the footnote 2 filter over each translated stack trace and the pick
/// of its origin frame. `elem/s` is reports per second.
fn bench_attribute(c: &mut Criterion) {
    let (corpus, config) = slice();
    let resolver = resolver_for(&corpus.domains);
    let port = config.supervisor.collector_port;
    let mut reports = Vec::new();
    for app in &corpus.apps {
        let raw = run_app(&app.apk, &resolver, &system_ops(app), &config).unwrap();
        let index = CaptureIndex::build(&raw.capture, port);
        reports.extend(decode_reports_classified(index.report_payloads.iter().copied()).0);
    }
    let filter = BuiltinFilter::new();
    let mut group = c.benchmark_group("perf/pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reports.len() as u64));
    group.bench_function("attribute", |b| {
        b.iter(|| {
            for report in &reports {
                std::hint::black_box(attribute(&report.frames, &filter));
            }
        });
    });
    group.finish();
}

/// Offline attribution throughput at the paper's campaign scale: the
/// whole §IV store (400 raw runs) through `analyze_run` per iteration.
/// Criterion's `elem/s` readout is apps/sec for the `*_apps` benches
/// and flows/sec for the `*_flows` benches (same loop, flow-weighted);
/// numbers are recorded in `BENCH_pipeline.json` at the repo root.
fn bench_analysis_throughput(c: &mut Criterion) {
    let (knowledge, raws, port) = throughput_fixture();
    let port = *port;
    let total_flows: u64 = raws
        .iter()
        .map(|raw| analyze_run(raw, knowledge, port).flows.len() as u64)
        .sum();

    let mut group = c.benchmark_group("perf/throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(raws.len() as u64));
    group.bench_function("analyze_run_apps", |b| {
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run(raw, knowledge, port));
            }
        });
    });
    group.throughput(Throughput::Elements(total_flows));
    group.bench_function("analyze_run_flows", |b| {
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run(raw, knowledge, port));
            }
        });
    });
    group.finish();
}

/// `Knowledge::from_corpus` over a 400-app store at the CLI's method
/// scale (0.02): dex parse, both detection tiers over one package tree
/// per dex on every available CPU, and the Table I classification of
/// every domain — the step that runs before any traffic is analyzed.
/// `classify_domains` times that classification alone, over the
/// store's domain universe (`elem/s` is domains per second).
fn bench_knowledge_build(c: &mut Criterion) {
    use libspector::knowledge::Knowledge;
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};

    let corpus = Corpus::generate(&CorpusConfig {
        apps: THROUGHPUT_APPS,
        seed: 7_777,
        appgen: AppGenConfig {
            method_scale: 0.02,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut group = c.benchmark_group("perf/knowledge");
    group.sample_size(10);
    group.throughput(Throughput::Elements(corpus.apps.len() as u64));
    group.bench_function("from_corpus", |b| {
        b.iter(|| Knowledge::from_corpus(&corpus));
    });
    let domains = corpus.domains.domains();
    let tokenizer = Tokenizer::new();
    group.throughput(Throughput::Elements(domains.len() as u64));
    group.bench_function("classify_domains", |b| {
        b.iter(|| {
            tokenizer.classify_domains(
                domains
                    .iter()
                    .map(|d| (d.name.clone(), d.vendor_labels.as_slice())),
            )
        });
    });
    group.finish();
}

/// The steps of `Knowledge::from_corpus`'s per-app scan, each timed
/// alone over the 50-app slice of [`slice`] (`elem/s` is apps per
/// second): `dex_view` parses and validates every dex into its borrowed
/// view, `package_tree` builds each view's package tree, and `detect`
/// builds each app's feature table and runs both detection tiers over
/// it, as the scan does on its threads.
fn bench_knowledge_scan(c: &mut Criterion) {
    let (corpus, _) = slice();
    let views: Vec<DexView<'_>> = corpus
        .apps
        .iter()
        .map(|app| app.apk.dex().unwrap())
        .collect();
    let mut group = c.benchmark_group("perf/knowledge");
    group.sample_size(10);
    group.throughput(Throughput::Elements(views.len() as u64));
    group.bench_function("dex_view", |b| {
        b.iter(|| {
            for app in &corpus.apps {
                std::hint::black_box(app.apk.dex().unwrap());
            }
        });
    });
    group.bench_function("package_tree", |b| {
        b.iter(|| {
            for view in &views {
                std::hint::black_box(PackageTree::new(view));
            }
        });
    });
    group.bench_function("detect", |b| {
        b.iter(|| {
            for view in &views {
                let mut table = FeatureTable::new(view);
                std::hint::black_box((
                    corpus.library_db.detect_in(&mut table),
                    corpus.structural_index.detect_in(&mut table),
                ));
            }
        });
    });
    group.finish();
}

/// Corpus generation and obfuscation, each over one 50-app slice of
/// the frozen benchmark's workloads (`elem/s` is apps per second):
/// `generate` is `Corpus::generate` for the campaign slice (method scale
/// 0.02, a tenth of the paper's byte volume; the plans on the calling
/// thread, then the apps and the library indexes in parallel), and
/// `obfuscate` is `obfuscate_corpus` at Mangle over the live-ingest
/// slice (method scale 0.01, half the traffic modern), each iteration
/// on a fresh copy of the clean apps (the copy shares their apk bytes).
fn bench_corpus(c: &mut Criterion) {
    use spector_corpus::{obfuscate_corpus, AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};

    let campaign = CorpusConfig {
        apps: 50,
        seed: 7_781,
        appgen: AppGenConfig {
            method_scale: 0.02,
            volume_scale: 0.1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut live = Corpus::generate(&CorpusConfig {
        apps: 50,
        seed: 7_783,
        appgen: AppGenConfig {
            method_scale: 0.01,
            modern_fraction: 0.5,
            ..Default::default()
        },
        ..Default::default()
    });
    let clean = live.apps.clone();
    let mut group = c.benchmark_group("perf/corpus");
    group.sample_size(10);
    group.throughput(Throughput::Elements(campaign.apps as u64));
    group.bench_function("generate", |b| {
        b.iter(|| Corpus::generate(&campaign));
    });
    group.bench_function("obfuscate", |b| {
        b.iter(|| {
            live.apps.clone_from(&clean);
            obfuscate_corpus(&mut live, ObfuscationTier::Mangle, 7_783 ^ 0x0bf5)
        });
    });
    group.finish();
}

/// Cost of the fault-injection layer when it is armed but rolls no
/// faults — the price every chaos-enabled campaign pays on its happy
/// path. `perturb_*` isolates the wire-perturbation pass over the 400
/// recorded captures (a zero-fault plan must fast-return; `light` pays
/// per-packet dice); `campaign_*` compares a full `run_campaign` with
/// no chaos against one threading a zero-fault plan + retry policy
/// through every worker. Numbers land in `BENCH_pipeline.json`.
fn bench_chaos_overhead(c: &mut Criterion) {
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
    use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig, RetryPolicy};
    use spector_faults::{perturb_capture, FaultPlan, FaultProfile};

    let (_, raws, port) = throughput_fixture();
    let port = *port;
    let noop = FaultPlan::new(7_779, FaultProfile::none());
    let light = FaultPlan::new(7_779, FaultProfile::light());

    let mut group = c.benchmark_group("perf/chaos_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(raws.len() as u64));
    group.bench_function("perturb_zero_fault_plan", |b| {
        b.iter(|| {
            for (index, raw) in raws.iter().enumerate() {
                std::hint::black_box(perturb_capture(&noop, index, 0, raw.capture.clone(), port));
            }
        });
    });
    group.bench_function("perturb_light_plan", |b| {
        b.iter(|| {
            for (index, raw) in raws.iter().enumerate() {
                std::hint::black_box(perturb_capture(&light, index, 0, raw.capture.clone(), port));
            }
        });
    });

    let corpus = Corpus::generate(&CorpusConfig {
        apps: 8,
        seed: 7_780,
        appgen: AppGenConfig {
            method_scale: 0.004,
            ..Default::default()
        },
        ..Default::default()
    });
    let knowledge = libspector::knowledge::Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 40;
    dispatch.experiment.monkey.seed = 7_780;
    dispatch.workers = 1;
    group.throughput(Throughput::Elements(corpus.apps.len() as u64));
    group.bench_function("campaign_plain", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.bench_function("campaign_zero_fault_plan", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            chaos: Some(noop),
            retry: RetryPolicy::default(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.finish();
}

/// Cost of the telemetry layer — the zero-overhead-when-disabled
/// contract, measured. `analyze_*` isolates the offline pipeline:
/// plain `analyze_run` vs the instrumented path with a disabled handle
/// (must be within noise — every touch point is one `Option` branch)
/// vs a fully enabled registry (atomics + virtual-clock spans, the
/// `--metrics` price). `campaign_*` measures the same at campaign
/// granularity. Numbers land in `BENCH_pipeline.json`.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use libspector::pipeline::{analyze_run_instrumented, PipelineTelemetry};
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
    use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};
    use spector_telemetry::Telemetry;

    let (knowledge, raws, port) = throughput_fixture();
    let port = *port;

    let mut group = c.benchmark_group("perf/telemetry_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(raws.len() as u64));
    group.bench_function("analyze_plain", |b| {
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run(raw, knowledge, port));
            }
        });
    });
    group.bench_function("analyze_instrumented_disabled", |b| {
        let pt = PipelineTelemetry::disabled_ref();
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run_instrumented(raw, knowledge, port, pt));
            }
        });
    });
    group.bench_function("analyze_instrumented_enabled", |b| {
        let telemetry = Telemetry::enabled();
        let pt = PipelineTelemetry::new(&telemetry);
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run_instrumented(raw, knowledge, port, &pt));
            }
        });
    });

    let corpus = Corpus::generate(&CorpusConfig {
        apps: 8,
        seed: 7_780,
        appgen: AppGenConfig {
            method_scale: 0.004,
            ..Default::default()
        },
        ..Default::default()
    });
    let knowledge = libspector::knowledge::Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 40;
    dispatch.experiment.monkey.seed = 7_780;
    dispatch.workers = 1;
    group.throughput(Throughput::Elements(corpus.apps.len() as u64));
    group.bench_function("campaign_telemetry_disabled", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.bench_function("campaign_telemetry_enabled", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            telemetry: Telemetry::enabled(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let pair = SocketPair::new(
        Ipv4Addr::new(10, 0, 2, 15),
        40_000,
        Ipv4Addr::new(198, 18, 0, 1),
        443,
    );
    let payload = vec![0xa5u8; 1_400];
    let frame = encode_tcp(&pair, 1, 1, tcp_flags::PSH | tcp_flags::ACK, &payload);

    let mut group = c.benchmark_group("perf/substrate");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("tcp_frame_encode", |b| {
        b.iter(|| {
            std::hint::black_box(encode_tcp(
                &pair,
                1,
                1,
                tcp_flags::PSH | tcp_flags::ACK,
                &payload,
            ))
        });
    });
    group.bench_function("tcp_frame_decode", |b| {
        b.iter(|| std::hint::black_box(decode_frame_ref(&frame).unwrap()));
    });
    let blob = vec![7u8; 64 * 1024];
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("sha256_64k", |b| {
        b.iter(|| std::hint::black_box(Sha256::digest(&blob)));
    });
    group.finish();

    // Dex disassembly (the Method Monitor's startup step).
    let dex = corpus().apps[0].apk.dex().unwrap().to_dex();
    let bytes = write_dex(&dex);
    let mut group = c.benchmark_group("perf/dex");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("disassemble", |b| {
        b.iter(|| std::hint::black_box(parse_dex(&bytes).unwrap()));
    });
    group.finish();

    // Builtin-filter attribution over a Listing 1-shaped stack.
    let filter = BuiltinFilter::new();
    let frames: Vec<String> = [
        "java.net.Socket.connect",
        "com.android.okhttp.internal.Platform.connectSocket",
        "com.android.okhttp.Connection.connect",
        "com.android.okhttp.internal.http.HttpEngine.sendRequest",
        "com.unity3d.ads.android.cache.b.a",
        "com.unity3d.ads.android.cache.b.doInBackground",
        "android.os.AsyncTask$2.call",
        "java.util.concurrent.FutureTask.run",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let mut group = c.benchmark_group("perf/attribution");
    group.bench_function("attribute_stack", |b| {
        b.iter(|| std::hint::black_box(attribute(&frames, &filter)));
    });
    group.finish();

    // Report codec.
    let report = SocketReport {
        stream: None,
        apk_sha256: Sha256::digest(b"x"),
        pair,
        timestamp_micros: 123,
        frames,
    };
    let encoded = report.encode();
    let mut group = c.benchmark_group("perf/report");
    group.bench_function("encode", |b| {
        b.iter(|| std::hint::black_box(report.encode()))
    });
    group.bench_function("decode", |b| {
        b.iter(|| std::hint::black_box(SocketReport::decode(&encoded).unwrap()))
    });
    group.finish();

    let _ = HashMap::<u8, u8>::new(); // keep HashMap import meaningful under cfg tweaks
}

/// Cost of the sampled-tracing layer on the per-app experiment:
/// `exact` (rate 1.0, no budget) takes the wire-identical fast path
/// and must sit within noise of the pre-sampling pipeline numbers in
/// `BENCH_pipeline.json`; `sampled`/`budgeted` pay one SplitMix64 draw
/// (plus a window check) per socket. The bare inclusion decision is
/// timed on its own at the bottom.
fn bench_sampling_overhead(c: &mut Criterion) {
    use spector_sampling::{sample_draw, SamplingConfig, TraceBudget};

    let corpus = corpus();
    let resolver = resolver_for(&corpus.domains);
    let app = &corpus.apps[0];
    let system: Vec<_> = app
        .system_ops
        .iter()
        .map(|s| (s.op.clone(), s.dispatcher))
        .collect();
    let mut group = c.benchmark_group("perf/sampling_overhead");
    group.sample_size(20);
    let cases = [
        ("experiment_exact", 1.0, None),
        ("experiment_rate_0.5", 0.5, None),
        (
            "experiment_budget_64",
            1.0,
            Some(TraceBudget {
                max_reports: 64,
                window_micros: 50_000,
            }),
        ),
    ];
    for (label, rate, budget) in cases {
        let mut config = ExperimentConfig::default();
        config.monkey.events = 120;
        config.supervisor.sampling = SamplingConfig {
            rate,
            seed: 7,
            budget,
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                std::hint::black_box(run_app(&app.apk, &resolver, &system, &config).unwrap())
            });
        });
    }
    let digest = [0xa5u8; 32];
    let pair = [10u8, 0, 2, 15, 0x9c, 0x40, 198, 18, 0, 1, 1, 0xbb];
    group.bench_function("inclusion_draw", |b| {
        b.iter(|| std::hint::black_box(sample_draw(7, &digest, &pair)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hook_overhead,
    bench_per_app_pipeline,
    bench_experiment_slice,
    bench_attribute,
    bench_analysis_throughput,
    bench_knowledge_build,
    bench_knowledge_scan,
    bench_corpus,
    bench_chaos_overhead,
    bench_telemetry_overhead,
    bench_substrates,
    bench_sampling_overhead
);
criterion_main!(benches);
