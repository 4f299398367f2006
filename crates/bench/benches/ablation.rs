//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * profiler mode — stock bounded buffer vs the paper's unique-method
//!   modification (measurement cost of each);
//! * builtin-frame filtering on vs off in attribution;
//! * online policy enforcement attached vs observation only.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use libspector::attribution::{attribute, BuiltinFilter};
use libspector::experiment::{resolver_for, run_app, run_app_with_hooks, ExperimentConfig};
use libspector::policy::{Action, Matcher, OnlineEnforcer, Policy};
use spector_bench::{corpus, knowledge};
use spector_runtime::TraceMode;

fn bench_profiler_modes(c: &mut Criterion) {
    let corpus = corpus();
    let resolver = resolver_for(&corpus.domains);
    let app = &corpus.apps[0];
    let mut group = c.benchmark_group("ablation/profiler");
    group.sample_size(10);
    for (name, mode) in [
        ("unique_methods", TraceMode::UniqueMethods),
        (
            "stock_buffer_8k",
            TraceMode::StockBuffer { capacity: 8_192 },
        ),
    ] {
        group.bench_function(name, |b| {
            let mut config = ExperimentConfig::default();
            config.monkey.events = 120;
            config.runtime.trace_mode = mode;
            b.iter(|| std::hint::black_box(run_app(&app.apk, &resolver, &[], &config).unwrap()));
        });
    }
    group.finish();
}

fn bench_filter_ablation(c: &mut Criterion) {
    let frames: Vec<String> = [
        "java.net.Socket.connect",
        "com.android.okhttp.internal.Platform.connectSocket",
        "com.android.okhttp.Connection.connect",
        "com.unity3d.ads.android.cache.b.a",
        "com.unity3d.ads.android.cache.b.doInBackground",
        "android.os.AsyncTask$2.call",
        "java.util.concurrent.FutureTask.run",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let enabled = BuiltinFilter::new();
    let disabled = BuiltinFilter::disabled();
    let mut group = c.benchmark_group("ablation/filter");
    group.bench_function("footnote2_enabled", |b| {
        b.iter(|| std::hint::black_box(attribute(&frames, &enabled)))
    });
    group.bench_function("disabled", |b| {
        b.iter(|| std::hint::black_box(attribute(&frames, &disabled)))
    });
    group.finish();
}

fn bench_enforcement(c: &mut Criterion) {
    let corpus = corpus();
    let knowledge = Arc::new(knowledge().clone());
    let resolver = resolver_for(&corpus.domains);
    let app = &corpus.apps[0];
    let domains: std::collections::HashMap<std::net::IpAddr, String> = corpus
        .domains
        .domains()
        .iter()
        .map(|d| (std::net::IpAddr::V4(d.ip), d.name.clone()))
        .collect();
    let mut group = c.benchmark_group("ablation/enforcement");
    group.sample_size(10);
    group.bench_function("observe_only", |b| {
        let mut config = ExperimentConfig::default();
        config.monkey.events = 120;
        b.iter(|| std::hint::black_box(run_app(&app.apk, &resolver, &[], &config).unwrap()));
    });
    group.bench_function("enforcing_block_ant", |b| {
        let mut config = ExperimentConfig::default();
        config.monkey.events = 120;
        b.iter(|| {
            let policy =
                Policy::allow_by_default().with_rule("no-ant", Matcher::AnyAnt, Action::Block);
            let enforcer = OnlineEnforcer::new(policy, Arc::clone(&knowledge), domains.clone());
            std::hint::black_box(
                run_app_with_hooks(&app.apk, &resolver, &[], &config, vec![Box::new(enforcer)])
                    .unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_profiler_modes,
    bench_filter_ablation,
    bench_enforcement
);
criterion_main!(benches);
