//! # Libspector (reproduction)
//!
//! Context-aware, large-scale network traffic analysis of (simulated)
//! Android applications — a from-scratch Rust reproduction of the DSN
//! 2020 paper *"LIBSPECTOR: Context-Aware Large-Scale Network Traffic
//! Analysis of Android Applications"*.
//!
//! The library drives one app at a time through an instrumented
//! emulator session and then runs the offline pipeline that makes the
//! paper's measurements possible:
//!
//! 1. **Experiment** ([`experiment`]) — install the apk into a fresh
//!    runtime, attach the Socket Supervisor hook module, exercise the
//!    app with the monkey, and record the packet capture, supervisor
//!    reports, and the unique-method trace.
//! 2. **Attribution** ([`attribution`]) — translate each socket's stack
//!    trace, filter built-in frames, pick the chronologically-first
//!    non-builtin frame, and derive the *origin-library* and its
//!    *2-level* reduction.
//! 3. **Pipeline** ([`pipeline`]) — join supervisor reports with TCP
//!    stream epochs by connection 4-tuple ([`join`], the one join the
//!    streaming engine shares), recover destination domains from
//!    captured DNS, categorize libraries (LibRadar aggregate + majority
//!    vote) and domains (Table I tokenizer), and compute per-app totals.
//! 4. **Coverage** ([`coverage`]) — executed ∩ dex methods over dex
//!    methods.
//! 5. **Cost** ([`cost`]) — the §IV-D monetary and energy models.
//!
//! # Examples
//!
//! ```
//! use libspector::experiment::{run_app, ExperimentConfig};
//! use libspector::knowledge::Knowledge;
//! use libspector::pipeline::analyze_run;
//! use spector_corpus::{Corpus, CorpusConfig};
//!
//! // Generate a one-app corpus and run it end to end.
//! let corpus = Corpus::generate(&CorpusConfig { apps: 1, seed: 1, ..Default::default() });
//! let app = &corpus.apps[0];
//! let mut config = ExperimentConfig::default();
//! config.monkey.events = 50;
//! let resolver = libspector::experiment::resolver_for(&corpus.domains);
//! let system: Vec<_> = app.system_ops.iter().map(|s| (s.op.clone(), s.dispatcher)).collect();
//! let raw = run_app(&app.apk, &resolver, &system, &config).unwrap();
//! let knowledge = Knowledge::from_corpus(&corpus);
//! let analysis = analyze_run(&raw, &knowledge, config.supervisor.collector_port);
//! assert!(analysis.coverage.total_methods > 0);
//! ```

pub mod attribution;
pub mod baseline;
pub mod cost;
pub mod coverage;
pub mod experiment;
pub mod join;
pub mod knowledge;
pub mod pipeline;
pub mod policy;

pub use attribution::{Attribution, OriginKind};
pub use coverage::CoverageReport;
pub use experiment::{run_app, run_corpus_app, ExperimentConfig, ExperimentError, RawRun};
pub use join::{ClaimOutcome, ReportJoin};
pub use knowledge::Knowledge;
pub use pipeline::{
    analyze_run, analyze_run_instrumented, AnalyzedFlow, AppAnalysis, FlowRow, PipelineTelemetry,
    RunIntegrity, BUILTIN_ORIGIN_LABEL,
};
pub use spector_netsim::shape::{FlowShape, IpFamily};
