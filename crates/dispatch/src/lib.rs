//! Parallel experiment campaigns (§II-B3), hardened.
//!
//! Libspector's data-collection framework is "a job dispatcher and
//! multiple workers which run different and fresh copies of the same
//! modified Android image". Here a campaign fans one job per app out to
//! a pool of OS threads over crossbeam channels; every worker boots a
//! fresh simulated emulator, runs the experiment, performs the offline
//! per-app analysis immediately (so captures never accumulate in
//! memory), and ships the [`AppAnalysis`] back to the collector.
//!
//! Per-app monkey seeds are derived from the campaign seed and the app
//! index, so campaign results are independent of worker count and
//! scheduling order.
//!
//! Both channels are **bounded**, sized to the worker pool: a feeder
//! thread trickles job indices in as workers free up, and the
//! collector drains results concurrently, so memory stays O(workers)
//! regardless of corpus size. Failed runs are never silently skipped:
//! every app ends up in exactly one of
//! [`CampaignOutcome::analyses`] or [`CampaignOutcome::failures`].
//!
//! [`run_campaign`] is the hardened entry point, built for rigs that
//! fail:
//!
//! * **Chaos** — an optional seeded [`FaultPlan`] injects emulator boot
//!   failures, monkey hangs, worker panics, and wire faults
//!   (report loss/duplication/reordering/corruption, frame truncation,
//!   capture death) deterministically per `(app, attempt)`.
//! * **Isolation** — each attempt runs under `catch_unwind`, so one
//!   poisoned app records an [`AppFailure`] instead of sinking the
//!   campaign.
//! * **Retries** — boot failures and hangs (the *retryable* weather)
//!   are retried under a bounded [`RetryPolicy`] with exponential
//!   backoff and deterministic jitter; real errors are not.
//! * **Deadlines** — a per-app virtual-clock deadline turns a wedged
//!   run into a retryable failure instead of a stuck worker.
//! * **Resume** — [`run_campaign_stored`] appends every analysis to a
//!   `spector-store` campaign as it lands. A writer reopened over a
//!   killed campaign's sealed segments (`StoreWriter::open` with
//!   `resume`, under [`CampaignConfig::fingerprint`]) prefills those
//!   apps, so only the rest re-run, and the outcome is the one an
//!   uninterrupted run would have produced.
//!
//! [`run_corpus`] remains the simple facade: no chaos, no retries, no
//! store — byte-identical to the pre-hardening dispatcher.
//!
//! Given a `spector-live` [`LiveEngine`] — the online attribution
//! engine — each worker additionally streams its finished run's
//! capture into it, so a campaign can be watched while it runs.

pub mod resilience;

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crossbeam::channel;
use libspector::experiment::{resolver_for, run_app, ExperimentConfig};
use libspector::knowledge::Knowledge;
use libspector::pipeline::{analyze_run_instrumented, AppAnalysis, PipelineTelemetry};
use serde::{Deserialize, Serialize};
use spector_corpus::Corpus;
use spector_faults::{perturb_capture, FaultPlan, FaultTelemetry, PerturbStats};
use spector_live::LiveEngine;
use spector_sampling::SamplingConfig;
use spector_telemetry::{Counter, Histogram, StageRecorder, Telemetry, LATENCY_BOUNDS_MICROS};

pub use resilience::RetryPolicy;
/// One app whose experiment could not run: the record the store's
/// campaign seal preserves.
pub use spector_store::StoredFailure as AppFailure;

/// Campaign settings.
#[derive(Debug, Clone, Default)]
pub struct DispatchConfig {
    /// Worker threads (0 = one per available CPU).
    pub workers: usize,
    /// Per-app experiment settings; the monkey seed is re-derived per
    /// app from this base seed.
    pub experiment: ExperimentConfig,
}

/// Everything [`run_campaign`] needs beyond the corpus: pool settings
/// plus the resilience knobs. The default is exactly [`run_corpus`]'s
/// behavior — no chaos, single attempt, no deadline.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker pool and per-app experiment settings.
    pub dispatch: DispatchConfig,
    /// Seeded fault plan; `None` (or a no-op plan) injects nothing.
    pub chaos: Option<FaultPlan>,
    /// Retry budget for retryable failures (boot failure, hang).
    pub retry: RetryPolicy,
    /// Per-app virtual-clock deadline, microseconds: a run whose
    /// virtual duration exceeds this counts as a hang (retryable).
    pub deadline_micros: Option<u64>,
    /// Telemetry sink for campaign/pipeline/fault metrics. The default
    /// disabled handle reduces every instrumentation touch point to one
    /// branch; it never affects results, so it is deliberately not part
    /// of the campaign fingerprint.
    pub telemetry: Telemetry,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            dispatch: DispatchConfig::default(),
            chaos: None,
            retry: RetryPolicy::never(),
            deadline_micros: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What a resumable store campaign is keyed by: resuming a campaign
/// under different settings would stitch two different experiments
/// together, so resume refuses anything but an exact match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignFingerprint {
    /// Apps in the corpus.
    pub apps: usize,
    /// Base monkey seed (per-app seeds derive from it).
    pub seed: u64,
    /// Monkey events per app.
    pub monkey_events: u32,
    /// The chaos plan, if any — a resumed chaos campaign must replay
    /// the same faults.
    pub chaos: Option<FaultPlan>,
    /// Sampling and budget settings — resuming under a different rate
    /// would mix differently-thinned runs.
    pub sampling: SamplingConfig,
}

impl CampaignConfig {
    /// The identity this campaign is stored and resumed under.
    pub fn fingerprint(&self, apps: usize) -> CampaignFingerprint {
        CampaignFingerprint {
            apps,
            seed: self.dispatch.experiment.monkey.seed,
            monkey_events: self.dispatch.experiment.monkey.events,
            chaos: self.chaos,
            sampling: self.dispatch.experiment.supervisor.sampling,
        }
    }
}

/// Everything a campaign produced: successful analyses in app order,
/// plus an explicit record of every app that failed — the invariant
/// `analyses.len() + failures.len() == corpus.apps.len()` always
/// holds, so a hole in the data is visible instead of silent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Per-app analyses of the runs that succeeded, in app order.
    pub analyses: Vec<AppAnalysis>,
    /// Apps whose experiment failed, in app order.
    pub failures: Vec<AppFailure>,
    /// Retry attempts spent beyond each app's first try.
    #[serde(default)]
    pub retried: usize,
    /// Wire faults the chaos plan injected (all zero without chaos).
    #[serde(default)]
    pub injected: PerturbStats,
}

impl CampaignOutcome {
    /// Total apps accounted for (successes plus failures).
    pub fn total(&self) -> usize {
        self.analyses.len() + self.failures.len()
    }
}

/// Runs every app in `corpus` and returns the campaign outcome.
///
/// `progress` (if given) is called after each finished app — success
/// or failure — with the number finished so far.
pub fn run_corpus(
    corpus: &Corpus,
    knowledge: &Knowledge,
    config: &DispatchConfig,
    progress: Option<&(dyn Fn(usize) + Sync)>,
) -> CampaignOutcome {
    let campaign = CampaignConfig {
        dispatch: config.clone(),
        ..Default::default()
    };
    run_campaign(corpus, knowledge, &campaign, None, progress)
        .expect("io is impossible without a store")
}

/// Pre-fetched telemetry handles for one campaign, cloned into every
/// worker: the pipeline's stage recorders and balance counters, the
/// fault-event counters, and the dispatcher's own campaign counters.
/// Built once per [`run_campaign`] from [`CampaignConfig::telemetry`];
/// everything is inert when that handle is disabled.
#[derive(Clone)]
pub struct CampaignInstruments {
    /// Offline-pipeline stages and join-balance counters.
    pub pipeline: PipelineTelemetry,
    /// Injected-fault counters (`spector_fault_*_total`).
    pub faults: FaultTelemetry,
    /// `experiment/run_app` stage: wall time of one experiment run.
    pub run_app_stage: StageRecorder,
    /// `spector_campaign_apps_ok_total`: apps that produced an analysis.
    pub apps_ok: Counter,
    /// `spector_campaign_apps_failed_total`: apps that exhausted their
    /// retry budget (or failed fatally).
    pub apps_failed: Counter,
    /// `spector_campaign_retries_total`: attempts beyond each app's
    /// first try.
    pub retries: Counter,
    /// `spector_campaign_app_virtual_micros`: each successful run's
    /// virtual-clock duration — deterministic, unlike the wall spans.
    pub app_virtual_micros: Histogram,
}

impl CampaignInstruments {
    /// Fetches all campaign handles from `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Self {
        CampaignInstruments {
            pipeline: PipelineTelemetry::new(telemetry),
            faults: FaultTelemetry::new(telemetry),
            run_app_stage: telemetry.stage_recorder("experiment/run_app"),
            apps_ok: telemetry.counter("spector_campaign_apps_ok_total"),
            apps_failed: telemetry.counter("spector_campaign_apps_failed_total"),
            retries: telemetry.counter("spector_campaign_retries_total"),
            app_virtual_micros: telemetry.histogram(
                "spector_campaign_app_virtual_micros",
                &LATENCY_BOUNDS_MICROS,
            ),
        }
    }
}

/// How one attempt at one app ended, before retry accounting.
enum AttemptError {
    /// Weather: worth retrying (boot failure, hang, deadline).
    Retryable(String),
    /// A real error or a panic: retrying would waste the budget.
    Fatal(String),
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// One worker's full retry loop for one app. Everything that can blow
/// up — the run, the perturbation, the analysis — executes under
/// `catch_unwind`, so the worst an app can do is record a failure.
#[allow(clippy::too_many_arguments)]
fn run_one_app(
    corpus: &Corpus,
    knowledge: &Knowledge,
    config: &CampaignConfig,
    resolver: &std::collections::HashMap<String, std::net::Ipv4Addr>,
    live: Option<&LiveEngine>,
    instruments: &CampaignInstruments,
    index: usize,
) -> (Result<AppAnalysis, AppFailure>, PerturbStats, u32) {
    let app = &corpus.apps[index];
    let chaos_seed = config.chaos.map(|p| p.seed()).unwrap_or(0);
    let deadline = config.deadline_micros.unwrap_or(u64::MAX);
    let mut injected = PerturbStats::default();
    let mut attempt: u32 = 0;
    loop {
        let faults = config
            .chaos
            .map(|plan| plan.process_faults(index, attempt))
            .unwrap_or_default();
        let attempt_result: Result<AppAnalysis, AttemptError> = if faults.boot_failure {
            instruments.faults.boot_failures.inc();
            Err(AttemptError::Retryable(
                "emulator failed to boot (injected)".to_owned(),
            ))
        } else {
            let guarded = catch_unwind(AssertUnwindSafe(|| {
                if faults.worker_panic {
                    instruments.faults.worker_panics.inc();
                    panic!("injected worker panic (chaos)");
                }
                let mut experiment = config.dispatch.experiment.clone();
                // Deterministic per-app monkey seed, independent of
                // scheduling and of the attempt number: a retried run
                // replays the same app behavior, only the faults move.
                experiment.monkey.seed ^= (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let system: Vec<_> = app
                    .system_ops
                    .iter()
                    .map(|s| (s.op.clone(), s.dispatcher))
                    .collect();
                let mut raw = match instruments
                    .run_app_stage
                    .time(|| run_app(&app.apk, resolver, &system, &experiment))
                {
                    Ok(raw) => raw,
                    Err(error) => return Err(AttemptError::Fatal(error.to_string())),
                };
                if faults.monkey_hang {
                    instruments.faults.monkey_hangs.inc();
                    return Err(AttemptError::Retryable(
                        "monkey hang: virtual clock stalled past the app deadline (injected)"
                            .to_owned(),
                    ));
                }
                if raw.duration_micros > deadline {
                    return Err(AttemptError::Retryable(format!(
                        "app deadline exceeded: run took {}µs of virtual time (deadline {}µs)",
                        raw.duration_micros, deadline
                    )));
                }
                let mut stats = PerturbStats::default();
                if let Some(plan) = &config.chaos {
                    let capture = std::mem::take(&mut raw.capture);
                    let (capture, perturbed) = perturb_capture(
                        plan,
                        index,
                        attempt,
                        capture,
                        experiment.supervisor.collector_port,
                    );
                    raw.capture = capture;
                    stats = perturbed;
                }
                if let Some(live) = live {
                    live.push_run(index as u32, &raw.capture);
                }
                instruments.app_virtual_micros.record(raw.duration_micros);
                Ok((
                    analyze_run_instrumented(
                        &raw,
                        knowledge,
                        experiment.supervisor.collector_port,
                        &instruments.pipeline,
                    ),
                    stats,
                ))
            }));
            match guarded {
                Ok(Ok((analysis, stats))) => {
                    injected.merge(&stats);
                    Ok(analysis)
                }
                Ok(Err(error)) => Err(error),
                Err(payload) => Err(AttemptError::Fatal(format!(
                    "worker panicked: {}",
                    panic_message(payload.as_ref())
                ))),
            }
        };
        match attempt_result {
            Ok(analysis) => return (Ok(analysis), injected, attempt),
            Err(AttemptError::Retryable(error)) if attempt + 1 < config.retry.max_attempts => {
                let backoff = config.retry.backoff_micros(chaos_seed, index, attempt);
                if backoff > 0 {
                    std::thread::sleep(Duration::from_micros(backoff));
                }
                attempt += 1;
                let _ = error;
            }
            Err(AttemptError::Retryable(error)) | Err(AttemptError::Fatal(error)) => {
                return (
                    Err(AppFailure {
                        index,
                        package: app.package.clone(),
                        error,
                        attempts: attempt + 1,
                    }),
                    injected,
                    attempt,
                )
            }
        }
    }
}

/// Runs a hardened campaign: [`run_corpus`] plus chaos injection,
/// panic isolation, bounded retries and per-app deadlines. With the
/// default [`CampaignConfig`] the outcome is byte-identical to
/// [`run_corpus`].
///
/// # Errors
///
/// Only [`run_campaign_stored`]'s store errors, which cannot occur
/// here: without a store there is no I/O, and every app failure is
/// recorded in the outcome.
pub fn run_campaign(
    corpus: &Corpus,
    knowledge: &Knowledge,
    config: &CampaignConfig,
    live: Option<&LiveEngine>,
    progress: Option<&(dyn Fn(usize) + Sync)>,
) -> io::Result<CampaignOutcome> {
    run_campaign_stored(corpus, knowledge, config, live, progress, None)
}

/// [`run_campaign`] with a durable write path: every successful
/// analysis is appended to `store` the moment the collector loop sees
/// it, so a campaign's records hit disk as it runs instead of only
/// living in the returned [`CampaignOutcome`].
///
/// A writer reopened over a killed campaign hands over the analyses
/// that campaign already sealed; those apps are prefilled, not re-run.
/// Failed apps and the unsealed tail re-run, replaying the same
/// `(seed, app, attempt)` fault schedule, so `retried` and `injected`
/// count only the re-run apps. Open such a writer under this config's
/// [`CampaignConfig::fingerprint`].
///
/// The writer rides in a `Mutex` because the caller keeps using it
/// after the campaign (live snapshot flushes, the final seal):
/// appends happen only from the single collector loop, so the lock is
/// uncontended here.
///
/// # Errors
///
/// Returns the first store append error (the campaign still runs to
/// completion first), or `InvalidData` when the resumed records name
/// an app outside the corpus.
pub fn run_campaign_stored(
    corpus: &Corpus,
    knowledge: &Knowledge,
    config: &CampaignConfig,
    live: Option<&LiveEngine>,
    progress: Option<&(dyn Fn(usize) + Sync)>,
    store: Option<&Mutex<spector_store::StoreWriter>>,
) -> io::Result<CampaignOutcome> {
    let apps = corpus.apps.len();
    let instruments = CampaignInstruments::new(&config.telemetry);

    let mut results: Vec<Option<Result<AppAnalysis, AppFailure>>> = Vec::new();
    results.resize_with(apps, || None);
    if let Some(store) = store {
        let resumed = store.lock().expect("store writer poisoned").take_resumed();
        for (index, analysis) in resumed {
            let slot = results.get_mut(index as usize).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("resumed store campaign holds app {index}, corpus has {apps}"),
                )
            })?;
            *slot = Some(Ok(analysis));
        }
    }
    let pending: Vec<usize> = (0..apps).filter(|i| results[*i].is_none()).collect();

    let workers = if config.dispatch.workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        config.dispatch.workers
    };
    let resolver = resolver_for(&corpus.domains);
    // Bounded to the pool: the feeder blocks once every worker has a
    // job in hand plus one queued, and the collector loop below drains
    // results as they appear, so neither queue grows with corpus size.
    let queue = workers.max(1) * 2;
    let (job_tx, job_rx) = channel::bounded::<usize>(queue);
    let (result_tx, result_rx) =
        channel::bounded::<(usize, Result<AppAnalysis, AppFailure>, PerturbStats, u32)>(queue);

    let done = AtomicUsize::new(apps - pending.len());
    let mut retried: usize = 0;
    let mut injected = PerturbStats::default();
    let mut store_error: Option<io::Error> = None;
    crossbeam::scope(|scope| {
        scope.spawn(|_| {
            for index in &pending {
                if job_tx.send(*index).is_err() {
                    break;
                }
            }
            drop(job_tx);
            // job_tx drops here; workers drain and exit.
        });
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let result_tx = result_tx.clone();
            let resolver = &resolver;
            let done = &done;
            let instruments = &instruments;
            scope.spawn(move |_| {
                while let Ok(index) = job_rx.recv() {
                    let (result, stats, extra_attempts) = run_one_app(
                        corpus,
                        knowledge,
                        config,
                        resolver,
                        live,
                        instruments,
                        index,
                    );
                    let count = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(callback) = progress {
                        callback(count);
                    }
                    let _ = result_tx.send((index, result, stats, extra_attempts));
                }
            });
        }
        drop(job_rx);
        drop(result_tx);
        for (index, result, stats, extra_attempts) in result_rx.iter() {
            retried += extra_attempts as usize;
            instruments.retries.add(extra_attempts as u64);
            injected.merge(&stats);
            instruments.faults.record(&stats);
            match &result {
                Ok(analysis) => {
                    instruments.apps_ok.inc();
                    if let Some(store) = store {
                        if store_error.is_none() {
                            let mut writer = store.lock().expect("store writer poisoned");
                            if let Err(error) = writer.append_analysis(index as u32, analysis) {
                                store_error = Some(error.into());
                            }
                        }
                    }
                }
                Err(_) => instruments.apps_failed.inc(),
            }
            results[index] = Some(result);
        }
    })
    .expect("worker panicked outside isolation");
    if let Some(error) = store_error {
        return Err(error);
    }

    let mut outcome = CampaignOutcome {
        retried,
        injected,
        ..Default::default()
    };
    for result in results.into_iter() {
        match result.expect("every app index produces exactly one result") {
            Ok(analysis) => outcome.analyses.push(analysis),
            Err(failure) => outcome.failures.push(failure),
        }
    }
    debug_assert_eq!(outcome.total(), corpus.apps.len());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_corpus::{AppGenConfig, CorpusConfig};

    fn tiny_corpus(apps: usize, seed: u64) -> Corpus {
        Corpus::generate(&CorpusConfig {
            apps,
            seed,
            appgen: AppGenConfig {
                method_scale: 0.004,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn quick_dispatch(workers: usize) -> DispatchConfig {
        let mut config = DispatchConfig {
            workers,
            ..Default::default()
        };
        config.experiment.monkey.events = 40;
        config
    }

    #[test]
    fn campaign_covers_every_app_in_order() {
        let corpus = tiny_corpus(8, 21);
        let knowledge = Knowledge::from_corpus(&corpus);
        let outcome = run_corpus(&corpus, &knowledge, &quick_dispatch(3), None);
        assert_eq!(outcome.total(), corpus.apps.len());
        assert_eq!(outcome.analyses.len(), 8);
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.retried, 0);
        assert_eq!(outcome.injected, PerturbStats::default());
        for (app, analysis) in corpus.apps.iter().zip(&outcome.analyses) {
            assert_eq!(app.package, analysis.package);
        }
    }

    #[test]
    fn results_independent_of_worker_count() {
        let corpus = tiny_corpus(6, 22);
        let knowledge = Knowledge::from_corpus(&corpus);
        let serial = run_corpus(&corpus, &knowledge, &quick_dispatch(1), None);
        let parallel = run_corpus(&corpus, &knowledge, &quick_dispatch(4), None);
        assert_eq!(serial.total(), parallel.total());
        assert_eq!(serial.analyses.len(), parallel.analyses.len());
        for (a, b) in serial.analyses.iter().zip(&parallel.analyses) {
            assert_eq!(a.package, b.package);
            assert_eq!(a.flows, b.flows);
            assert_eq!(a.coverage, b.coverage);
        }
    }

    #[test]
    fn progress_reports_every_app() {
        let corpus = tiny_corpus(5, 23);
        let knowledge = Knowledge::from_corpus(&corpus);
        let seen = AtomicUsize::new(0);
        let callback = |_done: usize| {
            seen.fetch_add(1, Ordering::Relaxed);
        };
        run_corpus(&corpus, &knowledge, &quick_dispatch(2), Some(&callback));
        assert_eq!(seen.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn zero_workers_defaults_to_cpus() {
        let corpus = tiny_corpus(2, 24);
        let knowledge = Knowledge::from_corpus(&corpus);
        let outcome = run_corpus(&corpus, &knowledge, &quick_dispatch(0), None);
        assert_eq!(outcome.analyses.len(), 2);
        assert_eq!(outcome.total(), 2);
    }

    /// Replaces one app's `classes.dex` payload with garbage of the
    /// same length — the archive still parses, the dex does not, so
    /// `run_app` fails for exactly that app.
    fn corrupt_dex(corpus: &mut Corpus, victim: usize) {
        use spector_dex::apk::Apk;
        let mut raw = corpus.apps[victim].apk.to_bytes().to_vec();
        let name = b"classes.dex";
        let pos = raw
            .windows(name.len())
            .position(|w| w == name)
            .expect("apk contains a dex entry");
        let len_off = pos + name.len();
        let data_len = u32::from_le_bytes(raw[len_off..len_off + 4].try_into().unwrap()) as usize;
        for byte in &mut raw[len_off + 4..len_off + 4 + data_len] {
            *byte = 0xFF;
        }
        corpus.apps[victim].apk = Apk::from_bytes(&raw).expect("container still parses");
    }

    #[test]
    fn failed_apps_are_reported_not_silently_dropped() {
        let mut corpus = tiny_corpus(4, 25);
        corrupt_dex(&mut corpus, 2);
        let knowledge = Knowledge::from_corpus(&corpus);
        let seen = AtomicUsize::new(0);
        let callback = |_done: usize| {
            seen.fetch_add(1, Ordering::Relaxed);
        };
        let outcome = run_corpus(&corpus, &knowledge, &quick_dispatch(2), Some(&callback));
        // The count invariant: every app is accounted for, exactly once.
        assert_eq!(outcome.total(), corpus.apps.len());
        assert_eq!(outcome.analyses.len(), 3);
        assert_eq!(outcome.failures.len(), 1);
        let failure = &outcome.failures[0];
        assert_eq!(failure.index, 2);
        assert_eq!(failure.package, corpus.apps[2].package);
        assert!(!failure.error.is_empty());
        assert_eq!(failure.attempts, 1, "apk errors are not retryable");
        // The surviving analyses keep app order, skipping the hole.
        let packages: Vec<&str> = outcome
            .analyses
            .iter()
            .map(|a| a.package.as_str())
            .collect();
        let expected: Vec<&str> = corpus
            .apps
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, a)| a.package.as_str())
            .collect();
        assert_eq!(packages, expected);
        // Progress fired for failures too.
        assert_eq!(seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn live_collector_sees_the_campaign_as_it_runs() {
        use spector_live::{LiveConfig, LiveSummary};
        use std::sync::Arc;

        let corpus = tiny_corpus(4, 26);
        let knowledge = Knowledge::from_corpus(&corpus);
        let live = LiveEngine::start(
            Arc::new(knowledge.clone()),
            LiveConfig {
                shards: 2,
                ..Default::default()
            },
        );
        let config = CampaignConfig {
            dispatch: quick_dispatch(2),
            ..Default::default()
        };
        let outcome = run_campaign(&corpus, &knowledge, &config, Some(&live), None).unwrap();
        let live = live.finish();
        assert_eq!(outcome.analyses.len(), 4);
        assert_eq!(live.dropped_events, 0);
        assert_eq!(
            live.offline_view(),
            LiveSummary::from_analyses(&outcome.analyses)
        );
    }
}
