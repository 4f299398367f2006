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
//! * **Checkpointing** — the collector persists a fingerprinted
//!   [`CampaignCheckpoint`] every N results; a killed campaign resumes
//!   from it without re-running completed apps, and produces the same
//!   [`CampaignOutcome`] an uninterrupted run would have.
//!
//! [`run_corpus`] remains the simple facade: no chaos, no retries, no
//! checkpointing — byte-identical to the pre-hardening dispatcher.
//!
//! With [`run_corpus_live`], each worker additionally streams its
//! finished run's capture into a `spector-live` [`LiveEngine`] — the
//! online attribution engine — so a campaign can be watched while it
//! runs.

pub mod resilience;
pub mod store;

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
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
use spector_telemetry::{Counter, Histogram, StageRecorder, Telemetry, LATENCY_BOUNDS_MICROS};

pub use resilience::RetryPolicy;
pub use store::{
    load_campaign, load_checkpoint, save_campaign, save_checkpoint, Campaign, CampaignCheckpoint,
    CampaignFingerprint, CheckpointEntry,
};

/// Campaign settings.
#[derive(Debug, Clone, Default)]
pub struct DispatchConfig {
    /// Worker threads (0 = one per available CPU).
    pub workers: usize,
    /// Per-app experiment settings; the monkey seed is re-derived per
    /// app from this base seed.
    pub experiment: ExperimentConfig,
}

/// Periodic checkpoint settings for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the checkpoint file lives (atomically replaced).
    pub path: PathBuf,
    /// Write a checkpoint every this many finished apps (min 1).
    pub every: usize,
}

/// Everything [`run_campaign`] needs beyond the corpus: pool settings
/// plus the resilience knobs. The default is exactly [`run_corpus`]'s
/// behavior — no chaos, single attempt, no deadline, no checkpoint.
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
    /// Periodic checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from this checkpoint file if it exists (a missing file
    /// starts fresh; a fingerprint mismatch is an error).
    pub resume_from: Option<PathBuf>,
    /// Telemetry sink for campaign/pipeline/fault metrics. The default
    /// disabled handle reduces every instrumentation touch point to one
    /// branch; it never affects results, so it is deliberately not part
    /// of the checkpoint fingerprint.
    pub telemetry: Telemetry,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            dispatch: DispatchConfig::default(),
            chaos: None,
            retry: RetryPolicy::never(),
            deadline_micros: None,
            checkpoint: None,
            resume_from: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl CampaignConfig {
    /// The identity this campaign checkpoints under.
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

/// One app whose experiment could not run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppFailure {
    /// Index of the app in the corpus.
    pub index: usize,
    /// The app's package name.
    pub package: String,
    /// Rendered experiment error (the last attempt's).
    pub error: String,
    /// Attempts spent before giving up (1 = failed first try, no
    /// retries allowed or the failure was not retryable).
    #[serde(default)]
    pub attempts: u32,
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
        .expect("io is impossible without checkpoint/resume")
}

/// [`run_corpus`], additionally streaming every successful run's
/// capture into `live` (run id = app index) the moment the run
/// finishes — before its offline analysis. The returned outcome is
/// identical to [`run_corpus`]'s; the engine's final summary is the
/// live view of the same campaign. Snapshots may be taken from any
/// thread while the campaign runs.
pub fn run_corpus_live(
    corpus: &Corpus,
    knowledge: &Knowledge,
    config: &DispatchConfig,
    live: &LiveEngine,
    progress: Option<&(dyn Fn(usize) + Sync)>,
) -> CampaignOutcome {
    let campaign = CampaignConfig {
        dispatch: config.clone(),
        ..Default::default()
    };
    run_campaign(corpus, knowledge, &campaign, Some(live), progress)
        .expect("io is impossible without checkpoint/resume")
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
    /// `spector_campaign_checkpoints_total`: checkpoint files written.
    pub checkpoints: Counter,
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
            checkpoints: telemetry.counter("spector_campaign_checkpoints_total"),
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
/// panic isolation, bounded retries, per-app deadlines, and
/// checkpoint/resume. With the default [`CampaignConfig`] the outcome
/// is byte-identical to [`run_corpus`].
///
/// # Errors
///
/// Returns an error when the resume checkpoint exists but does not
/// match this campaign's fingerprint, or when a checkpoint write
/// fails. The experiment itself cannot error: every app failure is
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
/// it — incrementally, beside the checkpoints — so a campaign's
/// records hit disk as it runs instead of only living in the returned
/// [`CampaignOutcome`]. Analyses prefilled from a resume checkpoint
/// are appended too (the writer registered a fresh store campaign, so
/// nothing is double-counted).
///
/// The writer rides in a `Mutex` because the caller keeps using it
/// after the campaign (live snapshot flushes, the final seal):
/// appends happen only from the single collector loop, so the lock is
/// uncontended here.
pub fn run_campaign_stored(
    corpus: &Corpus,
    knowledge: &Knowledge,
    config: &CampaignConfig,
    live: Option<&LiveEngine>,
    progress: Option<&(dyn Fn(usize) + Sync)>,
    store: Option<&Mutex<spector_store::StoreWriter>>,
) -> io::Result<CampaignOutcome> {
    let apps = corpus.apps.len();
    let fingerprint = config.fingerprint(apps);
    let instruments = CampaignInstruments::new(&config.telemetry);

    let mut results: Vec<Option<Result<AppAnalysis, AppFailure>>> = Vec::new();
    results.resize_with(apps, || None);
    let mut retried: usize = 0;
    let mut injected = PerturbStats::default();
    if let Some(path) = &config.resume_from {
        match load_checkpoint(path, &fingerprint) {
            Ok(checkpoint) => {
                retried = checkpoint.retried;
                injected = checkpoint.injected;
                for (slot, entry) in results.iter_mut().zip(checkpoint.results) {
                    *slot = entry.map(|entry| match entry {
                        CheckpointEntry::Analysis(analysis) => Ok(analysis),
                        CheckpointEntry::Failure(failure) => Err(failure),
                    });
                }
            }
            // No checkpoint yet: a fresh campaign that will write one.
            Err(error) if error.kind() == io::ErrorKind::NotFound => {}
            Err(error) => return Err(error),
        }
    }
    if let Some(store) = store {
        // Checkpoint-resumed analyses belong to this writer's (new)
        // store campaign as much as freshly-computed ones do.
        let mut writer = store.lock().expect("store writer poisoned");
        for (index, slot) in results.iter().enumerate() {
            if let Some(Ok(analysis)) = slot {
                writer
                    .append_analysis(index as u32, analysis)
                    .map_err(io::Error::from)?;
            }
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
    let mut checkpoint_error: Option<io::Error> = None;
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
        let mut since_checkpoint = 0usize;
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
            if let Some(checkpoint) = &config.checkpoint {
                since_checkpoint += 1;
                if since_checkpoint >= checkpoint.every.max(1) && checkpoint_error.is_none() {
                    since_checkpoint = 0;
                    let snapshot = snapshot_checkpoint(&fingerprint, &results, retried, &injected);
                    if let Err(error) = save_checkpoint(&snapshot, &checkpoint.path) {
                        checkpoint_error = Some(error);
                    } else {
                        instruments.checkpoints.inc();
                    }
                }
            }
        }
    })
    .expect("worker panicked outside isolation");
    if let Some(error) = checkpoint_error {
        return Err(error);
    }
    if let Some(error) = store_error {
        return Err(error);
    }
    if let Some(checkpoint) = &config.checkpoint {
        let snapshot = snapshot_checkpoint(&fingerprint, &results, retried, &injected);
        save_checkpoint(&snapshot, &checkpoint.path)?;
        instruments.checkpoints.inc();
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

fn snapshot_checkpoint(
    fingerprint: &CampaignFingerprint,
    results: &[Option<Result<AppAnalysis, AppFailure>>],
    retried: usize,
    injected: &PerturbStats,
) -> CampaignCheckpoint {
    CampaignCheckpoint {
        fingerprint: fingerprint.clone(),
        results: results
            .iter()
            .map(|slot| {
                slot.as_ref().map(|result| match result {
                    Ok(analysis) => CheckpointEntry::Analysis(analysis.clone()),
                    Err(failure) => CheckpointEntry::Failure(failure.clone()),
                })
            })
            .collect(),
        retried,
        injected: *injected,
    }
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
        let outcome = run_corpus_live(&corpus, &knowledge, &quick_dispatch(2), &live, None);
        let live = live.finish();
        assert_eq!(outcome.analyses.len(), 4);
        assert_eq!(live.dropped_events, 0);
        assert_eq!(
            live.offline_view(),
            LiveSummary::from_analyses(&outcome.analyses)
        );
    }
}
