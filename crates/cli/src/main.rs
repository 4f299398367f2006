//! `libspector` — run measurement campaigns over a synthetic app store.
//!
//! ```text
//! libspector run    --apps 200 --seed 42 --events 1000 [--workers 0]
//!                   [--out campaign.json] [--method-scale 0.02]
//!                   [--chaos none|light|heavy] [--chaos-seed S]
//!                   [--max-failures N] [--checkpoint FILE]
//!                   [--checkpoint-every N] [--resume FILE]
//! libspector report --campaign campaign.json
//! libspector sweep  --apps 50 --seed 42 --events 10,100,500,1000
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use libspector::knowledge::Knowledge;
use spector_analysis::FullReport;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_dispatch::{
    run_campaign_stored, run_corpus, save_campaign, AppFailure, Campaign, CampaignConfig,
    CheckpointConfig, DispatchConfig, RetryPolicy,
};
use spector_faults::{FaultPlan, FaultProfile};
use spector_sampling::{SamplingConfig, TraceBudget};
use spector_store::{
    CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreReader, StoreTelemetry,
    StoreWriter, StoredFailure, DEFAULT_SEAL_EVERY,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args[1..]),
        "live" => cmd_live(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "baseline" => cmd_baseline(&args[1..]),
        "policy" => cmd_policy(&args[1..]),
        "export" => cmd_export(&args[1..]),
        "shapes" => cmd_shapes(&args[1..]),
        "detect-quality" => cmd_detect_quality(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
libspector — context-aware network traffic analysis (simulated reproduction)

USAGE:
  libspector run    --apps N [--seed S] [--events E] [--workers W]
                    [--out FILE] [--method-scale F]
                    [--modern-fraction F]  (IPv6/pooled/TLS-like/CONNECT traffic share)
                    [--chaos none|light|heavy] [--chaos-seed S]
                    [--max-failures N] [--checkpoint FILE]
                    [--checkpoint-every N] [--resume FILE]
                    [--sample-rate F]    (per-socket report sampling, default 1.0)
                    [--trace-budget N [--trace-budget-window MICROS]]
                    [--metrics FILE]  (also writes FILE.prom)
                    [--store DIR]     (durable columnar campaign store)
                    [--store-seal-every N]  (analyses per sealed segment)
  libspector live   --apps N [--seed S] [--events E] [--workers W]
                    [--shards K] [--batch-events B] [--snapshot-every N]
                    [--modern-fraction F]
                    [--sample-rate F] [--trace-budget N [--trace-budget-window MICROS]]
                    [--metrics FILE] [--store DIR] [--store-seal-every N]
  libspector query  --store DIR [--campaign N | --campaigns N1,N2,...]
                    [--report] [--top N] [--metrics FILE]
                    (--report prints the stored campaign's standard report,
                     byte-identical to what `run` printed; integrity counts
                     — ok/rejected/orphaned/unsealed — go to stderr)
  libspector metrics --file FILE [--prometheus]  (per-stage profile table)
  libspector report --campaign FILE
  libspector sweep  --apps N [--seed S] --events E1,E2,...
  libspector baseline --campaign FILE          (DNS-only classifier comparison)
  libspector policy   --campaign FILE [--min-mb F]  (blacklist suggestion + what-if)
  libspector export   --campaign FILE --out DIR     (CSV per table/figure)
  libspector shapes   --campaign FILE                (check paper shapes)
  libspector detect-quality [--apps N] [--seed S] [--method-scale F]
                    [--obf-seed S]   (cascade precision/recall per obfuscation level)
";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value {raw:?} for {name}")),
    }
}

/// Parses the shared sampling/budget flags. The inclusion seed is
/// derived from the campaign seed so reruns are reproducible, but
/// offset so changing the rate never perturbs the monkey workload.
fn parse_sampling(args: &[String], seed: u64) -> Result<SamplingConfig, String> {
    let rate: f64 = parse_flag(args, "--sample-rate", 1.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--sample-rate {rate} outside [0, 1]"));
    }
    let budget: Option<u64> = match flag(args, "--trace-budget") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value {raw:?} for --trace-budget"))?,
        ),
    };
    let window_micros: u64 = parse_flag(args, "--trace-budget-window", 0)?;
    Ok(SamplingConfig {
        rate,
        seed: seed ^ 0x5a4d_9a17_c0ff_ee01,
        budget: budget.map(|max_reports| TraceBudget {
            max_reports,
            window_micros,
        }),
    })
}

/// Writes the snapshot as stable JSON to `path` and as Prometheus
/// text to `path` + ".prom".
fn write_metrics(snapshot: &spector_telemetry::MetricsSnapshot, path: &str) -> Result<(), String> {
    let json = serde_json::to_string_pretty(snapshot).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    let prom_path = format!("{path}.prom");
    let prom = spector_telemetry::render_prometheus(snapshot);
    std::fs::write(&prom_path, prom).map_err(|e| format!("writing {prom_path}: {e}"))?;
    eprintln!("metrics written to {path} (+ {prom_path})");
    Ok(())
}

fn build_corpus(apps: usize, seed: u64, method_scale: f64, modern_fraction: f64) -> Corpus {
    eprintln!("generating corpus: {apps} apps, seed {seed}");
    Corpus::generate(&CorpusConfig {
        apps,
        seed,
        appgen: AppGenConfig {
            method_scale,
            modern_fraction,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Opens `dir` as a store and registers a new campaign for this
/// invocation.
fn open_store_writer(
    dir: &str,
    seed: u64,
    apps: usize,
    events: u32,
    kind: CampaignKind,
    seal_every: usize,
    telemetry: &spector_telemetry::Telemetry,
) -> Result<std::sync::Mutex<StoreWriter>, String> {
    let meta = CampaignMeta {
        seed,
        apps,
        monkey_events: events as usize,
        kind,
    };
    let options = StoreOptions {
        seal_every,
        telemetry: StoreTelemetry::new(telemetry),
    };
    let writer = StoreWriter::create(std::path::Path::new(dir), &meta, options)
        .map_err(|e| format!("opening store {dir}: {e}"))?;
    eprintln!("store: writing campaign {} to {dir}", writer.campaign_id());
    Ok(std::sync::Mutex::new(writer))
}

/// Seals the store campaign, preserving the failure ledger.
fn seal_store(
    writer: std::sync::Mutex<StoreWriter>,
    seed: u64,
    apps: usize,
    events: u32,
    failures: &[AppFailure],
) -> Result<(), String> {
    let seal = CampaignSealRecord {
        seed,
        apps,
        monkey_events: events as usize,
        failures: failures
            .iter()
            .map(|f| StoredFailure {
                index: f.index,
                package: f.package.clone(),
                error: f.error.clone(),
                attempts: f.attempts,
            })
            .collect(),
    };
    writer
        .into_inner()
        .expect("store writer poisoned")
        .finish(&seal)
        .map_err(|e| format!("sealing store campaign: {e}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let apps: usize = parse_flag(args, "--apps", 100)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let events: u32 = parse_flag(args, "--events", 1_000)?;
    let workers: usize = parse_flag(args, "--workers", 0)?;
    let method_scale: f64 = parse_flag(args, "--method-scale", 0.02)?;
    let modern_fraction: f64 = parse_flag(args, "--modern-fraction", 0.0)?;
    let out: Option<String> = flag(args, "--out");
    let chaos_profile: FaultProfile = parse_flag(args, "--chaos", FaultProfile::none())?;
    let chaos_seed: u64 = parse_flag(args, "--chaos-seed", seed)?;
    let max_failures: usize = parse_flag(args, "--max-failures", 0)?;
    let checkpoint: Option<String> = flag(args, "--checkpoint");
    let checkpoint_every: usize = parse_flag(args, "--checkpoint-every", 25)?;
    let resume: Option<String> = flag(args, "--resume");
    let metrics_out: Option<String> = flag(args, "--metrics");
    let store_dir: Option<String> = flag(args, "--store");
    let seal_every: usize = parse_flag(args, "--store-seal-every", DEFAULT_SEAL_EVERY)?;
    let sampling = parse_sampling(args, seed)?;

    let corpus = build_corpus(apps, seed, method_scale, modern_fraction);
    eprintln!("scanning corpus (LibRadar aggregate + domain labels)");
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = events;
    dispatch.experiment.monkey.seed = seed;
    dispatch.experiment.supervisor.sampling = sampling;
    if !sampling.is_exact() {
        eprintln!(
            "sampled tracing: rate {}, budget {}",
            sampling.rate,
            match sampling.budget {
                Some(b) => format!(
                    "{} report(s) per {} us window",
                    b.max_reports, b.window_micros
                ),
                None => "none".to_owned(),
            }
        );
    }

    let chaos = (!chaos_profile.is_noop()).then(|| FaultPlan::new(chaos_seed, chaos_profile));
    if let Some(plan) = &chaos {
        eprintln!("chaos enabled: seed {}", plan.seed());
    }
    let telemetry = if metrics_out.is_some() {
        spector_telemetry::Telemetry::enabled()
    } else {
        spector_telemetry::Telemetry::disabled()
    };
    let config = CampaignConfig {
        dispatch,
        chaos,
        retry: if chaos.is_some() {
            RetryPolicy::default()
        } else {
            RetryPolicy::never()
        },
        checkpoint: checkpoint.map(|path| CheckpointConfig {
            path: PathBuf::from(path),
            every: checkpoint_every,
        }),
        resume_from: resume.map(PathBuf::from),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let store = store_dir
        .as_deref()
        .map(|dir| {
            open_store_writer(
                dir,
                seed,
                apps,
                events,
                CampaignKind::Run,
                seal_every,
                &telemetry,
            )
        })
        .transpose()?;
    eprintln!("running campaign ({events} monkey events per app)");
    let progress = |done: usize| {
        if done.is_multiple_of(50) {
            eprintln!("  {done}/{apps} apps done");
        }
    };
    let outcome = run_campaign_stored(
        &corpus,
        &knowledge,
        &config,
        None,
        Some(&progress),
        store.as_ref(),
    )
    .map_err(|e| format!("campaign checkpoint i/o: {e}"))?;
    if let Some(writer) = store {
        seal_store(writer, seed, apps, events, &outcome.failures)?;
    }
    for failure in &outcome.failures {
        eprintln!(
            "warning: app {} ({}) failed after {} attempt(s): {}",
            failure.index, failure.package, failure.attempts, failure.error
        );
    }
    if outcome.retried > 0 || outcome.injected.total() > 0 {
        eprintln!(
            "chaos summary: {} retried app run(s), {} injected fault event(s)",
            outcome.retried,
            outcome.injected.total()
        );
    }
    if let Some(path) = &metrics_out {
        write_metrics(&telemetry.snapshot(), path)?;
    }
    let failures = outcome.failures;
    let analyses = outcome.analyses;
    let report = FullReport::build(&analyses);
    println!("{}", report.render());
    if let Some(out) = out {
        let campaign = Campaign {
            seed,
            apps,
            monkey_events: events,
            analyses,
            failures: failures.clone(),
        };
        save_campaign(&campaign, &PathBuf::from(&out)).map_err(|e| e.to_string())?;
        eprintln!("campaign saved to {out}");
    }
    if failures.len() > max_failures {
        return Err(format!(
            "{} app(s) failed, exceeding --max-failures {max_failures}",
            failures.len()
        ));
    }
    Ok(())
}

fn cmd_live(args: &[String]) -> Result<(), String> {
    use spector_live::{LiveConfig, LiveEngine, LiveSummary};

    let apps: usize = parse_flag(args, "--apps", 50)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let events: u32 = parse_flag(args, "--events", 500)?;
    let workers: usize = parse_flag(args, "--workers", 0)?;
    let shards: usize = parse_flag(args, "--shards", 2)?;
    let batch_events: usize = parse_flag(args, "--batch-events", 64)?;
    let method_scale: f64 = parse_flag(args, "--method-scale", 0.02)?;
    let modern_fraction: f64 = parse_flag(args, "--modern-fraction", 0.0)?;
    let snapshot_every: usize = parse_flag(args, "--snapshot-every", 10)?;
    let metrics_out: Option<String> = flag(args, "--metrics");
    let store_dir: Option<String> = flag(args, "--store");
    let seal_every: usize = parse_flag(args, "--store-seal-every", DEFAULT_SEAL_EVERY)?;
    let sampling = parse_sampling(args, seed)?;

    let corpus = build_corpus(apps, seed, method_scale, modern_fraction);
    eprintln!("scanning corpus (LibRadar aggregate + domain labels)");
    let knowledge = Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig {
        workers,
        ..Default::default()
    };
    dispatch.experiment.monkey.events = events;
    dispatch.experiment.monkey.seed = seed;
    dispatch.experiment.supervisor.sampling = sampling;
    if !sampling.is_exact() {
        eprintln!("sampled tracing: rate {}", sampling.rate);
    }

    let telemetry = if metrics_out.is_some() {
        spector_telemetry::Telemetry::enabled()
    } else {
        spector_telemetry::Telemetry::disabled()
    };
    let store = store_dir
        .as_deref()
        .map(|dir| {
            open_store_writer(
                dir,
                seed,
                apps,
                events,
                CampaignKind::Live,
                seal_every,
                &telemetry,
            )
        })
        .transpose()?;
    let live = LiveEngine::start(
        std::sync::Arc::new(knowledge.clone()),
        LiveConfig {
            shards,
            batch_events,
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    eprintln!(
        "streaming campaign through {shards} shard(s), batches of {batch_events}, \
         {events} monkey events per app"
    );
    let progress = |done: usize| {
        if snapshot_every > 0 && done.is_multiple_of(snapshot_every) {
            let snapshot = live.snapshot();
            if let Some(writer) = &store {
                if let Err(error) = writer
                    .lock()
                    .expect("store writer poisoned")
                    .append_live_snapshot(&snapshot)
                {
                    eprintln!("warning: store snapshot flush failed: {error}");
                }
            }
            eprintln!(
                "  [{done}/{apps}] {}",
                spector_analysis::live::brief(&snapshot)
            );
        }
    };
    // Matches what `run_corpus_live` builds: dispatch telemetry stays
    // default so the metrics snapshot remains the live engine's alone.
    let campaign_config = CampaignConfig {
        dispatch: dispatch.clone(),
        ..Default::default()
    };
    let outcome = run_campaign_stored(
        &corpus,
        &knowledge,
        &campaign_config,
        Some(&live),
        Some(&progress),
        store.as_ref(),
    )
    .map_err(|e| format!("campaign store i/o: {e}"))?;
    if let Some(writer) = store {
        seal_store(writer, seed, apps, events, &outcome.failures)?;
    }
    let (live, live_metrics) = live.finish_with_metrics();
    if let Some(path) = &metrics_out {
        write_metrics(&live_metrics, path)?;
    }
    print!("{}", spector_analysis::live::render(&live));
    for failure in &outcome.failures {
        eprintln!(
            "warning: app {} ({}) failed: {}",
            failure.index, failure.package, failure.error
        );
    }

    // The engine guarantees its final summary equals the offline
    // pipeline's; verify on every invocation and fail loudly if not.
    if live.offline_view() != LiveSummary::from_analyses(&outcome.analyses) {
        return Err("live summary diverged from the offline pipeline".into());
    }
    eprintln!(
        "offline equivalence: OK ({} flows, {} libraries, {} domain categories)",
        live.flows,
        live.per_library.len(),
        live.per_domain_category.len(),
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--store").ok_or("missing --store DIR")?;
    let campaign: Option<u32> = match flag(args, "--campaign") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value {raw:?} for --campaign"))?,
        ),
    };
    let campaigns: Option<Vec<u32>> = match flag(args, "--campaigns") {
        None => campaign.map(|c| vec![c]),
        Some(_) if campaign.is_some() => {
            return Err("--campaign and --campaigns are mutually exclusive".into());
        }
        Some(raw) => Some(
            raw.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("bad campaign id {s:?}"))
                })
                .collect::<Result<Vec<u32>, String>>()?,
        ),
    };
    let top: usize = parse_flag(args, "--top", 20)?;
    let report = args.iter().any(|a| a == "--report");
    let metrics_out: Option<String> = flag(args, "--metrics");

    let telemetry = if metrics_out.is_some() {
        spector_telemetry::Telemetry::enabled()
    } else {
        spector_telemetry::Telemetry::disabled()
    };
    let reader =
        StoreReader::open_with(std::path::Path::new(&dir), StoreTelemetry::new(&telemetry))
            .map_err(|e| format!("opening store {dir}: {e}"))?;
    for (file, kind) in &reader.integrity().rejected {
        eprintln!("warning: rejected segment {file}: {}", kind.label());
    }
    let integrity = reader.integrity();
    eprintln!(
        "store integrity: {} segment(s) ok, {} rejected, {} orphaned, {} unsealed campaign(s)",
        integrity.segments_ok,
        integrity.rejected.len(),
        integrity.orphaned_segments,
        integrity.unsealed_campaigns,
    );

    if report {
        // The stored campaign's standard report: byte-identical to the
        // stdout `libspector run` produced for the same campaign.
        let id = match campaigns.as_deref() {
            Some([id]) => *id,
            Some(_) => return Err("--report takes exactly one campaign".into()),
            None => match reader.campaigns() {
                [only] => only.id,
                [] => return Err(format!("store {dir} holds no campaigns")),
                _ => return Err("--report needs --campaign N (store holds several)".into()),
            },
        };
        let full = spector_analysis::storeq::report_from_store(&reader, id);
        println!("{}", full.render());
    } else {
        let stats = spector_analysis::storeq::compute(&reader, campaigns.as_deref());
        print!("{}", spector_analysis::storeq::render(&stats, top));
    }
    if let Some(path) = &metrics_out {
        write_metrics(&telemetry.snapshot(), path)?;
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--file").ok_or("missing --file FILE (a --metrics JSON snapshot)")?;
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let snapshot: spector_telemetry::MetricsSnapshot =
        serde_json::from_str(&raw).map_err(|e| format!("parsing {path}: {e}"))?;
    if args.iter().any(|a| a == "--prometheus") {
        print!("{}", spector_telemetry::render_prometheus(&snapshot));
    } else {
        print!("{}", spector_analysis::profile::render_profile(&snapshot));
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--campaign").ok_or("missing --campaign FILE")?;
    let campaign =
        spector_dispatch::load_campaign(&PathBuf::from(&path)).map_err(|e| e.to_string())?;
    let report = FullReport::build(&campaign.analyses);
    println!("{}", report.render());
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let apps: usize = parse_flag(args, "--apps", 50)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let raw_events = flag(args, "--events").unwrap_or_else(|| "10,100,500,1000".to_owned());
    let budgets: Vec<u32> = raw_events
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad event count {s:?}"))
        })
        .collect::<Result<_, _>>()?;

    let corpus = build_corpus(apps, seed, 0.02, 0.0);
    let knowledge = Knowledge::from_corpus(&corpus);
    println!(
        "{:>8} {:>14} {:>12}",
        "events", "mean coverage", "mean MB/app"
    );
    for &events in &budgets {
        let mut dispatch = DispatchConfig::default();
        dispatch.experiment.monkey.events = events;
        dispatch.experiment.monkey.seed = seed;
        let analyses = run_corpus(&corpus, &knowledge, &dispatch, None).analyses;
        let report = FullReport::build(&analyses);
        let mb = report.headline.total_bytes as f64 / 1_048_576.0 / apps.max(1) as f64;
        println!(
            "{events:>8} {:>13.2}% {mb:>12.3}",
            report.fig10.mean_coverage_percent
        );
    }
    Ok(())
}

fn cmd_baseline(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--campaign").ok_or("missing --campaign FILE")?;
    let campaign =
        spector_dispatch::load_campaign(&PathBuf::from(&path)).map_err(|e| e.to_string())?;
    let comparison = libspector::baseline::compare(&campaign.analyses);
    println!("DNS-only baseline vs context-aware attribution");
    println!(
        "  total {:.2} MB | agree {:.2} MB | conflict {:.2} MB | invisible {:.2} MB",
        comparison.total_bytes as f64 / 1_048_576.0,
        comparison.agree_bytes as f64 / 1_048_576.0,
        comparison.conflict_bytes as f64 / 1_048_576.0,
        comparison.invisible_bytes as f64 / 1_048_576.0,
    );
    println!(
        "  misclassified/invisible {:.1}% | known-origin CDN {:.1}% (paper: 19.3%) | ad bytes missed {:.1}%",
        comparison.misclassified_fraction() * 100.0,
        comparison.known_origin_cdn_fraction() * 100.0,
        comparison.ad_miss_fraction() * 100.0,
    );
    Ok(())
}

fn cmd_policy(args: &[String]) -> Result<(), String> {
    use libspector::policy::{apply, suggest_blacklist, Action, Matcher, Policy};
    let path = flag(args, "--campaign").ok_or("missing --campaign FILE")?;
    let min_mb: f64 = parse_flag(args, "--min-mb", 0.5)?;
    let campaign =
        spector_dispatch::load_campaign(&PathBuf::from(&path)).map_err(|e| e.to_string())?;
    let suggestions = suggest_blacklist(&campaign.analyses, (min_mb * 1_048_576.0) as u64);
    if suggestions.is_empty() {
        println!("no AnT origin exceeds {min_mb} MB; nothing to suggest");
        return Ok(());
    }
    println!("suggested blacklist (AnT 2-level origins >= {min_mb} MB):");
    let mut policy = Policy::allow_by_default();
    for (origin, bytes) in &suggestions {
        println!("  {origin:<30} {:>9.2} MB", *bytes as f64 / 1_048_576.0);
        policy = policy.with_rule(
            &format!("block {origin}"),
            Matcher::LibraryPrefix(origin.clone()),
            Action::Block,
        );
    }
    let report = apply(&policy, &campaign.analyses);
    println!(
        "what-if: block {} of {} flows, {:.2} MB; {} apps fully silenced; saves ${:.3}/hour per app",
        report.blocked_flows,
        report.flows,
        report.blocked_bytes as f64 / 1_048_576.0,
        report.fully_blocked_apps,
        report.hourly_savings_usd(&libspector::cost::DataPlan::default(), campaign.analyses.len()),
    );
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--campaign").ok_or("missing --campaign FILE")?;
    let out = flag(args, "--out").ok_or("missing --out DIR")?;
    let campaign =
        spector_dispatch::load_campaign(&PathBuf::from(&path)).map_err(|e| e.to_string())?;
    let report = FullReport::build(&campaign.analyses);
    let written = spector_analysis::export::export_all(&report, &PathBuf::from(&out))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} CSV files to {out}: {}",
        written.len(),
        written.join(", ")
    );
    Ok(())
}

fn cmd_detect_quality(args: &[String]) -> Result<(), String> {
    use spector_analysis::detect::{evaluate, render, DetectQualityConfig};

    let defaults = DetectQualityConfig::default();
    let config = DetectQualityConfig {
        apps: parse_flag(args, "--apps", defaults.apps)?,
        seed: parse_flag(args, "--seed", defaults.seed)?,
        method_scale: parse_flag(args, "--method-scale", defaults.method_scale)?,
        obfuscation_seed: parse_flag(args, "--obf-seed", defaults.obfuscation_seed)?,
    };
    eprintln!(
        "grading detection cascade: {} apps per obfuscation level, seed {}",
        config.apps, config.seed
    );
    print!("{}", render(&evaluate(&config)));
    Ok(())
}

fn cmd_shapes(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--campaign").ok_or("missing --campaign FILE")?;
    let campaign =
        spector_dispatch::load_campaign(&PathBuf::from(&path)).map_err(|e| e.to_string())?;
    let report = FullReport::build(&campaign.analyses);
    let checks = spector_analysis::paper::compare_to_paper(&report);
    print!("{}", spector_analysis::paper::render_checks(&checks));
    let holding = checks.iter().filter(|c| c.holds).count();
    if holding < checks.len() {
        return Err(format!("{} shape(s) out of band", checks.len() - holding));
    }
    Ok(())
}
