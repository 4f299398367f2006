//! `libspector` — run measurement campaigns over a synthetic app store.
//! Campaigns persist in a `spector-store` directory (`run --store DIR`),
//! which `query`, `baseline`, `policy`, `export` and `shapes` read back;
//! see `USAGE` for every subcommand.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;

use libspector::knowledge::Knowledge;
use libspector::pipeline::AppAnalysis;
use spector_analysis::FullReport;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_dispatch::{
    run_campaign, run_campaign_stored, AppFailure, CampaignConfig, CampaignFingerprint,
    DispatchConfig, RetryPolicy,
};
use spector_faults::{FaultPlan, FaultProfile};
use spector_sampling::{SamplingConfig, TraceBudget};
use spector_store::{
    CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreReader, StoreTelemetry,
    StoreWriter, DEFAULT_SEAL_EVERY,
};
use spector_telemetry::Telemetry;

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
                    [--method-scale F]
                    [--modern-fraction F]  (IPv6/pooled/TLS-like/CONNECT traffic share)
                    [--chaos none|light|heavy] [--chaos-seed S] [--max-failures N]
                    [--sample-rate F]    (per-socket report sampling, default 1.0)
                    [--trace-budget N [--trace-budget-window MICROS]]
                    [--metrics FILE]  (also writes FILE.prom)
                    [--store DIR]     (durable columnar campaign store)
                    [--store-seal-every N]  (analyses per sealed segment: the
                                             checkpoint cadence)
                    [--resume]        (continue the store's unsealed campaign;
                                       needs --store, same settings)
  libspector live   --apps N [--seed S] [--events E] [--workers W]
                    [--shards K] [--batch-events B] [--snapshot-every N]
                    [--method-scale F] [--modern-fraction F]
                    [--sample-rate F] [--trace-budget N [--trace-budget-window MICROS]]
                    [--metrics FILE] [--store DIR] [--store-seal-every N]
  libspector query  --store DIR [--campaign N | --campaigns N1,N2,...]
                    [--report] [--top N] [--metrics FILE]
                    (--report prints the stored campaign's standard report,
                     byte-identical to what `run` printed; integrity counts
                     — ok/rejected/orphaned/unsealed — go to stderr)
  libspector metrics --file FILE [--prometheus]  (per-stage profile table)
  libspector sweep  --apps N [--seed S] --events E1,E2,...
  libspector baseline --store DIR [--campaign N]   (DNS-only classifier comparison)
  libspector policy   --store DIR [--campaign N] [--min-mb F]
                      (blacklist suggestion + what-if)
  libspector export   --store DIR [--campaign N] --out DIR  (CSV per table/figure)
  libspector shapes   --store DIR [--campaign N]   (check paper shapes)
                    (these read one stored campaign: --campaign N, or the
                     store's only campaign)
  libspector detect-quality [--apps N] [--seed S] [--method-scale F]
                    [--obf-seed S]   (cascade precision/recall per obfuscation level)
";

/// The flags one subcommand invocation gave: exactly the flags its
/// `USAGE` lines list, each value flag with its value.
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Flags {
    /// Reads `args` as `command`'s flags: the value flags `values`
    /// (each followed by its value) and the boolean flags `switches`.
    /// Any other token, or a value flag without its value, is an error
    /// that names it.
    fn parse(
        command: &str,
        args: &[String],
        values: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut tokens = args.iter();
        while let Some(token) = tokens.next() {
            if let Some(&name) = switches.iter().find(|&&name| name == token) {
                flags.switches.push(name);
            } else if let Some(&name) = values.iter().find(|&&name| name == token) {
                match tokens.next() {
                    Some(value) if !value.starts_with("--") => {
                        flags.values.push((name, value.clone()));
                    }
                    _ => return Err(format!("{command}: {name} needs a value")),
                }
            } else {
                return Err(format!(
                    "{command}: unknown flag {token:?} (see libspector --help)"
                ));
            }
        }
        Ok(flags)
    }

    /// The value of flag `name`, if given (the first, if repeated).
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| value.as_str())
    }

    /// The value of flag `name` parsed, or `default` when not given.
    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for {name}")),
        }
    }

    /// Whether the boolean flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }
}

/// Parses the shared sampling/budget flags. The inclusion seed is
/// derived from the campaign seed so reruns are reproducible, but
/// offset so changing the rate never perturbs the monkey workload.
fn parse_sampling(flags: &Flags, seed: u64) -> Result<SamplingConfig, String> {
    let rate: f64 = flags.parse_or("--sample-rate", 1.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--sample-rate {rate} outside [0, 1]"));
    }
    let budget: Option<u64> = flags
        .value("--trace-budget")
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value {raw:?} for --trace-budget"))
        })
        .transpose()?;
    let window_micros: u64 = flags.parse_or("--trace-budget-window", 0)?;
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

/// Generates the corpus and scans it for the knowledge base, timing
/// each as one call of its stage span (`corpus/generate`,
/// `knowledge/from_corpus`) in `telemetry`.
fn build_corpus(
    apps: usize,
    seed: u64,
    method_scale: f64,
    modern_fraction: f64,
    telemetry: &Telemetry,
) -> (Corpus, Knowledge) {
    eprintln!("generating corpus: {apps} apps, seed {seed}");
    let corpus = telemetry.stage_recorder("corpus/generate").time(|| {
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
    });
    eprintln!("scanning corpus (LibRadar aggregate + domain labels)");
    let knowledge = telemetry
        .stage_recorder("knowledge/from_corpus")
        .time(|| Knowledge::from_corpus(&corpus));
    (corpus, knowledge)
}

/// Opens `dir` as a store for this invocation's campaign. `run`
/// passes its fingerprint and `--resume` (`resumable`); `live`
/// campaigns record no fingerprint and always start fresh.
fn open_store_writer(
    dir: &str,
    meta: &CampaignMeta,
    resumable: Option<(&CampaignFingerprint, bool)>,
    seal_every: usize,
    telemetry: &Telemetry,
) -> Result<Mutex<StoreWriter>, String> {
    let options = StoreOptions {
        seal_every,
        telemetry: StoreTelemetry::new(telemetry),
    };
    let writer = match resumable {
        Some((fingerprint, resume)) => {
            StoreWriter::open(Path::new(dir), meta, fingerprint, resume, options)
        }
        None => StoreWriter::create(Path::new(dir), meta, options),
    }
    .map_err(|e| format!("opening store {dir}: {e}"))?;
    eprintln!("store: writing campaign {} to {dir}", writer.campaign_id());
    Ok(Mutex::new(writer))
}

/// Seals the store campaign, preserving the failure ledger.
fn seal_store(
    writer: Mutex<StoreWriter>,
    meta: &CampaignMeta,
    failures: &[AppFailure],
) -> Result<(), String> {
    let seal = CampaignSealRecord {
        seed: meta.seed,
        apps: meta.apps,
        monkey_events: meta.monkey_events,
        failures: failures.to_vec(),
    };
    writer
        .into_inner()
        .expect("store writer poisoned")
        .finish(&seal)
        .map_err(|e| format!("sealing store campaign: {e}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "run",
        args,
        &[
            "--apps",
            "--seed",
            "--events",
            "--workers",
            "--method-scale",
            "--modern-fraction",
            "--chaos",
            "--chaos-seed",
            "--max-failures",
            "--sample-rate",
            "--trace-budget",
            "--trace-budget-window",
            "--metrics",
            "--store",
            "--store-seal-every",
        ],
        &["--resume"],
    )?;
    let apps: usize = flags.parse_or("--apps", 100)?;
    let seed: u64 = flags.parse_or("--seed", 42)?;
    let events: u32 = flags.parse_or("--events", 1_000)?;
    let workers: usize = flags.parse_or("--workers", 0)?;
    let method_scale: f64 = flags.parse_or("--method-scale", 0.02)?;
    let modern_fraction: f64 = flags.parse_or("--modern-fraction", 0.0)?;
    let chaos_profile: FaultProfile = flags.parse_or("--chaos", FaultProfile::none())?;
    let chaos_seed: u64 = flags.parse_or("--chaos-seed", seed)?;
    let max_failures: usize = flags.parse_or("--max-failures", 0)?;
    let metrics_out = flags.value("--metrics");
    let store_dir = flags.value("--store");
    let seal_every: usize = flags.parse_or("--store-seal-every", DEFAULT_SEAL_EVERY)?;
    let resume = flags.has("--resume");
    if resume && store_dir.is_none() {
        return Err(
            "--resume needs --store DIR (it continues that store's unsealed campaign)".into(),
        );
    }
    let sampling = parse_sampling(&flags, seed)?;

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
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let config = CampaignConfig {
        dispatch,
        chaos,
        retry: if chaos.is_some() {
            RetryPolicy::default()
        } else {
            RetryPolicy::never()
        },
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let meta = CampaignMeta {
        seed,
        apps,
        monkey_events: events as usize,
        kind: CampaignKind::Run,
    };
    // The store opens before the corpus is built, so a refused resume
    // costs nothing.
    let store = store_dir
        .map(|dir| {
            let fingerprint = config.fingerprint(apps);
            open_store_writer(
                dir,
                &meta,
                Some((&fingerprint, resume)),
                seal_every,
                &telemetry,
            )
        })
        .transpose()?;

    let (corpus, knowledge) = build_corpus(apps, seed, method_scale, modern_fraction, &telemetry);
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
    .map_err(|e| format!("campaign store i/o: {e}"))?;
    if let Some(writer) = store {
        seal_store(writer, &meta, &outcome.failures)?;
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
    if let Some(path) = metrics_out {
        write_metrics(&telemetry.snapshot(), path)?;
    }
    println!("{}", FullReport::build(&outcome.analyses).render());
    if outcome.failures.len() > max_failures {
        return Err(format!(
            "{} app(s) failed, exceeding --max-failures {max_failures}",
            outcome.failures.len()
        ));
    }
    Ok(())
}

fn cmd_live(args: &[String]) -> Result<(), String> {
    use spector_live::{LiveConfig, LiveEngine, LiveSummary};

    let flags = Flags::parse(
        "live",
        args,
        &[
            "--apps",
            "--seed",
            "--events",
            "--workers",
            "--shards",
            "--batch-events",
            "--snapshot-every",
            "--method-scale",
            "--modern-fraction",
            "--sample-rate",
            "--trace-budget",
            "--trace-budget-window",
            "--metrics",
            "--store",
            "--store-seal-every",
        ],
        &[],
    )?;
    let apps: usize = flags.parse_or("--apps", 50)?;
    let seed: u64 = flags.parse_or("--seed", 42)?;
    let events: u32 = flags.parse_or("--events", 500)?;
    let workers: usize = flags.parse_or("--workers", 0)?;
    let shards: usize = flags.parse_or("--shards", 2)?;
    let batch_events: usize = flags.parse_or("--batch-events", 64)?;
    let method_scale: f64 = flags.parse_or("--method-scale", 0.02)?;
    let modern_fraction: f64 = flags.parse_or("--modern-fraction", 0.0)?;
    let snapshot_every: usize = flags.parse_or("--snapshot-every", 10)?;
    let metrics_out = flags.value("--metrics");
    let store_dir = flags.value("--store");
    let seal_every: usize = flags.parse_or("--store-seal-every", DEFAULT_SEAL_EVERY)?;
    let sampling = parse_sampling(&flags, seed)?;

    let telemetry = if metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (corpus, knowledge) = build_corpus(apps, seed, method_scale, modern_fraction, &telemetry);
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

    let meta = CampaignMeta {
        seed,
        apps,
        monkey_events: events as usize,
        kind: CampaignKind::Live,
    };
    let store = store_dir
        .map(|dir| open_store_writer(dir, &meta, None, seal_every, &telemetry))
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
            eprintln!(
                "  [{done}/{apps}] {}",
                spector_analysis::live::brief(&live.snapshot())
            );
        }
    };
    // Dispatch telemetry stays default so the metrics snapshot remains
    // the live engine's alone.
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
        seal_store(writer, &meta, &outcome.failures)?;
    }
    let (live, live_metrics) = live.finish_with_metrics();
    if let Some(path) = metrics_out {
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

/// Opens `--store DIR` for reading and reports on stderr what open
/// found: rejected segments, orphans, unsealed campaigns.
fn open_store_reader(flags: &Flags, telemetry: &Telemetry) -> Result<StoreReader, String> {
    let dir = flags.value("--store").ok_or("missing --store DIR")?;
    let reader = StoreReader::open_with(Path::new(dir), StoreTelemetry::new(telemetry))
        .map_err(|e| format!("opening store {dir}: {e}"))?;
    let integrity = reader.integrity();
    for (file, kind) in &integrity.rejected {
        eprintln!("warning: rejected segment {file}: {}", kind.label());
    }
    eprintln!(
        "store integrity: {} segment(s) ok, {} rejected, {} orphaned, {} unsealed campaign(s)",
        integrity.segments_ok,
        integrity.rejected.len(),
        integrity.orphaned_segments,
        integrity.unsealed_campaigns,
    );
    Ok(reader)
}

/// The campaigns `--campaign N` or `--campaigns N1,N2,...` select, or
/// `None` for neither. An id the manifest does not list is an error,
/// never an empty answer.
fn selected_campaigns(flags: &Flags, reader: &StoreReader) -> Result<Option<Vec<u32>>, String> {
    let ids: Vec<u32> = match (flags.value("--campaign"), flags.value("--campaigns")) {
        (None, None) => return Ok(None),
        (Some(_), Some(_)) => {
            return Err("--campaign and --campaigns are mutually exclusive".into());
        }
        (Some(raw), None) => vec![raw
            .parse()
            .map_err(|_| format!("invalid value {raw:?} for --campaign"))?],
        (None, Some(raw)) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad campaign id {s:?}"))
            })
            .collect::<Result<_, String>>()?,
    };
    let listed: Vec<u32> = reader.campaigns().iter().map(|c| c.id).collect();
    if let Some(unknown) = ids.iter().find(|id| !listed.contains(id)) {
        return Err(format!(
            "store holds no campaign {unknown} (it lists {listed:?})"
        ));
    }
    Ok(Some(ids))
}

/// The one campaign a command reads: the selected one, or the store's
/// only campaign.
fn one_campaign(flags: &Flags, reader: &StoreReader) -> Result<u32, String> {
    match selected_campaigns(flags, reader)?.as_deref() {
        Some([id]) => Ok(*id),
        Some(_) => Err("this command reads exactly one campaign".into()),
        None => match reader.campaigns() {
            [only] => Ok(only.id),
            [] => Err("store holds no campaigns".into()),
            _ => Err("store holds several campaigns; pick one with --campaign N".into()),
        },
    }
}

/// The analyses of the one campaign `--store DIR [--campaign N]`
/// selects, in corpus order.
fn stored_analyses(flags: &Flags) -> Result<Vec<AppAnalysis>, String> {
    let reader = open_store_reader(flags, &Telemetry::disabled())?;
    let id = one_campaign(flags, &reader)?;
    Ok(reader.campaign_analyses(id))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "query",
        args,
        &["--store", "--campaign", "--campaigns", "--top", "--metrics"],
        &["--report"],
    )?;
    let top: usize = flags.parse_or("--top", spector_analysis::storeq::DEFAULT_TOP)?;
    let report = flags.has("--report");
    let metrics_out = flags.value("--metrics");

    let telemetry = if metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let reader = open_store_reader(&flags, &telemetry)?;
    if report {
        // The stored campaign's standard report: byte-identical to the
        // stdout `libspector run` produced for the same campaign.
        let id = one_campaign(&flags, &reader)?;
        let full = spector_analysis::storeq::report_from_store(&reader, id);
        println!("{}", full.render());
    } else {
        let campaigns = selected_campaigns(&flags, &reader)?;
        let stats = spector_analysis::storeq::compute(&reader, campaigns.as_deref());
        print!("{}", spector_analysis::storeq::render(&stats, top));
    }
    if let Some(path) = metrics_out {
        write_metrics(&telemetry.snapshot(), path)?;
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("metrics", args, &["--file"], &["--prometheus"])?;
    let path = flags
        .value("--file")
        .ok_or("missing --file FILE (a --metrics JSON snapshot)")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snapshot: spector_telemetry::MetricsSnapshot =
        serde_json::from_str(&raw).map_err(|e| format!("parsing {path}: {e}"))?;
    if flags.has("--prometheus") {
        print!("{}", spector_telemetry::render_prometheus(&snapshot));
    } else {
        print!("{}", spector_analysis::profile::render_profile(&snapshot));
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("sweep", args, &["--apps", "--seed", "--events"], &[])?;
    let apps: usize = flags.parse_or("--apps", 50)?;
    let seed: u64 = flags.parse_or("--seed", 42)?;
    let raw_events = flags.value("--events").unwrap_or("10,100,500,1000");
    let budgets: Vec<u32> = raw_events
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad event count {s:?}"))
        })
        .collect::<Result<_, _>>()?;

    let (corpus, knowledge) = build_corpus(apps, seed, 0.02, 0.0, &Telemetry::disabled());
    println!(
        "{:>8} {:>14} {:>12}",
        "events", "mean coverage", "mean MB/app"
    );
    for &events in &budgets {
        let mut dispatch = DispatchConfig::default();
        dispatch.experiment.monkey.events = events;
        dispatch.experiment.monkey.seed = seed;
        let config = CampaignConfig {
            dispatch,
            ..Default::default()
        };
        let outcome = run_campaign(&corpus, &knowledge, &config, None, None)
            .map_err(|e| format!("campaign: {e}"))?;
        let report = FullReport::build(&outcome.analyses);
        let mb = report.headline.total_bytes as f64 / 1_048_576.0 / apps.max(1) as f64;
        println!(
            "{events:>8} {:>13.2}% {mb:>12.3}",
            report.fig10.mean_coverage_percent
        );
    }
    Ok(())
}

fn cmd_baseline(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("baseline", args, &["--store", "--campaign"], &[])?;
    let comparison = libspector::baseline::compare(&stored_analyses(&flags)?);
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
    let flags = Flags::parse("policy", args, &["--store", "--campaign", "--min-mb"], &[])?;
    let min_mb: f64 = flags.parse_or("--min-mb", 0.5)?;
    let analyses = stored_analyses(&flags)?;
    let suggestions = suggest_blacklist(&analyses, (min_mb * 1_048_576.0) as u64);
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
    let report = apply(&policy, &analyses);
    println!(
        "what-if: block {} of {} flows, {:.2} MB; {} apps fully silenced; saves ${:.3}/hour per app",
        report.blocked_flows,
        report.flows,
        report.blocked_bytes as f64 / 1_048_576.0,
        report.fully_blocked_apps,
        report.hourly_savings_usd(&libspector::cost::DataPlan::default(), analyses.len()),
    );
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("export", args, &["--store", "--campaign", "--out"], &[])?;
    let out = flags.value("--out").ok_or("missing --out DIR")?;
    let report = FullReport::build(&stored_analyses(&flags)?);
    let written = spector_analysis::export::export_all(&report, &PathBuf::from(out))
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

    let flags = Flags::parse(
        "detect-quality",
        args,
        &["--apps", "--seed", "--method-scale", "--obf-seed"],
        &[],
    )?;
    let defaults = DetectQualityConfig::default();
    let config = DetectQualityConfig {
        apps: flags.parse_or("--apps", defaults.apps)?,
        seed: flags.parse_or("--seed", defaults.seed)?,
        method_scale: flags.parse_or("--method-scale", defaults.method_scale)?,
        obfuscation_seed: flags.parse_or("--obf-seed", defaults.obfuscation_seed)?,
    };
    eprintln!(
        "grading detection cascade: {} apps per obfuscation level, seed {}",
        config.apps, config.seed
    );
    print!("{}", render(&evaluate(&config)));
    Ok(())
}

fn cmd_shapes(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("shapes", args, &["--store", "--campaign"], &[])?;
    let report = FullReport::build(&stored_analyses(&flags)?);
    let checks = spector_analysis::paper::compare_to_paper(&report);
    print!("{}", spector_analysis::paper::render_checks(&checks));
    let holding = checks.iter().filter(|c| c.holds).count();
    if holding < checks.len() {
        return Err(format!("{} shape(s) out of band", checks.len() - holding));
    }
    Ok(())
}
