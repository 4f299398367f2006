//! End-to-end CLI tests: shell out to the built `libspector` binary
//! and assert on exit codes, stderr diagnostics, and the artifacts it
//! writes — the metrics JSON/Prometheus pair, the store a run writes
//! (and resumes after a SIGKILL), the subcommands that read it back,
//! and the `metrics` subcommand's profile table.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use spector_store::{CampaignEntry, CampaignKind, Manifest, StoreReader, MANIFEST_FILE};
use spector_telemetry::{MetricKey, MetricsSnapshot};

fn libspector(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_libspector"))
        .args(args)
        .output()
        .expect("spawn libspector")
}

/// Per-test scratch directory under the target-adjacent temp root.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("libspector-e2e-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn help_succeeds_and_unknown_command_fails() {
    let help = libspector(&["--help"]);
    assert!(help.status.success());
    assert!(stdout_of(&help).contains("libspector run"));

    let unknown = libspector(&["frobnicate"]);
    assert!(!unknown.status.success());
    assert!(stderr_of(&unknown).contains("unknown command"));

    let bare = libspector(&[]);
    assert!(!bare.status.success());
}

#[test]
fn run_rejects_unknown_flags_and_missing_values() {
    // `run` has no --obfuscation; a misspelt flag must not fall back
    // to a default either.
    for (args, named) in [
        (
            &["run", "--apps", "2", "--obfuscation", "mangle"][..],
            "--obfuscation",
        ),
        (&["run", "--apps", "2", "--evnets", "5"][..], "--evnets"),
        (&["run", "--apps", "2", "stray"][..], "stray"),
    ] {
        let output = libspector(args);
        assert!(!output.status.success(), "{args:?} succeeded");
        let stderr = stderr_of(&output);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stdout_of(&output).is_empty(), "{args:?} printed a report");
    }
    // A value flag given last, or followed by another flag, has no
    // value.
    for args in [
        &["run", "--seed", "5", "--apps"][..],
        &["run", "--apps", "--seed", "5"][..],
    ] {
        let output = libspector(args);
        assert!(!output.status.success(), "{args:?} succeeded");
        let stderr = stderr_of(&output);
        assert!(
            stderr.contains("--apps needs a value"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn chaos_run_with_checkpoint_and_metrics_balances() {
    let dir = scratch("chaos-metrics");
    let store = dir.join("store");
    let metrics = dir.join("metrics.json");
    // The store's sealed segments are the checkpoint; `--resume` on a
    // store with nothing unsealed starts a fresh campaign.
    let output = libspector(&[
        "run",
        "--apps",
        "6",
        "--seed",
        "91",
        "--events",
        "80",
        "--workers",
        "2",
        "--method-scale",
        "0.006",
        "--chaos",
        "light",
        "--store",
        store.to_str().unwrap(),
        "--store-seal-every",
        "2",
        "--resume",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "run failed:\n{}",
        stderr_of(&output)
    );
    // The run prints the full evaluation report.
    let stdout = stdout_of(&output);
    assert!(stdout.contains("Headline"), "report missing from stdout");

    // The metrics JSON parses back into a snapshot...
    let raw = std::fs::read_to_string(&metrics).expect("metrics JSON written");
    let snapshot: MetricsSnapshot = serde_json::from_str(&raw).expect("metrics JSON parses");

    // ...and its pipeline counters balance exactly: every decoded
    // report is attributed, a duplicate, or flow-less — nothing is
    // silently dropped.
    let reports = counter(&snapshot, "spector_pipeline_reports_total");
    let attributed = counter(&snapshot, "spector_pipeline_flows_attributed_total");
    let duplicates = counter(&snapshot, "spector_pipeline_duplicate_reports_total");
    let orphans = counter(&snapshot, "spector_pipeline_reports_without_flow_total");
    assert!(reports > 0, "campaign produced no reports");
    assert_eq!(
        reports,
        attributed + duplicates + orphans,
        "pipeline join balance violated"
    );

    // Stage histograms rode along with sane call counts: corpus
    // generation and the knowledge build are one call each.
    assert!(snapshot
        .histograms
        .keys()
        .any(|k| MetricKey::parse(k).name == "spector_stage_micros"));
    for stage in ["corpus/generate", "knowledge/from_corpus"] {
        let calls = MetricKey::labeled("spector_stage_micros_calls_total", "stage", stage);
        assert_eq!(counter(&snapshot, &calls.render()), 1, "{stage}");
        let micros = MetricKey::labeled("spector_stage_micros", "stage", stage).render();
        assert!(snapshot.histograms.contains_key(&micros), "{stage}");
    }

    // The Prometheus twin exists and is well-formed text exposition.
    let prom =
        std::fs::read_to_string(format!("{}.prom", metrics.display())).expect(".prom written");
    assert!(prom.contains("# TYPE spector_pipeline_reports_total counter"));
    assert!(prom.contains("le=\"+Inf\""));

    // Every stored analysis landed in one sealed campaign.
    let reader = StoreReader::open(&store).expect("store written");
    assert_eq!(reader.campaigns().len(), 1);
    assert!(reader.campaigns()[0].sealed);
    assert_eq!(
        counter(&snapshot, "spector_store_analyses_appended_total"),
        counter(&snapshot, "spector_campaign_apps_ok_total")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-safety proof on a real process: SIGKILL `run --store`
/// between two seals, refuse a resume under foreign settings, then
/// resume and seal the same campaign — whose report is byte-identical
/// to an uninterrupted run's.
#[cfg(unix)]
#[test]
fn killed_run_resumes_into_one_sealed_campaign() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = scratch("sigkill");
    let store = dir.join("store");
    let campaign: Vec<&str> =
        "run --apps 16 --seed 57 --events 80 --method-scale 0.006 --chaos light"
            .split(' ')
            .collect();
    let uninterrupted = libspector(&campaign);
    assert!(
        uninterrupted.status.success(),
        "{}",
        stderr_of(&uninterrupted)
    );

    // One worker and a seal per analysis: many seals to land between.
    let mut stored = campaign.clone();
    stored.extend([
        "--store",
        store.to_str().unwrap(),
        "--store-seal-every",
        "1",
    ]);
    let mut victim = stored.clone();
    victim.extend(["--workers", "1"]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_libspector"))
        .args(&victim)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn libspector run");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if let Some(status) = child.try_wait().expect("poll run") {
            panic!("run exited ({status}) before it could be killed mid-campaign");
        }
        if let Ok(manifest) = Manifest::load(&store) {
            let sealed = manifest.campaigns.first().is_some_and(|c| c.sealed);
            if !sealed && manifest.segments.iter().any(|s| s.campaign == 0) {
                break;
            }
        }
        assert!(Instant::now() < deadline, "no segment sealed in time");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL run");
    let status = child.wait().expect("reap run");
    assert_eq!(status.signal(), Some(9), "run finished instead: {status}");
    let killed = Manifest::load(&store).expect("manifest survives the kill");
    assert!(
        !killed.campaigns[0].sealed,
        "the kill must land before the seal"
    );

    // Foreign settings: refused before anything is written.
    let manifest_bytes = std::fs::read(store.join(MANIFEST_FILE)).unwrap();
    let mut foreign = stored.clone();
    foreign.extend(["--chaos-seed", "58", "--resume"]);
    let refused = libspector(&foreign);
    assert!(!refused.status.success(), "a foreign resume must fail");
    assert!(
        stderr_of(&refused).contains("fingerprint mismatch"),
        "unexpected stderr: {}",
        stderr_of(&refused)
    );
    assert_eq!(
        std::fs::read(store.join(MANIFEST_FILE)).unwrap(),
        manifest_bytes
    );

    // The real resume continues and seals that same campaign.
    let mut resume = stored.clone();
    resume.push("--resume");
    let resumed = libspector(&resume);
    assert!(resumed.status.success(), "{}", stderr_of(&resumed));
    let manifest = Manifest::load(&store).expect("manifest after resume");
    assert_eq!(manifest.campaigns.len(), 1, "no second campaign");
    assert!(manifest.campaigns[0].sealed);
    let query = libspector(&["query", "--store", store.to_str().unwrap(), "--report"]);
    assert!(query.status.success(), "{}", stderr_of(&query));
    assert_eq!(
        stdout_of(&query),
        stdout_of(&uninterrupted),
        "the resumed campaign must report exactly what an uninterrupted run printed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One small stored campaign, written once by `run --store`.
fn stored_campaign() -> &'static Path {
    static STORE: OnceLock<PathBuf> = OnceLock::new();
    STORE.get_or_init(|| {
        let store = scratch("readers").join("store");
        let mut args: Vec<&str> = "run --apps 8 --seed 19 --events 80 --method-scale 0.006"
            .split(' ')
            .collect();
        args.extend(["--store", store.to_str().unwrap()]);
        let run = libspector(&args);
        assert!(run.status.success(), "{}", stderr_of(&run));
        store
    })
}

#[test]
fn store_reading_subcommands_answer_from_the_store() {
    let store = stored_campaign().to_str().unwrap();
    let baseline = libspector(&["baseline", "--store", store]);
    assert!(baseline.status.success(), "{}", stderr_of(&baseline));
    assert!(stdout_of(&baseline).contains("DNS-only baseline"));

    let policy = libspector(&["policy", "--store", store, "--campaign", "0"]);
    assert!(policy.status.success(), "{}", stderr_of(&policy));

    let csv = scratch("export-csv");
    let export = libspector(&["export", "--store", store, "--out", csv.to_str().unwrap()]);
    assert!(export.status.success(), "{}", stderr_of(&export));
    for table in ["table1.csv", "fig2.csv", "fig10.csv"] {
        let text = std::fs::read_to_string(csv.join(table)).expect("CSV written");
        assert!(text.lines().count() > 1, "{table} has no rows");
    }

    // `shapes` renders every check, and its exit status is its verdict:
    // at this toy scale a band may legitimately miss.
    let shapes = libspector(&["shapes", "--store", store]);
    let table = stdout_of(&shapes);
    let verdict = table.lines().last().expect("shapes prints a verdict");
    assert!(verdict.ends_with("shapes hold"), "{table}");
    let (held, total) = verdict
        .trim_end_matches(" shapes hold")
        .split_once('/')
        .expect("N/M verdict");
    assert_eq!(shapes.status.success(), held == total, "{table}");
    if !shapes.status.success() {
        assert!(stderr_of(&shapes).contains("out of band"));
    }
    let _ = std::fs::remove_dir_all(&csv);
}

/// A store whose manifest lists `campaigns` sealed, empty campaigns.
fn store_of_empty_campaigns(test: &str, campaigns: u32) -> PathBuf {
    let store = scratch(test);
    let mut manifest = Manifest::new();
    for id in 0..campaigns {
        manifest.campaigns.push(CampaignEntry {
            id,
            seed: 0,
            apps: 0,
            monkey_events: 0,
            kind: CampaignKind::Run,
            sealed: true,
            fingerprint: None,
        });
    }
    manifest.save(&store).unwrap();
    store
}

#[test]
fn campaign_selector_refuses_unknown_and_ambiguous_ids() {
    let one = stored_campaign().to_str().unwrap();
    // An id the manifest does not list is an error, not an empty answer.
    for args in [
        vec!["query", "--store", one, "--report", "--campaign", "7"],
        vec!["query", "--store", one, "--campaigns", "7"],
        vec!["query", "--store", one, "--campaigns", "0,7"],
        vec!["baseline", "--store", one, "--campaign", "7"],
    ] {
        let output = libspector(&args);
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(stderr_of(&output).contains("no campaign 7"), "{args:?}");
    }

    let empty = store_of_empty_campaigns("selector-empty", 0);
    let output = libspector(&["shapes", "--store", empty.to_str().unwrap()]);
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("holds no campaigns"));

    let several = store_of_empty_campaigns("selector-several", 2);
    let several_dir = several.to_str().unwrap();
    let output = libspector(&["query", "--store", several_dir, "--report"]);
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("store holds several"));
    let output = libspector(&["baseline", "--store", several_dir, "--campaign", "1"]);
    assert!(output.status.success(), "{}", stderr_of(&output));
    let _ = std::fs::remove_dir_all(&empty);
    let _ = std::fs::remove_dir_all(&several);
}

#[test]
fn metrics_subcommand_renders_profile_and_prometheus() {
    let dir = scratch("metrics-cmd");
    let metrics = dir.join("metrics.json");
    let run = libspector(&[
        "run",
        "--apps",
        "3",
        "--seed",
        "14",
        "--events",
        "60",
        "--method-scale",
        "0.006",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", stderr_of(&run));

    let table = libspector(&["metrics", "--file", metrics.to_str().unwrap()]);
    assert!(table.status.success(), "{}", stderr_of(&table));
    let text = stdout_of(&table);
    assert!(text.contains("== Stage profile =="));
    assert!(text.contains("pipeline/flow_join"));
    assert!(text.contains("spector_campaign_apps_ok_total"));

    let prom = libspector(&[
        "metrics",
        "--file",
        metrics.to_str().unwrap(),
        "--prometheus",
    ]);
    assert!(prom.status.success());
    assert!(stdout_of(&prom).contains("# TYPE"));

    // Missing --file and unreadable files are clean failures.
    let missing = libspector(&["metrics"]);
    assert!(!missing.status.success());
    let bogus = libspector(&["metrics", "--file", "/nonexistent/metrics.json"]);
    assert!(!bogus.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The block of `text` that starts at the line beginning with `start`
/// and runs through the next blank line.
fn block<'a>(text: &'a str, start: &str) -> &'a str {
    let from = text
        .find(&format!("\n{start}"))
        .unwrap_or_else(|| panic!("no {start:?} block in:\n{text}"))
        + 1;
    let len = text[from..]
        .find("\n\n")
        .expect("block ends in a blank line")
        + 2;
    &text[from..from + len]
}

#[test]
fn live_mode_writes_a_merged_shard_snapshot() {
    let dir = scratch("live-metrics");
    let metrics = dir.join("live.json");
    let store = dir.join("store");
    let output = libspector(&[
        "live",
        "--apps",
        "4",
        "--seed",
        "23",
        "--events",
        "60",
        "--method-scale",
        "0.006",
        "--shards",
        "2",
        "--metrics",
        metrics.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr_of(&output));
    let raw = std::fs::read_to_string(&metrics).expect("live metrics written");
    let snapshot: MetricsSnapshot = serde_json::from_str(&raw).expect("live metrics parse");
    let events = counter(&snapshot, "spector_live_events_total");
    let tcp = counter(&snapshot, "spector_live_tcp_events_total");
    let dns = counter(&snapshot, "spector_live_dns_events_total");
    let reports = counter(&snapshot, "spector_live_report_events_total");
    assert!(events > 0, "no live events recorded");
    assert_eq!(
        events,
        tcp + dns + reports,
        "shard-merged event counters must cover the ingress total"
    );
    assert_eq!(counter(&snapshot, "spector_live_dropped_events_total"), 0);

    // The live summary and a query of the store it wrote render the
    // same traffic through one renderer: the totals line and both
    // volume tables reappear byte for byte.
    let query = libspector(&["query", "--store", store.to_str().unwrap()]);
    assert!(query.status.success(), "{}", stderr_of(&query));
    let live = stdout_of(&output);
    let queried = stdout_of(&query);
    for start in [
        "  sent ",
        "== per origin-library (top 20 by volume) ==",
        "== per domain category (top 20 by volume) ==",
    ] {
        let shared = block(&live, start);
        assert!(
            queried.contains(shared),
            "query output lacks live's block:\n{shared}\nquery printed:\n{queried}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
