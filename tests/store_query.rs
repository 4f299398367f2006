//! The store-backed query wall: a campaign written through
//! `spector-store` must answer queries **byte-identically** to the
//! in-memory pipeline that produced it.
//!
//! The anchor fixture is the 400-app benchmark campaign
//! (`seed 7_778`, 60 monkey events, `method_scale 0.004`): one
//! deterministic run, stored once, then attacked from every angle —
//! the golden report snapshot, the columnar query totals and traffic
//! summary, torn segments, and a fresh `libspector query` process
//! against a store the `run` subcommand wrote.
//!
//! Regenerate the golden after an intentional renderer change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p spector-cli --test store_query
//! ```

use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, OnceLock};

use libspector::knowledge::Knowledge;
use libspector::pipeline::AppAnalysis;
use spector_analysis::{storeq, FullReport};
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_dispatch::{run_campaign_stored, CampaignConfig, DispatchConfig};
use spector_live::LiveSummary;
use spector_store::{
    CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreReader, StoreWriter,
};

/// The stored 400-app fixture campaign: in-memory analyses plus the
/// store directory they were appended to, built exactly once.
struct Fixture {
    analyses: Vec<AppAnalysis>,
    dir: PathBuf,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let apps = 400;
        let seed = 7_778;
        let corpus = Corpus::generate(&CorpusConfig {
            apps,
            seed,
            appgen: AppGenConfig {
                method_scale: 0.004,
                ..Default::default()
            },
            ..Default::default()
        });
        let knowledge = Knowledge::from_corpus(&corpus);
        let mut dispatch = DispatchConfig {
            workers: 2,
            ..Default::default()
        };
        dispatch.experiment.monkey.events = 60;
        dispatch.experiment.monkey.seed = seed;
        let config = CampaignConfig {
            dispatch,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!("spector-store-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = CampaignMeta {
            seed,
            apps,
            monkey_events: 60,
            kind: CampaignKind::Run,
        };
        let writer = Mutex::new(
            StoreWriter::create(&dir, &meta, StoreOptions::default()).expect("store opens"),
        );
        let outcome = run_campaign_stored(&corpus, &knowledge, &config, None, None, Some(&writer))
            .expect("fixture campaign runs");
        writer
            .into_inner()
            .unwrap()
            .finish(&CampaignSealRecord {
                seed,
                apps,
                monkey_events: 60,
                failures: vec![],
            })
            .expect("fixture campaign seals");
        assert_eq!(outcome.analyses.len(), apps, "fixture must not lose apps");
        Fixture {
            analyses: outcome.analyses,
            dir,
        }
    })
}

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/query_report.txt"
    ))
}

fn update_requested() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The tentpole identity, pinned three ways at once: the store-backed
/// report equals the in-memory report byte-for-byte, and both equal
/// the checked-in golden snapshot.
#[test]
fn stored_report_is_byte_identical_to_in_memory_and_golden() {
    let fixture = fixture();
    let reader = StoreReader::open(&fixture.dir).expect("store reads back");
    assert_eq!(reader.integrity().rejected.len(), 0);
    assert_eq!(reader.integrity().unsealed_campaigns, 0);

    let stored = storeq::report_from_store(&reader, 0).render();
    let in_memory = FullReport::build(&fixture.analyses).render();
    assert_eq!(
        stored, in_memory,
        "store round-trip must not change a single report byte"
    );

    let path = golden_path();
    if update_requested() {
        std::fs::write(&path, &stored).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("tests/golden/query_report.txt (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        golden, stored,
        "query_report: stored report differs from golden \
         (regenerate with UPDATE_GOLDEN=1 if intentional)"
    );
}

/// The columnar scan (no materialization) agrees with the analyses on
/// every conserved quantity.
#[test]
fn columnar_query_conserves_campaign_totals() {
    let fixture = fixture();
    let reader = StoreReader::open(&fixture.dir).expect("store reads back");
    let stats = storeq::compute(&reader, None);

    assert_eq!(stats.apps as usize, fixture.analyses.len());
    let flows: usize = fixture.analyses.iter().map(|a| a.flows.len()).sum();
    assert_eq!(stats.summary.flows, flows);
    let sent: u64 = fixture
        .analyses
        .iter()
        .flat_map(|a| &a.flows)
        .map(|f| f.sent_bytes)
        .sum();
    let recv: u64 = fixture
        .analyses
        .iter()
        .flat_map(|a| &a.flows)
        .map(|f| f.recv_bytes)
        .sum();
    assert_eq!(stats.summary.total_sent, sent);
    assert_eq!(stats.summary.total_recv, recv);
    // Every per-bucket view conserves the same byte total.
    for (label, buckets) in [
        ("per_library", &stats.summary.per_library),
        ("per_domain", &stats.per_domain),
        ("per_domain_category", &stats.summary.per_domain_category),
        ("per_lib_category", &stats.per_lib_category),
    ] {
        let total: u64 = buckets.values().map(|v| v.total_bytes()).sum();
        assert_eq!(total, sent + recv, "{label} must conserve bytes");
    }
    let seal = reader.seal_record(0).expect("seal parses").expect("sealed");
    assert_eq!(seal.apps, 400);
    assert_eq!(seal.failures.len(), 0);
}

/// The scan folds its rows through the live engine's own fold, so its
/// summary is `LiveSummary::from_analyses` of the campaign — the value
/// a live run's `offline_view()` equals — as a whole struct.
#[test]
fn columnar_summary_is_the_live_fold_of_the_campaign() {
    let fixture = fixture();
    let reader = StoreReader::open(&fixture.dir).expect("store reads back");
    assert_eq!(
        storeq::compute(&reader, None).summary,
        LiveSummary::from_analyses(&fixture.analyses)
    );
}

/// Torn-write at campaign scale: truncating one sealed segment of a
/// *copy* of the store costs exactly that segment's rows — classified
/// and counted — while every other segment keeps answering.
#[test]
fn torn_segment_costs_only_its_own_rows() {
    let fixture = fixture();
    let dir = std::env::temp_dir().join(format!("spector-store-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create torn copy");
    for entry in std::fs::read_dir(&fixture.dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy store file");
    }

    let intact = StoreReader::open(&fixture.dir).expect("intact store opens");
    let victim_entry = intact.segments()[0].clone();
    let victim = dir.join(&victim_entry.file);
    let bytes = std::fs::read(&victim).expect("read victim segment");
    std::fs::write(&victim, &bytes[..bytes.len() / 3]).expect("tear victim segment");

    let reader = StoreReader::open(&dir).expect("torn store still opens");
    assert_eq!(
        reader.integrity().rejected.len(),
        1,
        "one counted rejection"
    );
    assert_eq!(reader.integrity().rejected[0].0, victim_entry.file);
    let survivors = reader.analyses(None);
    assert_eq!(
        survivors.len(),
        fixture.analyses.len() - victim_entry.analyses,
        "losses are exactly the torn segment's rows"
    );
    // The surviving rows are still byte-exact (appends are completion-
    // ordered, so the survivors are not contiguous — match by index).
    for stored in &survivors {
        assert_eq!(
            &stored.analysis,
            &fixture.analyses[stored.app_index as usize]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI shape, in miniature: `libspector run --store` in one
/// process, `libspector query --report` in a fresh process, stdout
/// compared byte-for-byte.
#[test]
fn fresh_process_query_matches_run_stdout() {
    let dir = std::env::temp_dir().join(format!("spector-store-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    let run = Command::new(env!("CARGO_BIN_EXE_libspector"))
        .args(["run", "--apps", "16", "--seed", "31", "--events", "80"])
        .args(["--method-scale", "0.006", "--store"])
        .arg(&store)
        .output()
        .expect("spawn libspector run");
    assert!(run.status.success(), "run --store must succeed");
    let query = Command::new(env!("CARGO_BIN_EXE_libspector"))
        .args(["query", "--report", "--store"])
        .arg(&store)
        .output()
        .expect("spawn libspector query");
    assert!(query.status.success(), "query --report must succeed");
    assert_eq!(
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&query.stdout),
        "a fresh process must reproduce the run's report exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
