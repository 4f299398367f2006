//! Golden-snapshot wall for the report renderer: every section of the
//! evaluation report is pinned byte-for-byte against a checked-in
//! snapshot under `tests/golden/`. Any formatting or aggregation
//! change must show up as a reviewed golden diff, never as silent
//! drift.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p spector-cli --test golden_render
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use libspector::knowledge::Knowledge;
use spector_analysis::render::{render_section, Section};
use spector_analysis::FullReport;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};

/// The fixture campaign every golden file is rendered from. Fully
/// deterministic: seeded corpus, seeded monkey, virtual clock.
fn report() -> &'static FullReport {
    static REPORT: OnceLock<FullReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 12,
            seed: 9_406,
            appgen: AppGenConfig {
                method_scale: 0.006,
                ..Default::default()
            },
            ..Default::default()
        });
        let knowledge = Knowledge::from_corpus(&corpus);
        let mut dispatch = DispatchConfig {
            workers: 2,
            ..Default::default()
        };
        dispatch.experiment.monkey.events = 120;
        dispatch.experiment.monkey.seed = 9_406;
        let config = CampaignConfig {
            dispatch,
            ..Default::default()
        };
        let analyses = run_campaign(&corpus, &knowledge, &config, None, None)
            .expect("a campaign without a store does no I/O")
            .analyses;
        assert_eq!(analyses.len(), 12, "fixture campaign must not lose apps");
        FullReport::build(&analyses)
    })
}

/// A second fixture with the modern socket shapes switched on (IPv6,
/// pooled streams, TLS-like framing, CONNECT tunnels) — the source of
/// `tests/golden/shape_mix.txt`. Kept separate so the legacy fixture
/// above (and every golden it feeds) stays byte-identical.
fn mixed_report() -> &'static FullReport {
    static REPORT: OnceLock<FullReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 8,
            seed: 9_406,
            appgen: AppGenConfig {
                method_scale: 0.006,
                modern_fraction: 0.6,
                ..Default::default()
            },
            ..Default::default()
        });
        let knowledge = Knowledge::from_corpus(&corpus);
        let mut dispatch = DispatchConfig {
            workers: 2,
            ..Default::default()
        };
        dispatch.experiment.monkey.events = 120;
        dispatch.experiment.monkey.seed = 9_406;
        let config = CampaignConfig {
            dispatch,
            ..Default::default()
        };
        let analyses = run_campaign(&corpus, &knowledge, &config, None, None)
            .expect("a campaign without a store does no I/O")
            .analyses;
        assert_eq!(
            analyses.len(),
            8,
            "mixed fixture campaign must not lose apps"
        );
        FullReport::build(&analyses)
    })
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

fn update_requested() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn every_section_matches_its_golden_snapshot() {
    let dir = golden_dir();
    if update_requested() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut mismatches = Vec::new();
    for section in Section::ALL {
        let rendered = render_section(report(), section);
        let path = dir.join(format!("{}.txt", section.slug()));
        if update_requested() {
            std::fs::write(&path, &rendered).expect("write golden file");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == rendered => {}
            Ok(golden) => mismatches.push(format!(
                "{}: rendered output differs from golden ({} vs {} bytes)",
                section.slug(),
                rendered.len(),
                golden.len()
            )),
            Err(e) => mismatches.push(format!("{}: unreadable golden file: {e}", section.slug())),
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches (regenerate with UPDATE_GOLDEN=1 if intentional):\n  {}",
        mismatches.join("\n  ")
    );
}

/// The socket-shape mix section renders only for mixed campaigns, so
/// it gets its own golden file fed by the mixed fixture. The legacy
/// fixture must never activate it — that is the byte-identity
/// guarantee for historical reports.
#[test]
fn shape_mix_matches_its_golden_snapshot() {
    use spector_analysis::render::render_shape_mix;

    assert!(
        !report().shapes.active,
        "legacy fixture must not activate the shape section"
    );
    assert!(
        report().render().find("Socket shapes").is_none(),
        "legacy render must not contain the shape section"
    );
    let mixed = mixed_report();
    assert!(
        mixed.shapes.active,
        "mixed fixture must activate the shape section"
    );
    assert!(
        mixed.shapes.v6_flows > 0,
        "mixed fixture must attribute IPv6 flows"
    );
    assert!(
        mixed.shapes.tls_flows > 0,
        "mixed fixture must attribute TLS-like flows"
    );
    assert!(
        mixed.shapes.proxy_flows > 0,
        "mixed fixture must attribute CONNECT flows"
    );
    assert!(
        mixed.shapes.pooled_connections > 0,
        "mixed fixture must pool connections"
    );
    let rendered = render_shape_mix(mixed);
    assert!(
        mixed.render().contains(&rendered),
        "full mixed render must embed the shape section"
    );
    let path = golden_dir().join("shape_mix.txt");
    if update_requested() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("tests/golden/shape_mix.txt (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        golden, rendered,
        "shape_mix: rendered output differs from golden \
         (regenerate with UPDATE_GOLDEN=1 if intentional)"
    );
}

/// The detection-quality table gets its own golden file: it is not a
/// [`Section`] of the campaign report (it grades the corpus statically,
/// no campaign needed) but its rendering is pinned just as strictly.
#[test]
fn detect_quality_matches_its_golden_snapshot() {
    use spector_analysis::detect::{evaluate, render, DetectQualityConfig};

    let rendered = render(&evaluate(&DetectQualityConfig {
        apps: 12,
        seed: 9_406,
        method_scale: 0.006,
        obfuscation_seed: 0x0bf5,
    }));
    let path = golden_dir().join("detect_quality.txt");
    if update_requested() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("tests/golden/detect_quality.txt (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        golden, rendered,
        "detect_quality: rendered output differs from golden \
         (regenerate with UPDATE_GOLDEN=1 if intentional)"
    );
}

#[test]
fn full_render_is_the_concatenation_of_all_sections() {
    let full = report().render();
    let concatenated: String = Section::ALL
        .iter()
        .map(|&s| render_section(report(), s))
        .collect();
    assert_eq!(full, concatenated);
}

#[test]
fn golden_directory_holds_exactly_the_known_sections() {
    if update_requested() {
        return; // files are being rewritten; inventory is checked on replay
    }
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden must exist (run once with UPDATE_GOLDEN=1)")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = Section::ALL
        .iter()
        .map(|s| format!("{}.txt", s.slug()))
        .collect();
    expected.push("detect_quality.txt".to_owned());
    // The store-backed report golden (tests/store_query.rs) shares the
    // directory.
    expected.push("query_report.txt".to_owned());
    expected.push("shape_mix.txt".to_owned());
    expected.sort();
    assert_eq!(on_disk, expected, "stale or missing golden files");
}
