//! App collection: the AndroidRank ∩ AndroZoo selection logic (§III-A).
//!
//! The paper starts from the most-downloaded package names (AndroidRank),
//! pulls all archived versions of each from AndroZoo, and selects per
//! package:
//!
//! 1. the apk with the **latest dex timestamp**;
//! 2. for apks whose dex timestamp is the 01-01-1980 default, the one
//!    **most recently scanned by VirusTotal**;
//! 3. dropping apps that ship **only ARM** shared libraries.
//!
//! The same logic runs here over generated version sets, so the
//! collection pipeline is exercised, not just assumed.

use spector_dex::apk::{Apk, DEFAULT_DEX_TIMESTAMP};

/// One candidate version of a package in the archive.
#[derive(Debug, Clone)]
pub struct ArchivedApk {
    /// Package name.
    pub package: String,
    /// The apk.
    pub apk: Apk,
}

/// Why a package was dropped during selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Every candidate was ARM-only.
    ArmOnly,
    /// No parseable candidate existed.
    Unreadable,
}

/// Outcome of running selection over an archive.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Chosen apk per package, in first-seen package order.
    pub selected: Vec<ArchivedApk>,
    /// Dropped packages with reasons.
    pub rejected: Vec<(String, RejectReason)>,
}

/// Selects one apk per package per the paper's rules.
pub fn select_apks(archive: Vec<ArchivedApk>) -> Selection {
    let mut order: Vec<String> = Vec::new();
    let mut by_package: std::collections::HashMap<String, Vec<ArchivedApk>> =
        std::collections::HashMap::new();
    for entry in archive {
        if !by_package.contains_key(&entry.package) {
            order.push(entry.package.clone());
        }
        by_package
            .entry(entry.package.clone())
            .or_default()
            .push(entry);
    }

    let mut selection = Selection::default();
    for package in order {
        let candidates = by_package.remove(&package).expect("package recorded");
        let mut best: Option<(ArchivedApk, u64, Option<u64>)> = None;
        let mut any_parseable = false;
        for candidate in candidates {
            let Ok(manifest) = candidate.apk.manifest() else {
                continue;
            };
            any_parseable = true;
            let dex_ts = if manifest.dex_timestamp == DEFAULT_DEX_TIMESTAMP {
                // Default timestamp: rank below every real timestamp and
                // fall back to the VT scan date.
                0
            } else {
                manifest.dex_timestamp
            };
            let key = (dex_ts, manifest.vt_scan_date);
            let better = match &best {
                None => true,
                Some((_, best_ts, best_vt)) => key > (*best_ts, *best_vt),
            };
            if better {
                best = Some((candidate, key.0, key.1));
            }
        }
        match best {
            Some((chosen, _, _)) => {
                if chosen.apk.supports_x86() {
                    selection.selected.push(chosen);
                } else {
                    selection.rejected.push((package, RejectReason::ArmOnly));
                }
            }
            None => {
                let reason = if any_parseable {
                    RejectReason::ArmOnly
                } else {
                    RejectReason::Unreadable
                };
                selection.rejected.push((package, reason));
            }
        }
    }
    selection
}

/// Builds an AndroZoo-style archive from generated apps: each package
/// appears in 1-3 versions with increasing version codes, earlier
/// versions carrying older (or default) dex timestamps, so the §III-A
/// selection rules have real work to do. The *last* version of each
/// package is the generated app itself — the one selection must pick.
pub fn build_archive(apps: &[crate::appgen::GeneratedApp], seed: u64) -> Vec<ArchivedApk> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c0_ffee);
    let mut archive = Vec::new();
    for app in apps {
        let Ok(manifest) = app.apk.manifest() else {
            continue;
        };
        let Ok(dex) = app.apk.dex().map(|view| view.to_dex()) else {
            continue;
        };
        let older_versions = rng.gen_range(0..=2usize);
        for version in 0..older_versions {
            let mut old = manifest.clone();
            old.version_code = manifest
                .version_code
                .saturating_sub((older_versions - version) as u32);
            // Half the stale entries carry the 01-01-1980 default dex
            // timestamp (the VT-date fallback path); the rest are just
            // older.
            if rng.gen_bool(0.5) {
                old.dex_timestamp = DEFAULT_DEX_TIMESTAMP;
                old.vt_scan_date = manifest.vt_scan_date.map(|d| d.saturating_sub(10_000));
            } else {
                old.dex_timestamp = manifest.dex_timestamp.saturating_sub(50_000);
            }
            archive.push(ArchivedApk {
                package: app.package.clone(),
                apk: Apk::build(&old, &dex, vec![]),
            });
        }
        archive.push(ArchivedApk {
            package: app.package.clone(),
            apk: app.apk.clone(),
        });
    }
    archive
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use spector_dex::apk::{ApkEntry, Manifest};
    use spector_dex::model::DexFile;

    fn make_apk(package: &str, dex_ts: u64, vt: Option<u64>, abis: &[&str]) -> ArchivedApk {
        let manifest = Manifest {
            package: package.into(),
            version_code: 1,
            category: "TOOLS".into(),
            dex_timestamp: dex_ts,
            vt_scan_date: vt,
            application_on_create: vec![],
            activities: vec![],
        };
        let extra = abis
            .iter()
            .map(|abi| ApkEntry {
                name: format!("lib/{abi}/libx.so"),
                data: Bytes::new(),
            })
            .collect();
        ArchivedApk {
            package: package.into(),
            apk: Apk::build(&manifest, &DexFile::new(), extra),
        }
    }

    #[test]
    fn picks_latest_dex_timestamp() {
        let selection = select_apks(vec![
            make_apk("com.a", 100, None, &[]),
            make_apk("com.a", 300, None, &[]),
            make_apk("com.a", 200, None, &[]),
        ]);
        assert_eq!(selection.selected.len(), 1);
        assert_eq!(
            selection.selected[0].apk.manifest().unwrap().dex_timestamp,
            300
        );
    }

    #[test]
    fn default_timestamp_falls_back_to_vt_date() {
        let selection = select_apks(vec![
            make_apk("com.b", DEFAULT_DEX_TIMESTAMP, Some(50), &[]),
            make_apk("com.b", DEFAULT_DEX_TIMESTAMP, Some(90), &[]),
            make_apk("com.b", DEFAULT_DEX_TIMESTAMP, Some(70), &[]),
        ]);
        assert_eq!(
            selection.selected[0].apk.manifest().unwrap().vt_scan_date,
            Some(90)
        );
    }

    #[test]
    fn real_timestamp_beats_default_with_newer_vt() {
        let selection = select_apks(vec![
            make_apk("com.c", DEFAULT_DEX_TIMESTAMP, Some(9_999_999_999), &[]),
            make_apk("com.c", 500, Some(1), &[]),
        ]);
        assert_eq!(
            selection.selected[0].apk.manifest().unwrap().dex_timestamp,
            500
        );
    }

    #[test]
    fn arm_only_apps_rejected() {
        let selection = select_apks(vec![
            make_apk("com.arm", 100, None, &["armeabi-v7a", "arm64-v8a"]),
            make_apk("com.fat", 100, None, &["armeabi-v7a", "x86"]),
            make_apk("com.java", 100, None, &[]),
        ]);
        let selected: Vec<&str> = selection
            .selected
            .iter()
            .map(|a| a.package.as_str())
            .collect();
        assert_eq!(selected, vec!["com.fat", "com.java"]);
        assert_eq!(
            selection.rejected,
            vec![("com.arm".to_owned(), RejectReason::ArmOnly)]
        );
    }

    #[test]
    fn preserves_first_seen_order() {
        let selection = select_apks(vec![
            make_apk("com.z", 1, None, &[]),
            make_apk("com.a", 1, None, &[]),
            make_apk("com.z", 2, None, &[]),
        ]);
        let order: Vec<&str> = selection
            .selected
            .iter()
            .map(|a| a.package.as_str())
            .collect();
        assert_eq!(order, vec!["com.z", "com.a"]);
    }

    #[test]
    fn empty_archive() {
        let selection = select_apks(vec![]);
        assert!(selection.selected.is_empty());
        assert!(selection.rejected.is_empty());
    }

    #[test]
    fn generated_archive_selection_recovers_latest_versions() {
        let corpus = crate::Corpus::generate(&crate::CorpusConfig {
            apps: 20,
            seed: 55,
            appgen: crate::AppGenConfig {
                method_scale: 0.003,
                ..Default::default()
            },
            ..Default::default()
        });
        let archive = build_archive(&corpus.apps, 55);
        assert!(
            archive.len() >= corpus.apps.len(),
            "versions were generated"
        );
        let selection = select_apks(archive);
        // Every x86-capable package is selected, and the chosen apk is
        // the app's own latest version (identical checksum).
        for app in &corpus.apps {
            let chosen = selection.selected.iter().find(|a| a.package == app.package);
            if app.apk.supports_x86() {
                let chosen = chosen.expect("x86 app must be selected");
                assert_eq!(chosen.apk.sha256(), app.apk.sha256(), "{}", app.package);
            } else {
                assert!(chosen.is_none(), "{} is ARM-only", app.package);
                assert!(selection
                    .rejected
                    .iter()
                    .any(|(p, r)| p == &app.package && *r == RejectReason::ArmOnly));
            }
        }
    }
}
