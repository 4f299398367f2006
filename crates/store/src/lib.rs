//! # spector-store — durable columnar campaign store
//!
//! Campaigns used to live in RAM and die with the process. This crate
//! gives them a home on disk: an append-only store of compacted
//! **segments**, each holding three columnar tables — per-app
//! [`AppAnalysis`](libspector::AppAnalysis) records, their flows, and
//! low-volume report records (campaign seals) — plus
//! a crash-safe **manifest** naming every sealed segment and its
//! content fingerprint.
//!
//! Design points, in the order they matter:
//!
//! * **Zero-copy decode.** A segment is read once into memory and
//!   queried in place: dictionary columns resolve to `&str` slices of
//!   the file's string pool, enum columns are a `u8` table index, and
//!   [`SegmentView::parse`] validates *everything* up front so row
//!   access is infallible — the same discipline `CaptureIndex` and
//!   `FrameRef` apply to pcap bytes.
//! * **Compact encoding.** Strings are pooled and dictionary-coded;
//!   byte counters are LEB128 varints; flow timestamps are
//!   zigzag-delta varints against the previous flow.
//! * **Crash-safe appends.** Segments are written tmp → fsync →
//!   rename, *then* listed in the atomically-replaced manifest. A
//!   crash loses at most the unsealed tail, and leaves it behind as a
//!   counted orphan — never silently, never as corruption.
//! * **Counted rejection.** A torn, truncated, or bit-rotted segment
//!   becomes a classified [`StoreErrorKind`] entry in
//!   [`StoreIntegrity`]; queries proceed over the survivors.
//!
//! Writers ([`StoreWriter`]) append one campaign each; readers
//! ([`StoreReader`]) query arbitrary campaign sets, either through
//! materialized analyses (the byte-identity render path) or straight
//! off the columns ([`SegmentView`]'s iterators).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod error;
pub mod manifest;
pub mod pool;
pub mod reader;
pub mod segment;
pub mod telemetry;
pub mod writer;

pub use error::{StoreError, StoreErrorKind, StoreResult};
pub use manifest::{CampaignEntry, CampaignKind, Manifest, SegmentEntry, MANIFEST_FILE};
pub use reader::{StoreIntegrity, StoreReader, StoredAnalysis};
pub use segment::{
    AnalysisRow, ReportRow, SegmentBuilder, SegmentView, REPORT_KIND_CAMPAIGN_SEAL,
    REPORT_KIND_LIVE_SNAPSHOT,
};
pub use telemetry::StoreTelemetry;
pub use writer::{
    CampaignMeta, CampaignSealRecord, StoreOptions, StoreWriter, StoredFailure, DEFAULT_SEAL_EVERY,
};

#[cfg(test)]
mod tests {
    use libspector::{AppAnalysis, CoverageReport};
    use spector_telemetry::Telemetry;

    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spector-store-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_analysis(package: &str) -> AppAnalysis {
        AppAnalysis {
            package: package.to_owned(),
            app_category: "GAME".to_owned(),
            flows: Vec::new(),
            unattributed_flows: 0,
            reports_without_flow: 0,
            coverage: CoverageReport {
                total_methods: 10,
                executed_methods: 3,
                external_methods: 1,
            },
            dns_packets: 0,
            report_packets: 0,
            integrity: Default::default(),
            detect: Default::default(),
            sampling: Default::default(),
        }
    }

    #[test]
    fn write_then_read_round_trips_and_balances() {
        let dir = temp_dir("roundtrip");
        let registry = Telemetry::enabled();
        let meta = CampaignMeta {
            seed: 11,
            apps: 3,
            monkey_events: 60,
            kind: CampaignKind::Run,
        };
        let options = StoreOptions {
            seal_every: 2,
            telemetry: StoreTelemetry::new(&registry),
        };
        let mut writer = StoreWriter::create(&dir, &meta, options).unwrap();
        // Out-of-order appends, as the campaign collector produces them.
        writer.append_analysis(2, &tiny_analysis("com.c")).unwrap();
        writer.append_analysis(0, &tiny_analysis("com.a")).unwrap();
        writer.append_analysis(1, &tiny_analysis("com.b")).unwrap();
        writer
            .finish(&CampaignSealRecord {
                seed: 11,
                apps: 3,
                monkey_events: 60,
                failures: vec![],
            })
            .unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.integrity().segments_ok, 2);
        assert_eq!(reader.integrity().rejected, vec![]);
        assert_eq!(reader.integrity().orphaned_segments, 0);
        assert_eq!(reader.integrity().unsealed_campaigns, 0);
        let analyses = reader.campaign_analyses(0);
        let packages: Vec<&str> = analyses.iter().map(|a| a.package.as_str()).collect();
        assert_eq!(
            packages,
            ["com.a", "com.b", "com.c"],
            "corpus order restored"
        );
        let seal = reader.seal_record(0).unwrap().unwrap();
        assert_eq!((seal.seed, seal.apps), (11, 3));

        let snapshot = registry.snapshot();
        let appended = snapshot.counter("spector_store_records_appended_total");
        assert_eq!(
            appended,
            snapshot.counter("spector_store_analyses_appended_total")
                + snapshot.counter("spector_store_flows_appended_total")
                + snapshot.counter("spector_store_reports_appended_total"),
        );
        assert_eq!(appended, 4, "3 analyses + 1 seal record");
        assert_eq!(snapshot.counter("spector_store_segments_written_total"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_segment_is_counted_not_fatal() {
        let dir = temp_dir("torn");
        let meta = CampaignMeta {
            seed: 5,
            apps: 4,
            monkey_events: 10,
            kind: CampaignKind::Run,
        };
        let options = StoreOptions {
            seal_every: 1,
            telemetry: StoreTelemetry::default(),
        };
        let mut writer = StoreWriter::create(&dir, &meta, options).unwrap();
        for i in 0..4u32 {
            writer
                .append_analysis(i, &tiny_analysis(&format!("com.app{i}")))
                .unwrap();
        }
        drop(writer); // unsealed campaign, 4 sealed segments

        // Tear the second segment mid-file.
        let victim = dir.join(manifest::segment_file_name(0, 1));
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.integrity().segments_ok, 3);
        assert_eq!(reader.integrity().rejected.len(), 1);
        assert!(matches!(
            reader.integrity().rejected[0].1,
            StoreErrorKind::Truncated | StoreErrorKind::FingerprintMismatch
        ));
        assert_eq!(reader.integrity().unsealed_campaigns, 1);
        let survivors = reader.campaign_analyses(0);
        assert_eq!(survivors.len(), 3, "queries proceed over the survivors");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_campaign_appends_without_disturbing_the_first() {
        let dir = temp_dir("multi");
        for (seed, package) in [(1u64, "com.first"), (2, "com.second")] {
            let meta = CampaignMeta {
                seed,
                apps: 1,
                monkey_events: 1,
                kind: CampaignKind::Run,
            };
            let mut writer = StoreWriter::create(&dir, &meta, StoreOptions::default()).unwrap();
            writer.append_analysis(0, &tiny_analysis(package)).unwrap();
            writer
                .finish(&CampaignSealRecord {
                    seed,
                    apps: 1,
                    monkey_events: 1,
                    failures: vec![],
                })
                .unwrap();
        }
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.campaigns().len(), 2);
        assert_eq!(reader.campaign_analyses(0)[0].package, "com.first");
        assert_eq!(reader.campaign_analyses(1)[0].package, "com.second");
        let all = reader.analyses(None);
        assert_eq!(all.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
