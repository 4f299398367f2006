//! The offline pipeline against its independent references.
//!
//! Two layers of `analyze_run` still have an implementation of their
//! own to be compared against, and both are compared here on realistic
//! runs:
//!
//! * the one-pass `CaptureIndex` against the per-view capture walks
//!   (`crates/netsim/tests/support/walks.rs`) and a scan that decodes
//!   every frame on its own, keeping collector-port payloads and
//!   tallying decode failures;
//! * every library-origin flow's `lib_category` against the linear
//!   Listing 2 reference (`crates/libradar/tests/support/listing2.rs`).
//!   The corpora are unobfuscated, so the knowledge base holds no
//!   aliases and the Listing 2 prediction is the whole category verdict.

use libspector::experiment::{resolver_for, run_app, ExperimentConfig};
use libspector::knowledge::Knowledge;
use libspector::pipeline::analyze_run;
use libspector::OriginKind;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_netsim::packet::{decode_frame_ref, TransportRef};
use spector_netsim::pcap::CapturedPacket;
use spector_netsim::{CaptureIndex, FrameErrorCounts};

#[path = "../crates/libradar/tests/support/listing2.rs"]
mod listing2;
#[path = "../crates/netsim/tests/support/walks.rs"]
mod walks;

/// Decodes every frame of `capture` independently of the frame step:
/// the UDP payloads addressed to `collector_port`, in capture order,
/// and the tally of frames that fail to decode.
fn reference_scan(
    capture: &[CapturedPacket],
    collector_port: u16,
) -> (Vec<&[u8]>, FrameErrorCounts) {
    let mut payloads = Vec::new();
    let mut errors = FrameErrorCounts::default();
    for packet in capture {
        match decode_frame_ref(&packet.data) {
            Ok(frame) => {
                if let TransportRef::Udp { payload } = frame.transport {
                    if frame.pair.dst_port == collector_port {
                        payloads.push(payload);
                    }
                }
            }
            Err(error) => errors.record(error.kind),
        }
    }
    (payloads, errors)
}

#[test]
fn capture_index_and_categories_match_their_references() {
    for seed in [41u64, 42, 43] {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 2,
            seed,
            appgen: AppGenConfig {
                method_scale: 0.006,
                ..Default::default()
            },
            ..Default::default()
        });
        let knowledge = Knowledge::from_corpus(&corpus);
        assert!(knowledge.exact_aliases.is_empty() && knowledge.structural_aliases.is_empty());
        let resolver = resolver_for(&corpus.domains);
        let mut config = ExperimentConfig::default();
        config.monkey.events = 100;
        let port = config.supervisor.collector_port;
        let mut library_flows = 0;
        for app in &corpus.apps {
            let system: Vec<_> = app
                .system_ops
                .iter()
                .map(|s| (s.op.clone(), s.dispatcher))
                .collect();
            let raw = run_app(&app.apk, &resolver, &system, &config).unwrap();
            let context = format!("seed {seed}, app {}", app.package);

            let index = CaptureIndex::build(&raw.capture, port);
            assert_eq!(index.flows, walks::flow_table(&raw.capture), "{context}");
            assert_eq!(index.dns, walks::dns_map(&raw.capture), "{context}");
            let (payloads, frame_errors) = reference_scan(&raw.capture, port);
            assert_eq!(index.report_payloads, payloads, "{context}");
            assert_eq!(index.frame_errors, frame_errors, "{context}");

            let analysis = analyze_run(&raw, &knowledge, port);
            assert!(!analysis.flows.is_empty(), "{context}: no flows");
            for flow in &analysis.flows {
                let OriginKind::Library { origin_library, .. } = &flow.origin else {
                    continue;
                };
                assert_eq!(
                    flow.lib_category,
                    listing2::predict_category(&knowledge.aggregated, origin_library),
                    "{context}, origin {origin_library}"
                );
                library_flows += 1;
            }
        }
        assert!(library_flows > 0, "seed {seed}: no library-origin flows");
    }
}
