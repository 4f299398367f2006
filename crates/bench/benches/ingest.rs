//! Ingest-service throughput: raw frames/sec through the loopback TCP
//! listener in front of `LiveEngine` — the full service path: client
//! framing and socket write, kernel loopback, server record parse,
//! peek/route/batch, shard-local decode, incremental join. Numbers
//! are recorded in `BENCH_pipeline.json` at the repo root.
//!
//! Each iteration starts a fresh server, streams every fixture run
//! over one connection or four concurrent ones, drains, and shuts down
//! — so the number includes service start/stop, which production pays
//! once, not per frame. One connection puts every record through a
//! single handler thread, the path `perfbench`'s `live-ingest`
//! workload runs on a 2-CPU host; four spread the records over four
//! handlers, connection-per-emulator like a real rig. Lossless delivery
//! per iteration is asserted, not assumed.

use std::sync::Arc;
use std::thread;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spector_bench::throughput_fixture;
use spector_live::{IngestClient, IngestConfig, IngestServer, LiveConfig, LiveEngine};

/// Concurrent client connections per iteration, one case each.
const CONNECTIONS: [usize; 2] = [1, 4];

fn bench_ingest_service(c: &mut Criterion) {
    let (knowledge, raws, port) = throughput_fixture();
    let knowledge = Arc::new(knowledge.clone());
    let total_frames: u64 = raws.iter().map(|r| r.capture.len() as u64).sum();

    let mut group = c.benchmark_group("perf/ingest_service");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_frames));
    for connections in CONNECTIONS {
        for shards in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(&format!("{connections}_conn"), format!("{shards}_shards")),
                &shards,
                |b, &shards| {
                    b.iter(|| {
                        let engine = LiveEngine::start(
                            Arc::clone(&knowledge),
                            LiveConfig {
                                shards,
                                collector_port: *port,
                                ..Default::default()
                            },
                        );
                        let server = IngestServer::start(engine, IngestConfig::default())
                            .expect("loopback bind");
                        let addr = server.tcp_addr();
                        thread::scope(|scope| {
                            for lane in 0..connections {
                                let raws = &raws;
                                scope.spawn(move || {
                                    let mut client =
                                        IngestClient::connect(addr).expect("loopback connect");
                                    for (run, raw) in
                                        raws.iter().enumerate().skip(lane).step_by(connections)
                                    {
                                        client.send_run(run as u32, &raw.capture).expect("send");
                                    }
                                    client.finish().expect("finish");
                                });
                            }
                        });
                        let summary = server.shutdown().finish();
                        assert_eq!(
                            summary.events, total_frames,
                            "TCP ingest must deliver every frame"
                        );
                        std::hint::black_box(summary)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ingest_service);
criterion_main!(benches);
