#!/usr/bin/env bash
# Smoke-run the performance-sensitive benchmarks in criterion's quick
# mode: enough to catch a build break or a gross regression in the hot
# paths without paying for full statistical runs. Used by CI; run the
# full benches locally with `cargo bench -p spector-bench`.
set -euo pipefail

cd "$(dirname "$0")/.."

# perf: hook overhead, per-app pipeline, throughput, substrates, and
# the sampled-tracing layer (perf/sampling_overhead — the exact path
# must stay within noise of the unsampled pipeline).
cargo bench -p spector-bench --bench perf -- --quick "$@"

# headline: campaign-level aggregation figures.
cargo bench -p spector-bench --bench headline -- --quick "$@"

# live: streaming engine raw frames/sec through the two-phase
# (peek-route-batch) ingress, 1 vs N shards.
cargo bench -p spector-bench --bench live -- --quick "$@"

# ingest: the loopback TCP ingest service end-to-end — client framing,
# socket hop, record parse, batched ingress, shard-local decode.
cargo bench -p spector-bench --bench ingest -- --quick "$@"

# detect: cascade throughput per detection tier (trie / exact-fp /
# structural) over obfuscated variants of the 400-app store.
cargo bench -p spector-bench --bench detect -- --quick "$@"

# store: durable-store segment ingest + historical query throughput at
# 10x/100x the 400-app fixture (asserts store-backed report
# byte-identity before timing).
cargo bench -p spector-bench --bench store -- --quick "$@"

# chaos: fault-injection layer overhead + end-to-end robustness smoke
# (heavy profile, SIGKILL + store --resume report identity,
# --max-failures gate).
scripts/chaos_smoke.sh
