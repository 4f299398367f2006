#!/usr/bin/env bash
# Smoke-run the performance-sensitive benchmarks in criterion's quick
# mode: enough to catch a build break or a gross regression in the hot
# paths without paying for full statistical runs. Used by CI; run the
# full benches locally with `cargo bench -p spector-bench`.
set -euo pipefail

cd "$(dirname "$0")/.."

# perf: hook overhead, per-app pipeline, a 50-app slice through
# run_app (perf/experiment/slice) and the same slice's app-image builds
# alone (perf/experiment/app_image: dex parse, signature index, apk
# digest), every report of that slice through `attribute`
# (perf/pipeline/attribute: the footnote 2 filter and origin pick),
# throughput, the 400-app knowledge build (perf/knowledge/from_corpus)
# and its Table I classification of the domain universe alone
# (perf/knowledge/classify_domains), corpus generation and
# obfuscation over a 50-app slice each (perf/corpus/generate,
# perf/corpus/obfuscate), substrates, and the
# sampled-tracing layer (perf/sampling_overhead — the exact path must
# stay within noise of the unsampled pipeline).
cargo bench -p spector-bench --bench perf -- --quick "$@"

# headline: campaign-level aggregation figures.
cargo bench -p spector-bench --bench headline -- --quick "$@"

# live: streaming engine raw frames/sec through the two-phase
# (peek-route-batch) ingress, 1 vs N shards.
cargo bench -p spector-bench --bench live -- --quick "$@"

# ingest: the loopback TCP ingest service end-to-end — client framing,
# socket hop, record parse, batched ingress, shard-local decode — over
# one connection (a single handler thread, as perfbench's live-ingest
# runs on two cores) and over four, each at 1 and 4 shards.
cargo bench -p spector-bench --bench ingest -- --quick "$@"

# detect: cascade throughput per detection tier (trie / exact-fp /
# structural) over obfuscated variants of the 400-app store.
cargo bench -p spector-bench --bench detect -- --quick "$@"

# store: durable-store segment ingest + historical query throughput at
# 10x/100x the 400-app fixture (asserts store-backed report
# byte-identity before timing).
cargo bench -p spector-bench --bench store -- --quick "$@"

# The fault-injection smoke (scripts/chaos_smoke.sh) is not run from
# here: CI runs it once, as its own chaos-smoke job.
