#!/usr/bin/env bash
# Chaos smoke: drive campaigns through the fault-injection layer with
# the aggressive profile and prove the robustness guarantees hold end
# to end from the CLI:
#
#   1. a campaign survives heavy chaos (no panic escapes the pool,
#      every app accounted for as analysis or failure);
#   2. the same campaign, SIGKILLed mid-run while writing a store,
#      continues under --resume into that same store campaign, and
#      `query --report` prints byte-for-byte what the uninterrupted
#      run printed;
#   3. --max-failures turns excess failures into a nonzero exit.
#
# CI runs it once, as its own chaos-smoke job; cheap enough (<1 min) to
# run locally before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

APPS=12
EVENTS=80
SEED=4242
# Chosen so the heavy profile deterministically produces both a
# retried run and a persistent failure (an injected worker panic)
# over the $APPS-app corpus — the gate check below depends on it.
CHAOS_SEED=5
# The resume leg needs a campaign long enough to kill between seals.
LONG_APPS=60
WORK="$(mktemp -d "${TMPDIR:-/tmp}/spector-chaos-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

cargo build --release -q -p spector-cli --bin libspector
BIN="${CARGO_TARGET_DIR:-target}/release/libspector"
CHAOS=(--seed "$SEED" --events "$EVENTS" --method-scale 0.004
       --chaos heavy --chaos-seed "$CHAOS_SEED")
LONG=("$BIN" run --apps "$LONG_APPS" "${CHAOS[@]}" --max-failures "$LONG_APPS")
STORE=(--store "$WORK/store" --store-seal-every 1)

echo "== chaos smoke: heavy profile over $LONG_APPS apps =="
"${LONG[@]}" >"$WORK/full.txt"

echo "== SIGKILL mid-campaign, then --resume, reproduces the report =="
"${LONG[@]}" "${STORE[@]}" --workers 1 >/dev/null 2>&1 &
pid=$!
until grep -qs '"campaign": 0' "$WORK/store/MANIFEST.json"; do
    kill -0 "$pid" 2>/dev/null \
        || { echo "FAIL: the run ended before a segment was sealed" >&2; exit 1; }
    sleep 0.01
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
grep -qs '"sealed": false' "$WORK/store/MANIFEST.json" \
    || { echo "FAIL: the kill landed after the campaign was sealed" >&2; exit 1; }
"${LONG[@]}" "${STORE[@]}" --resume >/dev/null
"$BIN" query --store "$WORK/store" --report >"$WORK/resumed.txt"
cmp "$WORK/full.txt" "$WORK/resumed.txt" \
    || { echo "FAIL: resumed campaign differs from the uninterrupted run" >&2; exit 1; }

echo "== --max-failures 0 must exit nonzero under heavy chaos =="
if "$BIN" run --apps "$APPS" "${CHAOS[@]}" --max-failures 0 >/dev/null 2>&1; then
    # This seed injects an unretryable worker panic, so a clean exit
    # means the failure gate is broken.
    echo "FAIL: the --max-failures gate did not fire" >&2
    exit 1
fi

echo "== chaos property tests (dispatch + decoder fuzz) =="
cargo test --release -q -p spector-dispatch --test chaos
cargo test --release -q -p spector-hooks --test proptests
cargo test --release -q -p spector-netsim --test proptests

echo "chaos smoke: OK"
