#!/usr/bin/env bash
# Reduced substrate bench: old-vs-new microbenchmarks plus a small E1/E6
# sweep, written to BENCH_substrate.json at the repo root, the E11
# sweep-scaling row (jobs=1 vs jobs=all), written to BENCH_sweep.json,
# the E12 observability-overhead row (metrics on vs off), written to
# BENCH_obs.json, the E13 max_digis_per_sec scaling row (arena pools
# vs per-digi timers at 10k/100k/1M), written to BENCH_scale.json, and
# the E14 islands_speedup row (one sim space-partitioned across island
# kernels, 1 worker vs one per core), written to BENCH_islands.json.
#
# Usage: scripts/bench_smoke.sh [out.json] [sweep_out.json] [obs_out.json] [scale_out.json] [islands_out.json]
#
# If cargo cannot build the workspace, fall back to the standalone
# harnesses, which compile the std-only sweep + obs + scale modules
# directly with rustc and measure the same comparisons (no campaign rows
# in that mode; the obs row measures the raw record path instead of a
# full scene, the scale row measures miniature substrate models instead
# of full testbeds, and the islands row drives a miniature of the
# core::islands barrier protocol instead of real island testbeds).
# BENCH_substrate.json has no fallback: it is written by the cargo path.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_substrate.json}"
SWEEP_OUT="${2:-BENCH_sweep.json}"
OBS_OUT="${3:-BENCH_obs.json}"
SCALE_OUT="${4:-BENCH_scale.json}"
ISLANDS_OUT="${5:-BENCH_islands.json}"

if cargo build --release -p digibox-bench --bin bench_smoke 2>/dev/null; then
    exec cargo run --release -p digibox-bench --bin bench_smoke -- "$OUT" "$SWEEP_OUT" "$OBS_OUT" "$SCALE_OUT" "$ISLANDS_OUT"
fi

echo "[bench_smoke] cargo build unavailable; using standalone rustc harness" >&2
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
rustc --edition 2021 -O scripts/standalone_sweep.rs -o "$TMP/standalone_sweep"
"$TMP/standalone_sweep" "$SWEEP_OUT"
rustc --edition 2021 -O scripts/standalone_obs.rs -o "$TMP/standalone_obs"
"$TMP/standalone_obs" "$OBS_OUT"
rustc --edition 2021 -O scripts/standalone_scale.rs -o "$TMP/standalone_scale"
"$TMP/standalone_scale" "$SCALE_OUT"
rustc --edition 2021 -O scripts/standalone_islands.rs -o "$TMP/standalone_islands"
"$TMP/standalone_islands" "$ISLANDS_OUT"
