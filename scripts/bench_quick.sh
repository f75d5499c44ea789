#!/usr/bin/env bash
# Quick real-execution benchmark: a small weak-scaling sweep (p = 1..8,
# uniform u64 keys) run on both the threads backend and the sockets
# backend (one OS process per rank over Unix-domain sockets), plus a
# resident SortService load burst, emitting wall-clock numbers to
# BENCH_quick.json. Usage: scripts/bench_quick.sh [out-dir]   (default:
# the repo root). A smoke run of both real backends, not a measurement:
# perfbench/ is the real-seconds benchmark. Finishes in seconds; no
# simulator involved.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-.}"
mkdir -p "$out"
BENCH_METRICS_OUT="$out" cargo run --release -q -p bench --bin bench_quick
test -s "$out/BENCH_quick.json" || {
    echo "bench_quick: no BENCH_quick.json written" >&2
    exit 1
}
echo "bench_quick: wrote $out/BENCH_quick.json"
