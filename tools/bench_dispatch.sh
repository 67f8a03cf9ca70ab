#!/usr/bin/env bash
# Dispatch/quote hot-path benchmark runner. Runs the large-mix cases of
# bench/micro_schedule (backlog dispatch, quote-vs-backlog, the projection
# step alone) and bench/micro_event_queue (cancel churn, bounded-horizon
# drains) and merges their google-benchmark JSON into BENCH_dispatch.json
# at the repo root — the perf trajectory record for the hot-path work.
#
# The committed JSON must come from an optimized build: the default build
# dir is a dedicated Release tree (build-bench), configured here if absent,
# and the script refuses to write the output when the binaries report a
# non-release "mbts_build_type" context (the stock "library_build_type" key
# only describes how the google-benchmark *library* was compiled, which is
# how a debug-build baseline once got committed).
#
# Each case runs 5 times and the JSON keeps only the median and
# coefficient-of-variation aggregate rows: one run of a case is not a
# measurement on a shared host, and tools/bench_compare.py reads the CV to
# tell a change from the case's own spread. Both benchmarks are
# single-threaded, so when taskset is available they run pinned to the last
# CPU this script may use, keeping the scheduler from migrating them
# between cores mid-case.
#
# Usage: tools/bench_dispatch.sh [build_dir] (default: build-bench)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-bench}"
OUT="$ROOT/BENCH_dispatch.json"
REPEAT=(--benchmark_repetitions=5 --benchmark_report_aggregates_only=true)

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j "$(nproc)" --target micro_schedule micro_event_queue

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Refuses to bless results from an unoptimized or assert-laden binary.
require_release() {
  if ! grep -q '"mbts_build_type": "release"' "$1"; then
    echo "error: $(basename "$1") was produced by a non-release build" >&2
    grep -o '"mbts_build_type": "[^"]*"' "$1" >&2 || true
    echo "rerun against a -DCMAKE_BUILD_TYPE=Release build dir" >&2
    exit 1
  fi
}

PIN=()
if command -v taskset >/dev/null; then
  # Last id of this process's affinity list ("0-3" -> 3, "0,2,5-7" -> 7).
  CPU="$(taskset -pc $$ | sed 's/.*: //' | tr ',' '\n' | tail -n 1 |
    sed 's/.*-//')"
  PIN=(taskset -c "$CPU")
  echo "pinning micro_schedule and micro_event_queue to CPU $CPU"
else
  echo "taskset not found: running unpinned"
fi

"${PIN[@]}" "$BUILD/bench/micro_schedule" \
  --benchmark_filter='BM_CompletionOf|BM_DispatchBacklog|BM_DispatchBurst|BM_QuoteBacklog' \
  "${REPEAT[@]}" \
  --benchmark_out="$TMP/schedule.json" --benchmark_out_format=json
"${PIN[@]}" "$BUILD/bench/micro_event_queue" \
  --benchmark_filter='BM_CancelHeavyChurn|BM_RunUntilStrided' \
  "${REPEAT[@]}" \
  --benchmark_out="$TMP/event_queue.json" --benchmark_out_format=json

require_release "$TMP/schedule.json"
require_release "$TMP/event_queue.json"

if command -v python3 >/dev/null; then
  python3 - "$TMP/schedule.json" "$TMP/event_queue.json" \
    "$OUT" <<'EOF'
import json, sys
KEEP = ("median", "cv")
first = json.load(open(sys.argv[1]))
for extra in sys.argv[2:-1]:
    first["benchmarks"].extend(json.load(open(extra))["benchmarks"])
first["benchmarks"] = [b for b in first["benchmarks"]
                       if b.get("aggregate_name") in KEEP]
json.dump(first, open(sys.argv[-1], "w"), indent=1)
print(f"wrote {sys.argv[-1]} ({len(first['benchmarks'])} benchmarks)")
EOF
else
  # No python: keep the dispatch benchmarks (every aggregate row), the
  # headline numbers.
  cp "$TMP/schedule.json" "$OUT"
  echo "python3 not found; wrote micro_schedule results only to $OUT"
fi
