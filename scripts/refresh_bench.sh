#!/bin/sh
# Regenerates the committed benchmark baselines in Release mode. Each is
# the one BENCH_*.json document (bench::write_json: a context block with
# date, commit, build type, compiler and hardware threads, then
# name/value/unit entries):
#
#   BENCH_solver.json — bench_micro --json: solver and simulator
#                       micro-benchmarks (median time per operation; the
#                       three solver_scaling variants must agree on their
#                       move counts)
#   BENCH_fleet.json  — bench_fleet --json: incremental-vs-reference
#                       scheduling-round times at fleet scale (both
#                       variants run in the same binary and the action
#                       streams must match, so the speedups compare
#                       identical decisions)
#   BENCH_sim.json    — bench_event_queue --json: pooled vs reference
#                       event queue on the churn and cancel+reschedule
#                       patterns (both queues in the same binary),
#                       whole-run week throughput and sweep scaling
#
#   tests/data/run_summary_baseline.json — attribution baseline artifact:
#                       the quickstart run's energy/decision summary,
#                       diffed against each fresh run by the
#                       attribution_regression_gate ctest. Before the
#                       baseline is replaced, the fresh artifact is diffed
#                       against the committed one (trace_tool diff,
#                       5% threshold) so energy/decision drift is surfaced
#                       here instead of silently baked into the baseline.
#
# Usage: scripts/refresh_bench.sh
#
# Run on an otherwise idle machine; the JSON context blocks record the
# build and the hardware so numbers are interpretable later.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="$repo/build-bench"

echo "== building bench tree =="
cmake -S "$repo" -B "$out" -DCMAKE_BUILD_TYPE=Release \
  -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$out" \
  --target bench_event_queue bench_micro bench_fleet -j"$(nproc)" >/dev/null

# Each file is written in the build tree and copied over the committed one
# only if the binary succeeded and the file records a Release build:
# timings from any other build are not comparable.
refresh() {
  file="$1"
  bin="$2"
  echo "== $file ($bin) =="
  "$out/bench/$bin" --json > "$out/$file"
  if ! grep -q '"build_type": "Release"' "$out/$file"; then
    echo "ERROR: $out/$file does not record a Release build" >&2
    exit 1
  fi
  cp "$out/$file" "$repo/$file"
}

refresh BENCH_solver.json bench_micro
refresh BENCH_fleet.json bench_fleet
refresh BENCH_sim.json bench_event_queue

echo "== run_summary_baseline.json (attribution artifact) =="
# Needs the example CLIs; a separate small build keeps the bench builds
# example-free.
cmake -S "$repo" -B "$repo/build-bench-cli" -DCMAKE_BUILD_TYPE=Release \
  -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_EXAMPLES=ON >/dev/null
cmake --build "$repo/build-bench-cli" --target quickstart trace_tool \
  -j"$(nproc)" >/dev/null
"$repo/build-bench-cli/examples/quickstart" --attribution \
  --summary-out="$repo/.run_summary_fresh.json" >/dev/null
if [ -f "$repo/tests/data/run_summary_baseline.json" ]; then
  echo "-- diff vs committed baseline (5% threshold) --"
  if ! "$repo/build-bench-cli/examples/trace_tool" diff \
      "$repo/tests/data/run_summary_baseline.json" \
      "$repo/.run_summary_fresh.json" --threshold=0.05; then
    echo "NOTE: energy/decision metrics moved vs the committed baseline;"
    echo "      the deltas above are being baked into the new baseline."
  fi
fi
mv "$repo/.run_summary_fresh.json" "$repo/tests/data/run_summary_baseline.json"

echo "wrote $repo/BENCH_solver.json, $repo/BENCH_fleet.json, $repo/BENCH_sim.json and $repo/tests/data/run_summary_baseline.json"
