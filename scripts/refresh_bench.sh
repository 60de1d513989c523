#!/bin/sh
# Regenerates the committed benchmark baselines in Release mode:
#
#   BENCH_solver.json — google-benchmark output of bench_micro (solver +
#                       simulator microbenchmarks)
#   BENCH_fleet.json  — incremental-vs-reference scheduling-round times at
#                       fleet scale (bench_fleet --json; both variants run
#                       in the same binary and the action streams must
#                       match, so the speedups compare identical decisions)
#   BENCH_sim.json    — simulation-kernel benchmarks (bench_event_queue
#                       --json): pooled vs reference event queue on the
#                       churn and cancel+reschedule patterns (both queues
#                       in the same binary), whole-run week throughput and
#                       sweep scaling.
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
# Usage: scripts/refresh_bench.sh [fast]
#   fast — skip the whole-run week sections (microbenches + sweep only);
#          the committed file should be produced WITHOUT fast.
#
# Run on an otherwise idle machine; the JSON context blocks record the
# hardware so numbers are interpretable later.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
fast="${1:-}"
week_flag=""
if [ "$fast" = "fast" ]; then
  week_flag="--skip-week"
fi

echo "== building bench tree =="
cmake -S "$repo" -B "$repo/build-bench" -DCMAKE_BUILD_TYPE=Release \
  -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$repo/build-bench" \
  --target bench_event_queue bench_micro bench_fleet -j"$(nproc)" >/dev/null

echo "== BENCH_solver.json (bench_micro) =="
"$repo/build-bench/bench/bench_micro" \
  --benchmark_out="$repo/BENCH_solver.json" --benchmark_out_format=json \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true

# The bench binary is built Release above, but the google-benchmark
# *library* it links carries its own build type into the JSON context — a
# debug harness skews every timing loop, and a baseline measured through
# it is worthless. Refuse to commit such numbers.
if grep -q '"library_build_type": *"debug"' "$repo/BENCH_solver.json"; then
  echo "ERROR: the linked google-benchmark library is a debug build" >&2
  echo "       (BENCH_solver.json context reports library_build_type" >&2
  echo "       \"debug\"); install/point CMake at a release build of" >&2
  echo "       google-benchmark and re-run." >&2
  exit 1
fi

echo "== BENCH_fleet.json (bench_fleet) =="
# No google-benchmark dependency: the binary times its own rounds and
# refuses to report a speedup unless both variants emitted identical
# action streams.
"$repo/build-bench/bench/bench_fleet" --json > "$repo/BENCH_fleet.json"

echo "== BENCH_sim.json (bench_event_queue) =="
# shellcheck disable=SC2086
"$repo/build-bench/bench/bench_event_queue" --json $week_flag \
  > "$repo/.bench_sim.json"
{
  echo '{'
  echo '  "comment": "simulation-kernel benchmarks; after = this tree, with pooled vs reference event queue measured in the same binary. Generated by scripts/refresh_bench.sh.",'
  echo '  "date": "'"$(date -u +%Y-%m-%dT%H:%M:%SZ)"'",'
  echo '  "after":'
  sed 's/^/  /' "$repo/.bench_sim.json"
  echo '}'
} > "$repo/BENCH_sim.json"
rm -f "$repo/.bench_sim.json"

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
