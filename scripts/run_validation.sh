#!/bin/sh
# Runs the invariant-checker validation matrix (see src/validate/ and
# docs/testing.md):
#
#   1. default build      — full test suite, then the validate-labelled
#                           tests again with run-time checking forced on
#                           for every experiment (EASCHED_VALIDATE=1)
#   2. ASan + UBSan       — validate + faults + resilience + telemetry +
#                           obs suites (obs holds the JSON parser fuzzer);
#                           any undefined-behaviour report fails the run
#   3. ThreadSanitizer    — validate + solver + resilience suites (the
#                           threaded solver and the ladder's thread-count
#                           determinism under the checker)
#
# Usage: scripts/run_validation.sh [fast]
#   fast — default build only (step 1); CI tier-1 runs this.
#
# Opt-in: EASCHED_BENCH_REGRESSION=1 appends a benchmark-regression step —
# a Release build of bench_fleet, bench_micro and bench_event_queue writes
# three sets of reduced BENCH_fleet.json, BENCH_solver.json and
# BENCH_sim.json, and scripts/check_bench_regression.py compares each
# timing's fastest of the three runs against the committed baselines. Off
# by default: it is a wall-clock measurement and needs an idle machine.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
fast="${1:-}"

build() {
  dir="$1"
  shift
  cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DEASCHED_BUILD_BENCH=OFF -DEASCHED_BUILD_EXAMPLES=OFF "$@" >/dev/null
  cmake --build "$dir" -j"$(nproc)" >/dev/null
}

echo "== default build: full suite + validated experiments =="
build "$repo/build-validate"
ctest --test-dir "$repo/build-validate" --output-on-failure -j"$(nproc)"
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate" -L validate \
  --output-on-failure -j"$(nproc)"

if [ "${EASCHED_BENCH_REGRESSION:-}" = "1" ]; then
  echo "== benchmark regression check (opt-in) =="
  cmake -S "$repo" -B "$repo/build-bench-check" -DCMAKE_BUILD_TYPE=Release \
    -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-bench-check" \
    --target bench_fleet bench_micro bench_event_queue -j"$(nproc)" >/dev/null
  # Reduced runs: the checker compares only the names that exist in both
  # files, so fewer sizes, rounds and repetitions still gate the overlap.
  # Three runs, because other load only ever slows a run down: the checker
  # gates each timing at its fastest run.
  bin="$repo/build-bench-check/bench"
  fresh="$repo/build-bench-check"
  for run in 1 2 3; do
    mkdir -p "$fresh/run$run"
    "$bin/bench_fleet" --json --hosts=1000,4000 --rounds=12 --warmup=4 \
      > "$fresh/run$run/BENCH_fleet.json"
    "$bin/bench_micro" --json --reps=3 > "$fresh/run$run/BENCH_solver.json"
    "$bin/bench_event_queue" --json --skip-week \
      > "$fresh/run$run/BENCH_sim.json"
  done
  python3 "$repo/scripts/check_bench_regression.py" --baseline-dir "$repo" \
    --fresh-dir "$fresh/run1" --fresh-dir "$fresh/run2" \
    --fresh-dir "$fresh/run3"
fi

if [ "$fast" = "fast" ]; then
  echo "validation (fast) OK"
  exit 0
fi

echo "== ASan+UBSan build: validate + faults + resilience + telemetry + obs =="
build "$repo/build-validate-asan" -DEASCHED_SANITIZE=address
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate-asan" \
  -L "validate|faults|resilience|telemetry|obs" --output-on-failure -j"$(nproc)"

echo "== thread-sanitized build: validate + solver + resilience =="
build "$repo/build-validate-tsan" -DEASCHED_SANITIZE=thread
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate-tsan" \
  -L "validate|solver|resilience" --output-on-failure -j"$(nproc)"

echo "validation matrix OK"
