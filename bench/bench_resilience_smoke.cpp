// Resilience control-plane overhead check: the controller must be free
// when it has nothing to do.
//
// Two configurations of the same run are timed (bench_common.hpp's
// interleaved overhead harness):
//   baseline — no ResilienceController attached (recorder.resilience ==
//              null, every hook is one pointer test)
//   idle     — controller attached and enabled, but with every mechanism
//              neutralised: unlimited solver budget (watchdog off),
//              unbounded queue (admission off), breaker threshold 0
//              (breakers off). The per-round bookkeeping still runs.
//
// `--smoke` (the `bench_resilience_smoke` ctest entry) exits non-zero
// unless (a) the idle run is behaviourally identical to the baseline —
// same event count, bit-identical energy/migrations, nothing shed — and
// (b) the median paired delta of the idle run stays within 2 % of the
// median baseline time plus a small absolute slack for timer jitter on
// loaded CI machines.
#include <cstdio>

#include "bench_common.hpp"
#include "resilience/resilience.hpp"
#include "support/cli.hpp"

using namespace easched;

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const int repeats = bench::gate_repeats(args);
  args.warn_unrecognized();

  const auto jobs = bench::overhead_workload();
  std::printf(
      "resilience overhead: %zu jobs, median of %d interleaved runs each\n",
      jobs.size(), repeats);

  bench::Arm baseline{[] { return bench::overhead_config(); }};
  bench::Arm idle{[] {
    experiments::RunConfig config = bench::overhead_config();
    config.resilience.enabled = true;
    config.resilience.solver_budget_moves = 0;  // watchdog off: kFull only
    config.resilience.max_pending = 0;          // admission control off
    config.resilience.breaker_threshold = 0;    // breakers off
    return config;
  }};
  bench::time_interleaved(jobs, repeats, {&baseline, &idle});

  const double base_ms = bench::median(baseline.ms);
  const double idle_ms = bench::median_delta(idle, baseline);

  std::printf("  baseline  %8.1f ms\n", base_ms);
  std::printf("  idle      %+8.1f ms  (%+.2f%%)\n", idle_ms,
              100.0 * idle_ms / base_ms);

  if (!smoke) return 0;

  bench::Smoke gate;
  gate.require_identical(idle.result, baseline.result,
                         "idle-controller run is bit-identical to the "
                         "baseline");
  gate.require(idle.result.jobs_shed == 0 &&
                   idle.result.report.jobs_deferred == 0,
               "idle controller shed or deferred nothing");
  gate.require(idle.result.report.solver_breaches == 0 &&
                   idle.result.report.max_ladder_level == 0,
               "idle controller never walked the ladder");
  gate.require_overhead(idle_ms, base_ms,
                        "idle-controller overhead within 2% of baseline");
  return gate.verdict();
}
