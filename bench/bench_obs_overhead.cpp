// Observability overhead check: the instrumentation must be free when it
// is not used.
//
// Three configurations of the same run are timed (bench_common.hpp's
// interleaved overhead harness):
//   baseline   — no Observability bundle attached (recorder.obs == null)
//   disabled   — bundle attached but nothing enabled (the runtime null
//                sink: one pointer load + flag test per would-be event)
//   tracing    — tracer + profiler enabled (the paid path, reported for
//                context; no budget is enforced on it)
//
// `--smoke` (the `bench_obs_overhead_smoke` ctest entry) exits non-zero
// unless (a) the disabled run is behaviourally identical to the baseline —
// same event count, bit-identical energy/migrations — and (b) the median
// paired delta of the disabled run stays within 2 % of the median
// baseline time plus a small absolute slack for timer jitter on loaded CI
// machines.
#include <cstdio>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "support/cli.hpp"

using namespace easched;

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const int repeats = bench::gate_repeats(args);
  args.warn_unrecognized();

  const auto jobs = bench::overhead_workload();
  std::printf("obs overhead: %zu jobs, median of %d interleaved runs each\n",
              jobs.size(), repeats);

  obs::Observability disabled_bundle;  // attached, nothing enabled
  obs::Observability tracing_bundle;
  tracing_bundle.tracer.enable();
  tracing_bundle.profiler.enable();
  bench::Arm baseline{[] { return bench::overhead_config(); }};
  bench::Arm disabled{[&] { return bench::overhead_config(&disabled_bundle); }};
  bench::Arm tracing{[&] { return bench::overhead_config(&tracing_bundle); }};
  bench::time_interleaved(jobs, repeats, {&baseline, &disabled, &tracing});
  // Each repeat appends to the same tracer; per-run count is the total
  // divided by the repeat count.
  const std::size_t events_per_run = tracing_bundle.tracer.size() /
                                     static_cast<std::size_t>(repeats);

  const double base_ms = bench::median(baseline.ms);
  const double disabled_ms = bench::median_delta(disabled, baseline);
  const double tracing_ms = bench::median_delta(tracing, baseline);

  std::printf("  baseline  %8.1f ms\n", base_ms);
  std::printf("  disabled  %+8.1f ms  (%+.2f%%)\n", disabled_ms,
              100.0 * disabled_ms / base_ms);
  std::printf("  tracing   %+8.1f ms  (%+.2f%%, %zu events/run)\n",
              tracing_ms, 100.0 * tracing_ms / base_ms, events_per_run);

  if (!smoke) return 0;

  bench::Smoke gate;
  gate.require_identical(
      disabled.result, baseline.result,
      "disabled-observability run is bit-identical to the baseline");
  gate.require(disabled_bundle.tracer.size() == 0,
               "disabled tracer recorded no events");
  gate.require(events_per_run > 0, "enabled tracer recorded events");
  gate.require_overhead(disabled_ms, base_ms,
                        "disabled-observability overhead within 2% of "
                        "baseline");
  return gate.verdict();
}
