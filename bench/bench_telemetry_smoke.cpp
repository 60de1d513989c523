// Telemetry overhead + determinism check: the live telemetry plane must be
// free when not enabled, and must not perturb the simulation when it is.
//
// Three configurations of the same run are timed (bench_common.hpp's
// interleaved overhead harness):
//   baseline   — no Observability bundle (recorder.obs == null)
//   disabled   — bundle attached, telemetry not enabled (what every run
//                pays for the plane existing: one null check in the runner)
//   sampled    — telemetry enabled at the default 60 s cadence with an
//                in-memory sink and an alert rule (the paid path, reported
//                for context; no budget enforced on it)
//
// `--smoke` (the `bench_telemetry_smoke` ctest entry) exits non-zero
// unless (a) the disabled run stays bit-identical to the baseline, (b) the
// median paired delta stays within 2% of the baseline time (+ absolute
// slack for timer jitter), and (c) the sampled run's simulation outcome is
// bit-identical to the baseline — sampling observes, never steers.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "support/cli.hpp"

using namespace easched;

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const int repeats = bench::gate_repeats(args);
  args.warn_unrecognized();

  const auto jobs = bench::overhead_workload();
  std::printf(
      "telemetry overhead: %zu jobs, median of %d interleaved runs each\n",
      jobs.size(), repeats);

  obs::Observability disabled_bundle;  // attached, telemetry not enabled
  // The plane's seq counter and ring persist across runs, so the sampled
  // configuration gets a fresh bundle each repeat.
  std::unique_ptr<obs::Observability> sampled_bundle;
  bench::Arm baseline{[] { return bench::overhead_config(); }};
  bench::Arm disabled{[&] { return bench::overhead_config(&disabled_bundle); }};
  bench::Arm sampled{[&] {
    sampled_bundle = std::make_unique<obs::Observability>();
    sampled_bundle->telemetry.enable();
    sampled_bundle->telemetry.add_sink(std::make_unique<obs::MemorySink>());
    sampled_bundle->telemetry.set_alert_rules(
        obs::parse_alert_rules("queue_depth>50 for=600"));
    return bench::overhead_config(sampled_bundle.get());
  }};
  bench::time_interleaved(jobs, repeats, {&baseline, &disabled, &sampled});
  const std::uint64_t samples_taken =
      sampled_bundle->telemetry.samples_taken();

  const double base_ms = bench::median(baseline.ms);
  const double disabled_ms = bench::median_delta(disabled, baseline);
  const double sampled_ms = bench::median_delta(sampled, baseline);

  std::printf("  baseline    %8.1f ms\n", base_ms);
  std::printf("  disabled    %+8.1f ms  (%+.2f%%)\n", disabled_ms,
              100.0 * disabled_ms / base_ms);
  std::printf("  sampled     %+8.1f ms  (%+.2f%%)  [%llu samples]\n",
              sampled_ms, 100.0 * sampled_ms / base_ms,
              static_cast<unsigned long long>(samples_taken));

  if (!smoke) return 0;

  bench::Smoke gate;
  gate.require_identical(disabled.result, baseline.result,
                         "disabled-telemetry run is bit-identical to the "
                         "baseline");
  gate.require(disabled_bundle.telemetry.samples_taken() == 0,
               "disabled plane took no samples");
  // The sampling periodic adds events to the queue but must never change
  // what the simulation computes.
  gate.require(sampled.result.report.energy_kwh ==
                       baseline.result.report.energy_kwh &&
                   sampled.result.report.migrations ==
                       baseline.result.report.migrations &&
                   sampled.result.report.satisfaction ==
                       baseline.result.report.satisfaction,
               "sampling does not perturb the simulation");
  gate.require(samples_taken > 0, "enabled plane sampled the run");
  gate.require_overhead(disabled_ms, base_ms,
                        "disabled-telemetry overhead within 2% of baseline");
  return gate.verdict();
}
