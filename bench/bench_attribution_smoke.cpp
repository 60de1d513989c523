// Attribution overhead + conservation check: the energy ledger and
// decision log must be free when not enabled, and exact when they are.
//
// Three configurations of the same run are timed (bench_common.hpp's
// interleaved overhead harness):
//   baseline    — no Observability bundle (recorder.obs == null)
//   disabled    — bundle attached, ledger/decisions not enabled (the
//                 runtime null sink every instrumented call site pays)
//   attributed  — ledger + decision log enabled (the paid path, reported
//                 for context; no budget enforced on it)
//
// `--smoke` (the `bench_attribution_smoke` ctest entry) exits non-zero
// unless (a) the disabled run stays bit-identical to the baseline, (b) the
// median paired delta stays within 2% of the baseline time (+ absolute
// slack for timer jitter), and (c) the attributed run's per-host joules
// sum to the aggregate RunReport energy within 0.1% — the ledger watches
// the identical power signal, so the books must balance.
#include <cmath>
#include <cstdio>
#include <memory>

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
  std::printf(
      "attribution overhead: %zu jobs, median of %d interleaved runs each\n",
      jobs.size(), repeats);

  obs::Observability disabled_bundle;  // attached, nothing enabled
  // The ledger accumulates across runs, so the attributed configuration
  // gets a fresh bundle each repeat.
  std::unique_ptr<obs::Observability> attributed_bundle;
  bench::Arm baseline{[] { return bench::overhead_config(); }};
  bench::Arm disabled{[&] { return bench::overhead_config(&disabled_bundle); }};
  bench::Arm attributed{[&] {
    attributed_bundle = std::make_unique<obs::Observability>();
    attributed_bundle->ledger.enable();
    attributed_bundle->decisions.enable();
    return bench::overhead_config(attributed_bundle.get());
  }};
  bench::time_interleaved(jobs, repeats, {&baseline, &disabled, &attributed});

  // Conservation check on the final repeat's ledger.
  const double ledger_kwh = attributed_bundle->ledger.total_j() / 3.6e6;
  const double report_kwh = attributed.result.report.energy_kwh;
  const double rel =
      report_kwh > 0 ? std::fabs(ledger_kwh - report_kwh) / report_kwh : 0.0;
  std::printf("  ledger %0.6f kWh vs report %0.6f kWh (rel %.2e)\n",
              ledger_kwh, report_kwh, rel);

  const double base_ms = bench::median(baseline.ms);
  const double disabled_ms = bench::median_delta(disabled, baseline);
  const double attributed_ms = bench::median_delta(attributed, baseline);

  std::printf("  baseline    %8.1f ms\n", base_ms);
  std::printf("  disabled    %+8.1f ms  (%+.2f%%)\n", disabled_ms,
              100.0 * disabled_ms / base_ms);
  std::printf("  attributed  %+8.1f ms  (%+.2f%%)\n", attributed_ms,
              100.0 * attributed_ms / base_ms);

  if (!smoke) return 0;

  bench::Smoke gate;
  gate.require(report_kwh > 0 && rel <= 1e-3,
               "ledger joules within 0.1% of RunReport");
  gate.require(attributed_bundle->decisions.size() > 0,
               "decision log recorded decisions");
  gate.require_identical(disabled.result, baseline.result,
                         "disabled-attribution run is bit-identical to the "
                         "baseline");
  gate.require(disabled_bundle.ledger.total_j() == 0,
               "disabled ledger integrated no joules");
  gate.require(disabled_bundle.decisions.size() == 0,
               "disabled decision log recorded no decisions");
  gate.require(attributed.result.report.energy_kwh ==
                   baseline.result.report.energy_kwh,
               "attribution does not perturb the simulation");
  gate.require_overhead(disabled_ms, base_ms,
                        "disabled-attribution overhead within 2% of "
                        "baseline");
  return gate.verdict();
}
