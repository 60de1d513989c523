// The benchmark's workloads: whole simulated runs of the score-based
// policy (SB) on the evaluation host mix, each built from a seed.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/score_based_policy.hpp"
#include "datacenter/host_spec.hpp"
#include "experiments/runner.hpp"
#include "workload/job.hpp"

namespace e2ebench {

/// Seed whose fingerprint each workload keeps in reference.txt; it is also
/// the seed of the paper-reproduction benches' evaluation week.
inline constexpr std::uint64_t kDefaultSeed = 20071001;

struct WorkloadSpec {
  std::string name;
  /// Independent inputs per benchmark run, drawn from the run's seed
  /// (see input_seed). One input's cost varies a lot with its seed; the
  /// median over several is what makes a run's figures steady.
  int inputs = 1;
  /// evaluation_hosts(fast, medium, slow)
  std::size_t fast = 15;
  std::size_t medium = 50;
  std::size_t slow = 35;
  std::size_t initially_on = std::numeric_limits<std::size_t>::max();
  double span_hours = 7 * 24;  ///< job submission window
  double rate_factor = 1;      ///< x the evaluation arrival intensity
  double diurnal_amplitude = 0.7;
  std::string fault_spec;        ///< empty: no fault injection
  double telemetry_period_s = 0;  ///< 0: no telemetry plane
  bool energy_ledger = false;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when no workload has this name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// What a run needs before run_experiment: the generated jobs, the host
/// specs and the policy. Building one is what `setup_s` times.
struct Setup {
  easched::workload::Workload jobs;
  std::vector<easched::datacenter::HostSpec> hosts;
  std::unique_ptr<easched::core::ScoreBasedPolicy> policy;
};

/// Seed of input `i` of a run with seed `seed`. Input 0 uses the seed
/// itself, so the default seed's first input is the evaluation week.
[[nodiscard]] constexpr std::uint64_t input_seed(std::uint64_t seed, int i) {
  return seed + static_cast<std::uint64_t>(i) * 1'000'003ULL;
}

[[nodiscard]] Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed);

/// The run configuration of a workload, without policy or observability.
[[nodiscard]] easched::experiments::RunConfig make_run_config(
    const WorkloadSpec& spec, std::uint64_t seed,
    std::vector<easched::datacenter::HostSpec> hosts);

}  // namespace e2ebench
