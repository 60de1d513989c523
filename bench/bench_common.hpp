// Shared plumbing of the paper-reproduction benches: the standard week
// workload, a row formatter matching the paper's table columns, the
// "paper said / we measured" footers that EXPERIMENTS.md quotes, the
// timing harness of the disabled-overhead gates, the micro-benchmark case
// timer and the one writer of the committed BENCH_*.json files.
#pragma once

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "experiments/sweep.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "workload/synthetic.hpp"

namespace easched::bench {

inline constexpr std::uint64_t kSeed = 20071001;

/// The evaluation workload (synthetic stand-in for the Grid5000 week; see
/// DESIGN.md substitutions).
inline workload::Workload week_workload(std::uint64_t seed = kSeed) {
  return workload::evaluation_workload(seed);
}

/// The standard week configuration: 100-node evaluation datacenter, policy
/// by name, threshold pair.
inline experiments::RunConfig week_run_config(const std::string& policy,
                                              double lambda_min = 0.30,
                                              double lambda_max = 0.90) {
  experiments::RunConfig config;
  config.datacenter = experiments::evaluation_datacenter(kSeed);
  config.policy = policy;
  config.driver.power.lambda_min = lambda_min;
  config.driver.power.lambda_max = lambda_max;
  return config;
}

/// SweepTask for one standard week run. The config factory re-creates the
/// RunConfig on whichever worker thread executes the task (RunConfig is
/// move-only, so tasks carry the recipe, not the value). `jobs` must
/// outlive the sweep.
inline experiments::SweepTask week_task(const workload::Workload& jobs,
                                        std::string policy,
                                        double lambda_min = 0.30,
                                        double lambda_max = 0.90) {
  return {&jobs, [policy = std::move(policy), lambda_min, lambda_max] {
            return week_run_config(policy, lambda_min, lambda_max);
          }};
}

/// Runs one policy over the week on the 100-node evaluation datacenter.
inline experiments::RunResult run_week(
    const workload::Workload& jobs, const std::string& policy,
    double lambda_min = 0.30, double lambda_max = 0.90,
    std::unique_ptr<sched::Policy> instance = nullptr) {
  experiments::RunConfig config = week_run_config(policy, lambda_min,
                                                  lambda_max);
  config.policy_instance = std::move(instance);
  return experiments::run_experiment(jobs, std::move(config));
}

/// Table row in the paper's column layout.
inline std::vector<std::string> report_row(const std::string& label,
                                           const metrics::RunReport& r,
                                           bool with_lambda = false,
                                           bool with_migrations = false) {
  using support::TextTable;
  std::vector<std::string> row{label};
  if (with_lambda) {
    row.push_back(TextTable::num(r.lambda_min * 100, 0) + "-" +
                  TextTable::num(r.lambda_max * 100, 0));
  }
  row.push_back(TextTable::num(r.avg_working, 1) + " / " +
                TextTable::num(r.avg_online, 1));
  row.push_back(TextTable::num(r.cpu_hours, 1));
  row.push_back(TextTable::num(r.energy_kwh, 1));
  row.push_back(TextTable::num(r.satisfaction, 1));
  row.push_back(TextTable::num(r.delay_pct, 1));
  if (with_migrations) {
    row.push_back(std::to_string(r.migrations));
  }
  return row;
}

inline std::vector<std::string> table_header(bool with_lambda,
                                             bool with_migrations) {
  std::vector<std::string> h{"policy"};
  if (with_lambda) h.push_back("lambda");
  h.insert(h.end(), {"Work/ON", "CPU (h)", "Pwr (kWh)", "S (%)", "delay (%)"});
  if (with_migrations) h.push_back("Mig");
  return h;
}

inline void print_banner(const char* experiment, const char* paper_claim) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper: %s\n\n", paper_claim);
}

/// Median of `v` (0 when empty).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2]
                                  : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// ---- disabled-overhead gates ----------------------------------------------
//
// bench_obs_overhead, bench_attribution_smoke, bench_resilience_smoke and
// bench_telemetry_smoke time one run in a baseline configuration and in
// instrumented ones ("arms"). Every arm runs once per repeat, interleaved,
// so machine-wide drift (thermal throttling, background load) biases all
// arms equally. An arm's cost is the median of its per-repeat deltas
// against the baseline run of the same repeat, which cancels slow drift a
// min-vs-min comparison cannot.

/// The gates' workload: a synthetic week at 25 jobs per hour.
inline workload::Workload overhead_workload() {
  workload::SyntheticConfig c;
  c.seed = kSeed;
  c.span_seconds = 7.0 * sim::kDay;
  c.mean_jobs_per_hour = 25;
  return workload::generate(c);
}

/// The gates' run: 40 hosts under SB with a 90-day safety horizon and
/// `bundle` attached (null = no observability bundle).
inline experiments::RunConfig overhead_config(
    obs::Observability* bundle = nullptr) {
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(8, 20, 12);
  config.datacenter.seed = kSeed;
  config.policy = "SB";
  config.horizon_s = 90 * sim::kDay;
  config.obs = bundle;
  return config;
}

/// One configuration of an overhead gate.
struct Arm {
  explicit Arm(std::function<experiments::RunConfig()> make)
      : config(std::move(make)) {}

  std::function<experiments::RunConfig()> config;  ///< built per repeat
  std::vector<double> ms;          ///< wall-clock time of each repeat
  experiments::RunResult result;   ///< the last repeat's result
};

/// `n`, the value of option `--name`. Exits with status 2 unless
/// lo <= n <= INT_MAX.
inline int checked_int(std::int64_t n, const char* name, int lo) {
  if (n < lo || n > INT_MAX) {
    std::fprintf(stderr, "--%s must be in [%d, %d] (got %lld)\n", name, lo,
                 INT_MAX, static_cast<long long>(n));
    std::exit(2);
  }
  return static_cast<int>(n);
}

/// The gates' `--repeats=N` (default 21), at least 1: every gate reads its
/// arms' last repeat. 21 paired deltas put the median's spread well inside
/// the 2 % budget on a shared machine; 7 did not.
inline int gate_repeats(const support::CliArgs& args) {
  return checked_int(args.get_int("repeats", 21), "repeats", 1);
}

/// Runs every arm `repeats` times (>= 1, see gate_repeats), interleaved, after one untimed warm-up
/// run of the first arm: it pays the allocator/page-cache costs that would
/// otherwise be billed to whichever arm goes first. The clock covers
/// run_experiment() only: neither building the arm's config nor releasing
/// the previous repeat's result.
inline void time_interleaved(const workload::Workload& jobs, int repeats,
                             std::initializer_list<Arm*> arms) {
  experiments::run_experiment(jobs, (*arms.begin())->config());
  for (int i = 0; i < repeats; ++i) {
    for (Arm* arm : arms) {
      experiments::RunConfig config = arm->config();
      const auto begin = std::chrono::steady_clock::now();
      auto result = experiments::run_experiment(jobs, std::move(config));
      const auto end = std::chrono::steady_clock::now();
      arm->ms.push_back(
          std::chrono::duration<double, std::milli>(end - begin).count());
      arm->result = std::move(result);
    }
  }
}

/// Median of `arm`'s per-repeat deltas against `baseline` [ms].
inline double median_delta(const Arm& arm, const Arm& baseline) {
  std::vector<double> delta;
  for (std::size_t i = 0; i < arm.ms.size(); ++i) {
    delta.push_back(arm.ms[i] - baseline.ms[i]);
  }
  return median(std::move(delta));
}

/// The `--smoke` verdict of an overhead gate; failed checks print as they
/// are made.
class Smoke {
 public:
  void require(bool ok, const char* what) {
    if (!ok) {
      std::printf("SMOKE FAIL: %s\n", what);
      bad_ = 1;
    }
  }

  /// `run` is behaviourally identical to `baseline`: the same event count,
  /// bit-identical energy and migrations.
  void require_identical(const experiments::RunResult& run,
                         const experiments::RunResult& baseline,
                         const char* what) {
    require(run.events_dispatched == baseline.events_dispatched &&
                run.report.energy_kwh == baseline.report.energy_kwh &&
                run.report.migrations == baseline.report.migrations,
            what);
  }

  /// The shared budget: at most 2 % of the median baseline time, with
  /// 5 ms of absolute slack against timer jitter.
  void require_overhead(double delta_ms, double base_ms, const char* what) {
    require(delta_ms <= base_ms * 0.02 + 5.0, what);
  }

  /// Prints SMOKE OK when every check passed; returns the exit code.
  [[nodiscard]] int verdict() const {
    if (bad_ == 0) std::printf("SMOKE OK\n");
    return bad_;
  }

 private:
  int bad_ = 0;
};

// ---- micro-benchmark case timer -------------------------------------------

/// Per-operation time of one case [ns].
struct CaseTime {
  double median_ns = 0;
  double p99_ns = 0;  ///< nearest rank; below 100 repetitions, the slowest
};

/// Times `op` (a callable returning a number its work produces): one
/// untimed warm-up call, then `reps` >= 1 repetitions of an inner batch of
/// calls, each repetition giving one per-operation sample. The batch is
/// sized from the warm-up call so that a repetition lasts about 1 ms,
/// which lifts sub-microsecond cases far above the clock's resolution.
/// Every result is stored to a volatile, so the compiler must compute it.
template <typename Op>
CaseTime time_case(int reps, Op&& op) {
  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point begin) {
    return std::chrono::duration<double, std::nano>(Clock::now() - begin)
        .count();
  };
  [[maybe_unused]] volatile double sink = 0;
  auto begin = Clock::now();
  sink = op();
  const int batch =
      static_cast<int>(std::clamp(1e6 / ns_since(begin), 1.0, 1e6));
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    begin = Clock::now();
    for (int i = 0; i < batch; ++i) sink = op();
    per_op.push_back(ns_since(begin) / batch);
  }
  std::sort(per_op.begin(), per_op.end());
  const auto rank = static_cast<std::size_t>(std::ceil(0.99 * reps));
  return {median(per_op), per_op[rank - 1]};
}

// ---- BENCH_*.json ----------------------------------------------------------

/// One measurement of a committed baseline.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;  ///< "bool" entries are 1 (holds) or 0 (violated)
};

/// Writes `metrics` to stdout as the document every BENCH_*.json shares:
/// a context block (UTC date, commit, build type, compiler, hardware
/// threads) and a name/value/unit list. EASCHED_BENCH_COMMIT and
/// EASCHED_BENCH_BUILD_TYPE come from bench/CMakeLists.txt; no string
/// written here needs JSON escaping.
inline void write_json(const std::vector<Metric>& metrics) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf("{\n  \"context\": {\"date\": \"%s\", \"commit\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"hw_threads\": %u},\n  \"benchmarks\": [\n",
              date, EASCHED_BENCH_COMMIT, EASCHED_BENCH_BUILD_TYPE,
              __VERSION__, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"value\": %.6g, "
                "\"unit\": \"%s\"}%s\n",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str(), i + 1 < metrics.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

/// Prints `metrics` as a name / value / unit table.
inline void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace easched::bench
