// Fleet-scale validated run: 1000 hosts over half a day with the invariant
// checker on. Every round checks the incremental fleet snapshot and bucket
// index against a fresh re-read (kFleetSnapshot, kFleetIndex) and every
// warmed score-matrix cell against a fresh recomputation (kScoreCache), so
// the recycled model scratch — whose power-off models, with every running
// VM as a column, alternate with small schedule() models — is held to the
// cache contract at a size the small-week tests never reach. The same run
// on 1 and on 4 solver threads must report byte-identical results.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "core/score_based_policy.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "validate/invariant_checker.hpp"
#include "workload/synthetic.hpp"

namespace easched::core {
namespace {

/// Half a day of arrivals at ten times the 100-host evaluation intensity.
workload::Workload fleet_half_day() {
  workload::SyntheticConfig c;
  c.span_seconds = 0.5 * sim::kDay;
  c.mean_jobs_per_hour *= 10;
  return workload::generate(c);
}

experiments::RunResult validated_fleet_run(const workload::Workload& jobs,
                                           int threads) {
  ScoreBasedConfig cfg = ScoreBasedConfig::sb();
  cfg.solver_threads = threads;
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(150, 500, 350);
  config.datacenter.seed = 5;
  config.policy_instance = std::make_unique<ScoreBasedPolicy>(cfg);
  config.horizon_s = 90 * sim::kDay;
  config.validate.enabled = true;
  return experiments::run_experiment(jobs, std::move(config));
}

/// The run's report as written: the table line and every run counter.
std::string report_bytes(const experiments::RunResult& r) {
  return r.report.to_string() + "\n" + r.report.metrics.to_csv();
}

void expect_violation_free(const experiments::RunResult& r) {
  EXPECT_GT(r.invariant_checks, 0u);
  for (const validate::Violation& v : r.violations) {
    ADD_FAILURE() << validate::to_string(v.rule) << " at t=" << v.t << ": "
                  << v.message;
  }
}

TEST(FleetScaleValidated, ThousandHostHalfDayIsViolationFreeOnAnyThreadCount) {
  const workload::Workload jobs = fleet_half_day();
  const experiments::RunResult serial = validated_fleet_run(jobs, 1);
  expect_violation_free(serial);
  EXPECT_EQ(serial.jobs_finished, serial.jobs_submitted);
  const experiments::RunResult threaded = validated_fleet_run(jobs, 4);
  expect_violation_free(threaded);
  EXPECT_EQ(report_bytes(threaded), report_bytes(serial));
  EXPECT_EQ(threaded.report.energy_kwh, serial.report.energy_kwh);  // bitwise
  EXPECT_EQ(threaded.report.satisfaction, serial.report.satisfaction);
}

}  // namespace
}  // namespace easched::core
