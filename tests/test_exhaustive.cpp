// Tests for the exhaustive reference solver and the hill-climbing quality
// gap it measures (section III-B's "suboptimal solution" claim).
#include <gtest/gtest.h>

#include "core/exhaustive.hpp"
#include "core/hill_climb.hpp"
#include "core/score_matrix.hpp"
#include "test_fixtures.hpp"

namespace easched::core {
namespace {

using datacenter::VmId;
using easched::testing::FreshModel;
using easched::testing::SmallDc;
using easched::testing::make_job;

ScoreParams params() {
  ScoreParams p;
  return p;
}

double plan_cost(const ScoreModel& m) {
  double sum = 0;
  for (int c = 0; c < m.cols(); ++c) sum += m.cell(m.plan_row(c), c);
  return sum;
}

TEST(Exhaustive, EmptyModelIsTrivial) {
  SmallDc f(2);
  FreshModel m(f.dc, {}, params(), false);
  const auto result = exhaustive_search(m);
  EXPECT_EQ(result.evaluated, 0u);
}

TEST(Exhaustive, SingleVmPicksGlobalMinimum) {
  datacenter::DatacenterConfig config;
  config.hosts = {datacenter::HostSpec::slow(), datacenter::HostSpec::fast(),
                  datacenter::HostSpec::medium()};
  config.duration_sigma_ratio = 0;
  sim::Simulator simulator;
  metrics::Recorder recorder(3);
  datacenter::Datacenter dc(simulator, config, recorder);
  const VmId v = dc.admit_job(make_job());

  ScoreParams p = params();  // Pvirt on: creation cost differentiates hosts
  FreshModel m(dc, {v}, p, false);
  const auto result = exhaustive_search(m);
  EXPECT_EQ(m.plan_row(0), 1);  // the fast host (Cc = 30) wins
  // (M+1)^1 plans with the queue state included.
  EXPECT_EQ(result.evaluated, 4u);
}

TEST(Exhaustive, EnumerationCountMatchesFormula) {
  SmallDc f(2);
  std::vector<VmId> queue;
  for (int i = 0; i < 3; ++i) queue.push_back(f.dc.admit_job(make_job()));
  FreshModel m(f.dc, queue, params(), false);
  const auto result = exhaustive_search(m);
  // 3 queued columns x (2 hosts + virtual) = 3^3 = 27 complete plans.
  EXPECT_EQ(result.evaluated, 27u);
}

TEST(Exhaustive, RestoresModelToBestPlan) {
  SmallDc f(2);
  std::vector<VmId> queue{f.dc.admit_job(make_job(300, 512)),
                          f.dc.admit_job(make_job(300, 512))};
  FreshModel m(f.dc, queue, params(), false);
  const auto result = exhaustive_search(m);
  EXPECT_NEAR(plan_cost(m), result.best_cost, 1e-9);
  // Two 300 % VMs cannot share a 400 % host: the best plan splits them.
  EXPECT_NE(m.plan_row(0), m.plan_row(1));
}

TEST(Exhaustive, RespectsPlanCap) {
  SmallDc f(3);
  std::vector<VmId> queue;
  for (int i = 0; i < 5; ++i) queue.push_back(f.dc.admit_job(make_job()));
  FreshModel m(f.dc, queue, params(), false);
  const auto result = exhaustive_search(m, /*max_plans=*/10);
  EXPECT_LE(result.evaluated, 10u);
}

TEST(Exhaustive, HillClimbMatchesOptimumOnPlacementOnlyInstances) {
  // Placement rounds (the common case) — greedy should find the optimum
  // or land very close, on many random small instances.
  support::Rng rng{99};
  int optimal_hits = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    SmallDc f(3);
    std::vector<VmId> queue;
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < n; ++i) {
      static constexpr double kCpu[3] = {100, 200, 300};
      queue.push_back(f.dc.admit_job(
          make_job(kCpu[rng.uniform_int(0, 2)], rng.uniform(128, 1024))));
    }
    FreshModel greedy_model(f.dc, queue, params(), false);
    hill_climb(greedy_model, HillClimbLimits{});
    const double greedy_cost = plan_cost(greedy_model);

    FreshModel opt_model(f.dc, queue, params(), false);
    const auto opt = exhaustive_search(opt_model);

    EXPECT_GE(greedy_cost, opt.best_cost - 1e-9);  // optimum is a bound
    if (greedy_cost <= opt.best_cost + 1e-6) ++optimal_hits;
  }
  // Greedy should hit the optimum in the vast majority of small instances.
  EXPECT_GE(optimal_hits, trials * 2 / 3);
}

TEST(Exhaustive, GreedyGapBoundedOnMixedInstances) {
  // Mixed placement + migration instances: quantify the mean optimality
  // gap of Algorithm 1. The paper accepts suboptimality; we assert it is
  // modest (mean < 15 % of the optimal improvement range).
  support::Rng rng{123};
  double gap_sum = 0;
  int gap_count = 0;
  for (int t = 0; t < 20; ++t) {
    SmallDc f(3);
    // Seed some running VMs.
    for (int i = 0; i < 3; ++i) {
      f.admit_and_place(make_job(100 + 100 * (i % 2), 512, 50000),
                        static_cast<datacenter::HostId>(i % 3));
    }
    f.simulator.run_until(200.0);
    std::vector<VmId> queue{
        f.dc.admit_job(make_job(100, rng.uniform(128, 512)))};

    auto limits = HillClimbLimits{};
    limits.min_migration_gain = 1e-9;  // full freedom, like the optimum
    limits.max_migration_moves = 1000;
    FreshModel greedy_model(f.dc, queue, params(), true);
    hill_climb(greedy_model, limits);
    const double greedy_cost = plan_cost(greedy_model);

    FreshModel opt_model(f.dc, queue, params(), true);
    const auto opt = exhaustive_search(opt_model);

    EXPECT_GE(greedy_cost, opt.best_cost - 1e-9);
    if (std::abs(opt.best_cost) > 1e-9) {
      gap_sum += (greedy_cost - opt.best_cost) /
                 std::max(std::abs(opt.best_cost), 1.0);
      ++gap_count;
    }
  }
  ASSERT_GT(gap_count, 0);
  EXPECT_LT(gap_sum / gap_count, 0.15);
}

}  // namespace
}  // namespace easched::core
