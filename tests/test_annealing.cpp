// Tests for the simulated-annealing solver (the related-work alternative
// of section II).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/annealing.hpp"
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

double plan_cost(const ScoreModel& m) {
  double sum = 0;
  for (int c = 0; c < m.cols(); ++c) sum += m.cell(m.plan_row(c), c);
  return sum;
}

AnnealingParams fast_params(std::uint64_t seed = 1) {
  AnnealingParams p;
  p.seed = seed;
  return p;
}

TEST(Annealing, EmptyModelIsNoop) {
  SmallDc f(2);
  FreshModel m(f.dc, {}, ScoreParams{}, false);
  const auto stats = anneal(m, fast_params());
  EXPECT_EQ(stats.proposals, 0);
}

TEST(Annealing, PlacesQueuedVm) {
  SmallDc f(2);
  const VmId v = f.dc.admit_job(make_job());
  FreshModel m(f.dc, {v}, ScoreParams{}, false);
  anneal(m, fast_params());
  EXPECT_NE(m.plan_row(0), m.virtual_row());  // queue costs kInfScore
}

TEST(Annealing, NeverWorseThanInitialPlan) {
  SmallDc f(3);
  std::vector<VmId> queue;
  for (int i = 0; i < 4; ++i) queue.push_back(f.dc.admit_job(make_job()));
  FreshModel m(f.dc, queue, ScoreParams{}, false);
  const double before = plan_cost(m);
  const auto stats = anneal(m, fast_params());
  EXPECT_LE(plan_cost(m), before + 1e-9);
  EXPECT_NEAR(plan_cost(m), stats.best_cost, 1e-9);
}

TEST(Annealing, DeterministicPerSeed) {
  SmallDc f(3);
  std::vector<VmId> queue;
  for (int i = 0; i < 3; ++i) queue.push_back(f.dc.admit_job(make_job()));
  FreshModel a(f.dc, queue, ScoreParams{}, false);
  FreshModel b(f.dc, queue, ScoreParams{}, false);
  const auto sa = anneal(a, fast_params(7));
  const auto sb = anneal(b, fast_params(7));
  EXPECT_DOUBLE_EQ(sa.best_cost, sb.best_cost);
  for (int c = 0; c < a.cols(); ++c) EXPECT_EQ(a.plan_row(c), b.plan_row(c));
}

TEST(Annealing, MatchesExhaustiveOnSmallInstances) {
  support::Rng rng{5};
  int matches = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    SmallDc f(3);
    std::vector<VmId> queue;
    for (int i = 0; i < 3; ++i) {
      queue.push_back(f.dc.admit_job(
          make_job(100.0 * static_cast<double>(rng.uniform_int(1, 3)),
                   rng.uniform(128, 1024))));
    }
    FreshModel sa_model(f.dc, queue, ScoreParams{}, false);
    const auto sa = anneal(sa_model, fast_params(100 + static_cast<std::uint64_t>(t)));
    FreshModel opt_model(f.dc, queue, ScoreParams{}, false);
    const auto opt = exhaustive_search(opt_model);
    EXPECT_GE(sa.best_cost, opt.best_cost - 1e-9);
    if (sa.best_cost <= opt.best_cost + 1e-6) ++matches;
  }
  EXPECT_GE(matches, trials - 2);  // SA should almost always find optimum
}

TEST(Annealing, AcceptsSomeUphillMovesWhenHot) {
  SmallDc f(3);
  std::vector<VmId> queue;
  for (int i = 0; i < 5; ++i)
    queue.push_back(f.dc.admit_job(make_job(100, 256)));
  FreshModel m(f.dc, queue, ScoreParams{}, false);
  AnnealingParams p = fast_params();
  p.initial_temperature = 500.0;  // hot: uphill acceptance near certain
  const auto stats = anneal(m, p);
  EXPECT_GT(stats.uphill_accepted, 0);
  EXPECT_GE(stats.accepted, stats.uphill_accepted);
}

TEST(Annealing, ColdStartDegeneratesToDescent) {
  SmallDc f(3);
  std::vector<VmId> queue{f.dc.admit_job(make_job())};
  FreshModel m(f.dc, queue, ScoreParams{}, false);
  AnnealingParams p = fast_params();
  p.initial_temperature = 1e-6;  // below min_temperature: no walk at all
  const auto stats = anneal(m, p);
  EXPECT_EQ(stats.proposals, 0);
  // Model untouched (still queued) because no proposals ran.
  EXPECT_EQ(m.plan_row(0), m.virtual_row());
}

// Pins the exact walk on a fleet whose middle hosts take no placements
// (host 2 in maintenance, host 3 off). The walk draws its target from the
// placeable rows plus the virtual row; drawing from every row instead
// would change the random stream and therefore this plan.
TEST(Annealing, PinnedPlanWithUnplaceableMiddleHosts) {
  SmallDc f(6);
  f.admit_and_place(make_job(200, 1024, 20000), 0);
  f.admit_and_place(make_job(100, 512, 30000), 1);
  f.admit_and_place(make_job(100, 2048, 25000), 4);
  f.admit_and_place(make_job(300, 768, 40000), 5);
  f.dc.power_off(3);
  f.simulator.run_until(400.0);
  f.dc.set_maintenance(2, true);
  std::vector<VmId> queue{
      f.dc.admit_job(make_job(100, 512, 5000, 1.5, 400)),
      f.dc.admit_job(make_job(200, 1024, 8000, 1.5, 400)),
      f.dc.admit_job(make_job(100, 256, 3000, 1.5, 400)),
      f.dc.admit_job(make_job(300, 2048, 9000, 1.5, 400)),
      f.dc.admit_job(make_job(100, 768, 6000, 1.5, 400))};
  FreshModel m(f.dc, queue, ScoreParams{}, /*migration_enabled=*/true);
  ASSERT_FALSE(m.placeable(2));
  ASSERT_FALSE(m.placeable(3));

  const auto stats = anneal(m, fast_params(20071001));
  EXPECT_EQ(stats.proposals, 2432);
  EXPECT_EQ(stats.accepted, 111);
  EXPECT_EQ(stats.uphill_accepted, 14);
  EXPECT_EQ(stats.best_cost, -89.801897909040761);

  // Final plan as (VM, host) per column, queued columns first.
  const std::vector<std::pair<VmId, datacenter::HostId>> expected = {
      {4, 1}, {5, 5}, {6, 1}, {7, 4}, {8, 5},
      {0, 1}, {1, 5}, {2, 4}, {3, 0}};
  ASSERT_EQ(m.cols(), static_cast<int>(expected.size()));
  for (int c = 0; c < m.cols(); ++c) {
    ASSERT_NE(m.plan_row(c), m.virtual_row()) << "col " << c;
    EXPECT_EQ(m.vm_at(c), expected[static_cast<std::size_t>(c)].first);
    EXPECT_EQ(m.host_at(m.plan_row(c)),
              expected[static_cast<std::size_t>(c)].second)
        << "col " << c;
  }
}

}  // namespace
}  // namespace easched::core
