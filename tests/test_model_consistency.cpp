// Cross-layer property tests: the ScoreModel's hypothetical bookkeeping
// must agree with what the live Datacenter does once the plan is applied.
// The matrix is only trustworthy as a decision basis if its predicted
// occupations, feasibilities and emptiness judgments match reality.
#include <gtest/gtest.h>

#include "core/hill_climb.hpp"
#include "core/score_matrix.hpp"
#include "test_fixtures.hpp"

namespace easched::core {
namespace {

using datacenter::HostId;
using datacenter::VmId;
using easched::testing::FreshModel;
using easched::testing::SmallDc;
using easched::testing::make_job;

/// Builds a random scenario, plans with hill climbing, applies the plan to
/// the real datacenter and cross-checks the model's predictions.
class ModelConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelConsistency, PlannedOccupationMatchesReality) {
  support::Rng rng{GetParam()};
  SmallDc f(4);
  // Random running population.
  for (int i = 0; i < 5; ++i) {
    workload::Job job = make_job(
        100.0 * static_cast<double>(rng.uniform_int(1, 2)),
        rng.uniform(128, 900), 50000);
    const VmId v = f.dc.admit_job(job);
    std::vector<HostId> fitting;
    for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
      if (f.dc.fits(h, v)) fitting.push_back(h);
    }
    ASSERT_FALSE(fitting.empty());
    f.dc.place(v, fitting[rng.uniform_int(0, fitting.size() - 1)]);
  }
  f.simulator.run_until(300.0);  // creations settle

  // Random queue.
  std::vector<VmId> queue;
  for (int i = 0; i < 3; ++i) {
    queue.push_back(f.dc.admit_job(
        make_job(100.0 * static_cast<double>(rng.uniform_int(1, 2)),
                 rng.uniform(128, 900))));
  }

  FreshModel model(f.dc, queue, ScoreParams{}, false);
  hill_climb(model, HillClimbLimits{});

  // Apply the plan for queued columns and compare occupations.
  for (int c = 0; c < model.cols(); ++c) {
    const int planned = model.plan_row(c);
    if (planned == model.virtual_row()) continue;
    const VmId v = model.vm_at(c);
    const HostId h = model.host_at(planned);
    ASSERT_TRUE(f.dc.fits(h, v)) << "planned placement must be feasible";
    const double predicted = f.dc.occupation_if(h, v);
    f.dc.place(v, h);
    EXPECT_NEAR(f.dc.occupation(h), predicted, 1e-9);
    EXPECT_LE(f.dc.occupation(h), 1.0 + 1e-9);
  }
}

TEST_P(ModelConsistency, HillClimbIsDeterministic) {
  support::Rng rng{GetParam() * 17 + 3};
  SmallDc f(4);
  for (int i = 0; i < 4; ++i) {
    f.admit_and_place(make_job(100, rng.uniform(128, 700), 50000),
                      static_cast<HostId>(i % 4));
  }
  f.simulator.run_until(300.0);
  std::vector<VmId> queue{f.dc.admit_job(make_job()),
                          f.dc.admit_job(make_job(200))};

  FreshModel a(f.dc, queue, ScoreParams{}, true);
  FreshModel b(f.dc, queue, ScoreParams{}, true);
  HillClimbLimits limits;
  const auto sa = hill_climb(a, limits);
  const auto sb = hill_climb(b, limits);
  EXPECT_EQ(sa.moves, sb.moves);
  EXPECT_DOUBLE_EQ(sa.total_gain, sb.total_gain);
  for (int c = 0; c < a.cols(); ++c) EXPECT_EQ(a.plan_row(c), b.plan_row(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelConsistency,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(ModelConsistency, MatrixSnapshotDoesNotMutateDatacenter) {
  SmallDc f(3);
  f.admit_and_place(make_job(200, 700, 50000), 0);
  f.simulator.run_until(200.0);
  std::vector<VmId> queue{f.dc.admit_job(make_job())};
  const double occ_before = f.dc.occupation(0);
  const auto events_before = f.simulator.pending();

  FreshModel model(f.dc, queue, ScoreParams{}, true);
  hill_climb(model, HillClimbLimits{});

  // Planning is pure: the live system is untouched until actions apply.
  EXPECT_DOUBLE_EQ(f.dc.occupation(0), occ_before);
  EXPECT_EQ(f.simulator.pending(), events_before);
  EXPECT_EQ(f.dc.vm(queue[0]).state, datacenter::VmState::kQueued);
}

}  // namespace
}  // namespace easched::core
