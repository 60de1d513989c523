// Ablation A9: solution quality and cost of Algorithm 1 vs exhaustive
// search (section III-B: hill climbing "finds a suboptimal solution much
// faster and cheaper than evaluating all possible configurations").
//
// On small instances (where exhaustive search is feasible) we measure how
// far the greedy plan lands from the true optimum and how many plans the
// exhaustive search had to score; on the evaluation-scale instance we
// report the greedy solver's wall time per round.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/annealing.hpp"
#include "core/exhaustive.hpp"
#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score_matrix.hpp"

namespace {

using namespace easched;

double plan_cost(const core::ScoreModel& m) {
  double sum = 0;
  for (int c = 0; c < m.cols(); ++c) sum += m.cell(m.plan_row(c), c);
  return sum;
}

/// A score model over its own freshly refreshed (all-dirty) fleet
/// snapshot, so every solver below starts from an identical matrix.
struct FreshModel {
  core::FleetState fleet;
  core::ScoreModel model;

  FreshModel(const datacenter::Datacenter& dc,
             const std::vector<datacenter::VmId>& queue,
             const core::ScoreParams& params)
      : model(refreshed(fleet, dc, queue), dc, queue, params,
              /*migration_enabled=*/true) {}

  static core::FleetState& refreshed(
      core::FleetState& fleet, const datacenter::Datacenter& dc,
      const std::vector<datacenter::VmId>& queue) {
    fleet.refresh(dc, queue);
    return fleet;
  }
};

struct Instance {
  sim::Simulator simulator;
  metrics::Recorder recorder;
  datacenter::Datacenter dc;
  std::vector<datacenter::VmId> queue;

  Instance(std::size_t hosts, int running, int queued, std::uint64_t seed)
      : recorder(hosts),
        dc(simulator,
           [&] {
             datacenter::DatacenterConfig config;
             config.hosts.assign(hosts, datacenter::HostSpec::medium());
             config.seed = seed;
             return config;
           }(),
           recorder) {
    support::Rng rng{seed * 31 + 7};
    for (int i = 0; i < running; ++i) {
      workload::Job job;
      job.submit = 0;
      job.dedicated_seconds = 30000;
      job.cpu_pct = 100.0 * static_cast<double>(rng.uniform_int(1, 2));
      job.mem_mb = rng.uniform(128, 800);
      const auto v = dc.admit_job(job);
      dc.place(v, static_cast<datacenter::HostId>(
                      rng.uniform_int(0, hosts - 1)));
    }
    simulator.run_until(300.0);
    for (int i = 0; i < queued; ++i) {
      workload::Job job;
      job.submit = simulator.now();
      job.dedicated_seconds = 3600;
      job.cpu_pct = 100;
      job.mem_mb = rng.uniform(128, 800);
      queue.push_back(dc.admit_job(job));
    }
  }
};

}  // namespace

int main() {
  using namespace easched;
  bench::print_banner(
      "Ablation - Algorithm 1 vs exhaustive search",
      "the greedy matrix optimization lands at or near the optimum while "
      "scoring a vanishing fraction of the configuration space");

  core::ScoreParams params;
  support::TextTable table;
  table.header({"instance", "plans scored (opt)", "greedy cost", "SA cost",
                "opt cost", "gap (%)"});

  int optimal = 0, total = 0;
  double worst_gap = 0, gap_sum = 0, sa_gap_sum = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Instance inst(4, 4, 3, seed);

    FreshModel greedy(inst.dc, inst.queue, params);
    core::HillClimbLimits limits;
    limits.min_migration_gain = 1e-9;
    limits.max_migration_moves = 1000;
    core::hill_climb(greedy.model, limits);
    const double greedy_cost = plan_cost(greedy.model);

    FreshModel sa_model(inst.dc, inst.queue, params);
    core::AnnealingParams sa_params;
    sa_params.seed = seed;
    const auto sa = core::anneal(sa_model.model, sa_params);

    FreshModel reference(inst.dc, inst.queue, params);
    const auto opt = core::exhaustive_search(reference.model);

    const double denom = std::max(std::abs(opt.best_cost), 1.0);
    const double gap = 100.0 * (greedy_cost - opt.best_cost) / denom;
    worst_gap = std::max(worst_gap, gap);
    gap_sum += gap;
    sa_gap_sum += 100.0 * (sa.best_cost - opt.best_cost) / denom;
    if (gap < 1e-4) ++optimal;
    ++total;
    char label[32];
    std::snprintf(label, sizeof label, "4h/7vm #%llu",
                  static_cast<unsigned long long>(seed));
    table.add_row({label, std::to_string(opt.evaluated),
                   support::TextTable::num(greedy_cost, 1),
                   support::TextTable::num(sa.best_cost, 1),
                   support::TextTable::num(opt.best_cost, 1),
                   support::TextTable::num(gap, 2)});
  }
  std::printf("%s\n", table.render().c_str());

  // Evaluation-scale greedy timing (exhaustive would need ~100^70 plans).
  Instance big(100, 60, 8, 42);
  const auto start = std::chrono::steady_clock::now();
  int rounds = 0;
  for (; rounds < 50; ++rounds) {
    FreshModel fresh(big.dc, big.queue, params);
    core::hill_climb(fresh.model, core::HillClimbLimits{});
  }
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count() /
                       rounds;
  std::printf("evaluation-scale greedy round (100 hosts, 68 VMs): %.2f ms\n\n",
              elapsed);

  struct Check {
    const char* what;
    bool ok;
  } checks[] = {
      {"greedy finds the exact optimum on most small instances",
       optimal * 3 >= total * 2},
      {"mean optimality gap below 10 % (local optima exist but are rare)",
       gap_sum / total < 10.0},
      {"simulated annealing (section II alternative) lands closer to the "
       "optimum on average than greedy",
       sa_gap_sum <= gap_sum + 1e-9},
      {"evaluation-scale round costs few milliseconds", elapsed < 50.0},
  };
  bool all = true;
  for (const auto& c : checks) {
    std::printf("shape check: %s -> %s\n", c.what, c.ok ? "PASS" : "FAIL");
    all = all && c.ok;
  }
  return all ? 0 : 1;
}
