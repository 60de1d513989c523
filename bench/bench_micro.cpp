// Micro-benchmarks: time per operation of the pieces that bound simulation
// speed — the Xen allocation, score-matrix construction, one hill-climbing
// round, the solver at fleet scale, alternating small and large models on
// one fleet, and a whole simulated day. The event queue is timed by
// bench_event_queue.
//
// The paper's simulator "can simulate a large virtualized datacenter
// executing a workload for a week using one machine during an hour"; these
// numbers document that our event-driven kernel does the same week in
// seconds.
//
// Every case goes through bench::time_case (warm-up, `--reps=N`
// repetitions) and prints its median and p99 per operation as it
// finishes. The three solver_scaling variants must make the same number
// of moves at every fleet size, or the binary exits 1. `--json` prints
// nothing until the end: then the document committed as BENCH_solver.json
// (scripts/refresh_bench.sh), or nothing if the move counts disagree.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score_based_policy.hpp"
#include "core/score_matrix.hpp"
#include "core/solver_pool.hpp"
#include "datacenter/xen_scheduler.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "reference_hill_climb.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace easched;

/// A populated datacenter for matrix benchmarks.
struct MatrixFixture {
  sim::Simulator simulator;
  metrics::Recorder recorder{100};
  datacenter::Datacenter dc;
  std::vector<datacenter::VmId> queue;

  MatrixFixture()
      : dc(simulator, experiments::evaluation_datacenter(5), recorder) {
    support::Rng rng{11};
    // 60 running VMs spread over the fleet + 8 queued.
    for (int i = 0; i < 60; ++i) {
      workload::Job job;
      job.submit = 0;
      job.dedicated_seconds = 7200;
      job.cpu_pct = (i % 4 + 1) * 100.0;
      job.mem_mb = 512;
      const auto v = dc.admit_job(job);
      dc.place(v, static_cast<datacenter::HostId>(
                      rng.uniform_int(0, dc.num_hosts() - 1)));
    }
    simulator.run_until(600);  // creations settle
    for (int i = 0; i < 8; ++i) {
      workload::Job job;
      job.submit = simulator.now();
      job.dedicated_seconds = 3600;
      job.cpu_pct = 100;
      job.mem_mb = 512;
      queue.push_back(dc.admit_job(job));
    }
  }
};

/// A populated datacenter at parametric scale for the solver_scaling
/// benchmark: `hosts` nodes in the evaluation fleet's 15/50/35 mix, with
/// a running population of ~60 % of the fleet and a queue burst. Fixed
/// seeds: every solver variant sees the identical instance.
struct ScalingFixture {
  sim::Simulator simulator;
  metrics::Recorder recorder;
  datacenter::Datacenter dc;
  std::vector<datacenter::VmId> queue;

  static datacenter::DatacenterConfig make_config(int hosts) {
    const std::size_t fast = static_cast<std::size_t>(hosts) * 15 / 100;
    const std::size_t medium = static_cast<std::size_t>(hosts) / 2;
    datacenter::DatacenterConfig config;
    config.hosts = experiments::evaluation_hosts(
        fast, medium, static_cast<std::size_t>(hosts) - fast - medium);
    config.seed = 3;
    return config;
  }

  explicit ScalingFixture(int hosts)
      : recorder(static_cast<std::size_t>(hosts)),
        dc(simulator, make_config(hosts), recorder) {
    support::Rng rng{23};
    const int running = hosts * 3 / 5;
    for (int i = 0; i < running; ++i) {
      workload::Job job;
      job.submit = 0;
      job.dedicated_seconds = 36000;
      job.cpu_pct = (i % 4 + 1) * 100.0;
      job.mem_mb = 512;
      const auto v = dc.admit_job(job);
      datacenter::HostId h = static_cast<datacenter::HostId>(
          rng.uniform_int(0, dc.num_hosts() - 1));
      while (!dc.fits(h, v)) h = (h + 1) % dc.num_hosts();
      dc.place(v, h);
    }
    simulator.run_until(600);  // creations settle
    const int queued = hosts / 12 + 4;
    for (int i = 0; i < queued; ++i) {
      workload::Job job;
      job.submit = simulator.now();
      job.dedicated_seconds = 7200;
      job.cpu_pct = (i % 2 + 1) * 100.0;
      job.mem_mb = 512;
      queue.push_back(dc.admit_job(job));
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool json = args.get_bool("json", false);
  const int reps = bench::checked_int(args.get_int("reps", 10), "reps", 1);
  args.warn_unrecognized();

  // The JSON keeps each case's median only: with a few dozen repetitions
  // the p99 is the slowest one, which measures the machine's other load
  // (one preempted repetition moves it several-fold), not the code.
  std::vector<bench::Metric> metrics;
  const auto record = [&](const std::string& name, const bench::CaseTime& t,
                          const std::string& unit) {
    const double scale = unit == "ms" ? 1e-6 : 1.0;
    metrics.push_back({name, t.median_ns * scale, unit});
    if (!json) {
      std::printf("%-32s median %12.4f  p99 %12.4f %s\n", name.c_str(),
                  t.median_ns * scale, t.p99_ns * scale, unit.c_str());
    }
  };

  for (const int n : {4, 16, 64}) {
    std::vector<datacenter::CpuDemand> vms;
    for (int i = 0; i < n; ++i) {
      vms.push_back({50.0 + 37.0 * (i % 9), 256.0, 0.0});
    }
    record("XenAllocate/" + std::to_string(n), bench::time_case(reps, [&] {
             return datacenter::allocate_cpu(400.0, vms, 80.0).used_pct;
           }), "ns");
  }

  {
    MatrixFixture fx;
    const core::ScoreParams params;
    // Construction from scratch: a fresh (all-dirty) fleet snapshot, the
    // model over it, and one read of every cell (the model evaluates
    // cells lazily, so the read is the build).
    record("ScoreMatrixBuild", bench::time_case(reps, [&] {
             core::FleetState fleet;
             fleet.refresh(fx.dc, fx.queue);
             core::ScoreModel model(fleet, fx.dc, fx.queue, params, true);
             double sum = 0;
             for (int r = 0; r < model.virtual_row(); ++r) {
               for (int c = 0; c < model.cols(); ++c) sum += model.cell(r, c);
             }
             return sum;
           }), "ms");
    record("HillClimbRound", bench::time_case(reps, [&] {
             core::FleetState fleet;
             fleet.refresh(fx.dc, fx.queue);
             core::ScoreModel model(fleet, fx.dc, fx.queue, params, true);
             return core::hill_climb(model, core::HillClimbLimits{}).moves;
           }), "ms");
  }

  // solver_scaling: one consolidation round (fresh all-dirty fleet
  // snapshot + solve) at 100 / 400 / 1600 hosts, comparing the seed
  // implementation (hill_climb_reference, full-matrix rescan per
  // iteration), the incremental production solver, and the incremental
  // solver over a 4-way SolverPool. All three produce bit-identical plans
  // (tests/test_solver_equivalence.cpp); only the time may differ.
  core::SolverPool pool(4);
  core::HillClimbLimits threaded;
  threaded.pool = &pool;
  int bad = 0;
  for (const int hosts : {100, 400, 1600}) {
    ScalingFixture fx(hosts);
    const core::ScoreParams params;
    // Times one variant; returns the move count of its last round.
    const auto solver_case = [&](const char* variant, auto solve) {
      const std::string name = std::string("SolverScaling_") + variant +
                               "/" + std::to_string(hosts);
      int moves = 0;
      record(name, bench::time_case(reps, [&] {
               core::FleetState fleet;
               fleet.refresh(fx.dc, fx.queue);
               core::ScoreModel model(fleet, fx.dc, fx.queue, params,
                                      /*migration_enabled=*/true);
               return moves = solve(model).moves;
             }), "ms");
      metrics.push_back({name + "/moves", static_cast<double>(moves),
                         "moves"});
      if (!json) std::printf("%-32s moves %d\n", name.c_str(), moves);
      return moves;
    };
    const int serial = solver_case("Serial", [](core::ScoreModel& m) {
      return core::hill_climb_reference(m, core::HillClimbLimits{});
    });
    const int incremental = solver_case("Incremental", [](core::ScoreModel& m) {
      return core::hill_climb(m, core::HillClimbLimits{});
    });
    const int threaded4 = solver_case("Threaded4", [&](core::ScoreModel& m) {
      return core::hill_climb(m, threaded);
    });
    if (serial != incremental || serial != threaded4) {
      std::fprintf(stderr,
                   "FAIL: solver variants disagree at %d hosts: %d / %d / %d "
                   "moves (serial / incremental / threaded4)\n",
                   hosts, serial, incremental, threaded4);
      bad = 1;
    }
  }

  {
    // Alternating model sizes on one persistent FleetState, as a run
    // builds them: a queued-only model (the schedule() shape, every cell
    // read), then one with every running VM as a column (the
    // choose_power_off() shape, a row aggregate per 16th host). The
    // recycled scratch shrinks and regrows each time, so any per-cell
    // initialization of the large model shows here.
    ScalingFixture fx(1600);
    const core::ScoreParams params;
    core::FleetState fleet;
    fleet.refresh(fx.dc, fx.queue);
    record("ScoreModelAlternate/1600", bench::time_case(reps, [&] {
             double sum = 0;
             {
               core::ScoreModel queued(fleet, fx.dc, fx.queue, params,
                                       /*migration_enabled=*/false);
               for (int r = 0; r < queued.virtual_row(); ++r) {
                 for (int c = 0; c < queued.cols(); ++c) {
                   sum += queued.cell(r, c);
                 }
               }
             }
             core::ScoreModel all(fleet, fx.dc, fx.queue, params,
                                  /*migration_enabled=*/true);
             for (int r = 0; r < all.virtual_row(); r += 16) {
               sum += all.row_aggregate(r);
             }
             return sum;
           }), "ms");
  }

  workload::SyntheticConfig wl;
  wl.span_seconds = sim::kDay;
  const auto jobs = workload::generate(wl);
  record("SimulatedDay", bench::time_case(reps, [&] {
           experiments::RunConfig config;
           config.datacenter = experiments::evaluation_datacenter(1);
           config.policy = "SB";
           return experiments::run_experiment(jobs, std::move(config))
               .report.energy_kwh;
         }), "ms");

  if (bad == 0 && json) bench::write_json(metrics);
  return bad;
}
