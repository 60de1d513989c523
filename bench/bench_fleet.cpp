// Fleet-scale round timing for the cross-round incremental scheduling core
// (core/fleet.hpp): the number behind BENCH_fleet.json.
//
// For each fleet size (default 1000/4000/10000 hosts) and churn level, a
// synthetic steady-state scenario is driven round by round: the fleet is
// prepopulated to ~95 % CPU utilization, then every 60 s round a fixed
// number of jobs finishes (their residency is sized so completions match
// arrivals) and the same number arrives into the queue. Only
// `policy.schedule()` is timed — exactly the code the incremental core
// accelerates: the host re-read, the matrix build and the hill-climb
// sweep. Both variants run the identical scenario in one process:
//
//   reference   — a fresh ScoreBasedPolicy(sb2()) built every round. SB2
//                 has migration off, so the fleet snapshot is its only
//                 cross-round state: every round re-reads all M hosts
//                 into an all-dirty snapshot and starts with no persisted
//                 score columns;
//   incremental — one policy kept across rounds: dirty-journal re-reads,
//                 capacity-pruned argmin, persistent queued-VM columns.
//
// The two action streams are compared round for round and any divergence
// is a hard failure: the speedup claim is only meaningful if the decisions
// are identical. `--json` prints the document committed as
// BENCH_fleet.json (scripts/refresh_bench.sh): per (hosts, churn) the two
// median round times, their ratio and the identity flag.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/score_based_policy.hpp"
#include "datacenter/datacenter.hpp"
#include "metrics/accumulators.hpp"
#include "sched/policy.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace easched;
using datacenter::HostId;
using datacenter::VmId;

constexpr double kRoundSeconds = 60;
constexpr double kUtilization = 0.95;  ///< prepopulated CPU load fraction
constexpr double kVmCpuPct = 100;
constexpr double kVmMemMb = 512;

workload::Job churn_job(support::Rng& rng, double submit, double mean_life) {
  workload::Job job;
  job.submit = submit;
  job.dedicated_seconds = rng.uniform(0.5, 1.5) * mean_life;
  job.cpu_pct = kVmCpuPct;
  job.mem_mb = kVmMemMb;
  job.deadline_factor = 10;  // SLA terms are off; keep deadlines inert
  return job;
}

/// One steady-state scenario run: timings plus the emitted action stream
/// (flattened; compared across variants for decision identity).
struct VariantRun {
  std::vector<double> round_ms;        ///< measured rounds only
  std::vector<sched::Action> actions;  ///< every action of every round
};

VariantRun run_variant(std::size_t hosts, int churn, int warmup_rounds,
                       int measured_rounds, bool incremental) {
  sim::Simulator simulator;
  metrics::Recorder recorder(hosts);
  datacenter::DatacenterConfig dconf;
  dconf.hosts.assign(hosts, datacenter::HostSpec::medium());
  dconf.seed = bench::kSeed;
  dconf.duration_sigma_ratio = 0;  // deterministic operation durations
  datacenter::Datacenter dc(simulator, dconf, recorder);

  // Identically seeded in both variants: the workload draw sequence only
  // depends on round structure, which identical decisions keep identical.
  support::Rng wl_rng{bench::kSeed + hosts};
  support::Rng policy_rng{bench::kSeed};

  // Steady state by construction: population such that CPU utilization is
  // kUtilization, residency such that ~`churn` VMs finish per round.
  const double vms_per_host =
      datacenter::HostSpec::medium().cpu_capacity_pct / kVmCpuPct;
  const std::size_t population = static_cast<std::size_t>(
      static_cast<double>(hosts) * vms_per_host * kUtilization);
  const double mean_life = static_cast<double>(population) * kRoundSeconds /
                           static_cast<double>(churn);

  for (std::size_t i = 0; i < population; ++i) {
    const VmId v = dc.admit_job(churn_job(wl_rng, 0, mean_life));
    dc.place(v, static_cast<HostId>(i % hosts));
  }
  simulator.run_until(300);  // initial creations settle into Running

  const core::ScoreBasedConfig cfg = core::ScoreBasedConfig::sb2();
  auto policy = std::make_unique<core::ScoreBasedPolicy>(cfg);

  VariantRun out;
  std::vector<VmId> queue;
  std::vector<VmId> still_queued;
  double now = 300;
  for (int round = 0; round < warmup_rounds + measured_rounds; ++round) {
    now += kRoundSeconds;
    simulator.run_until(now);  // completions + op endings, all journaled
    for (int i = 0; i < churn; ++i) {
      queue.push_back(dc.admit_job(churn_job(wl_rng, now, mean_life)));
    }

    const sched::SchedContext ctx{dc, queue, policy_rng};
    if (!incremental) policy = std::make_unique<core::ScoreBasedPolicy>(cfg);
    const auto begin = std::chrono::steady_clock::now();
    const std::vector<sched::Action> actions = policy->schedule(ctx);
    const auto end = std::chrono::steady_clock::now();
    if (round >= warmup_rounds) {
      out.round_ms.push_back(
          std::chrono::duration<double, std::milli>(end - begin).count());
    }

    still_queued.assign(queue.begin(), queue.end());
    for (const sched::Action& a : actions) {
      out.actions.push_back(a);
      if (a.kind != sched::Action::Kind::kPlace) continue;
      if (!dc.placeable(a.host) || !dc.fits(a.host, a.vm)) continue;
      dc.place(a.vm, a.host);
      std::erase(still_queued, a.vm);
    }
    queue.swap(still_queued);
  }
  return out;
}

bool same_actions(const VariantRun& a, const VariantRun& b) {
  if (a.actions.size() != b.actions.size()) return false;
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    if (a.actions[i].kind != b.actions[i].kind ||
        a.actions[i].vm != b.actions[i].vm ||
        a.actions[i].host != b.actions[i].host) {
      return false;
    }
  }
  return true;
}

/// The fleet sizes of `--hosts=1000,4000,...`. Exits with status 2 unless
/// the list holds at least one integer and each is at least 1.
std::vector<std::size_t> parse_hosts(const std::string& spec) {
  std::vector<std::size_t> sizes;
  for (std::size_t begin = 0; begin <= spec.size();) {
    const std::size_t end = std::min(spec.find(',', begin), spec.size());
    std::int64_t n = 0;
    const auto [last, ec] =
        std::from_chars(spec.data() + begin, spec.data() + end, n);
    if (ec != std::errc{} || last != spec.data() + end) {
      std::fprintf(stderr,
                   "--hosts must be a comma-separated list of integers "
                   "(got '%s')\n",
                   spec.c_str());
      std::exit(2);
    }
    sizes.push_back(
        static_cast<std::size_t>(bench::checked_int(n, "hosts", 1)));
    begin = end + 1;
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool json = args.get_bool("json", false);
  // --hosts=1000,4000 limits the sweep (default 1000,4000,10000).
  const std::vector<std::size_t> sizes =
      parse_hosts(args.get("hosts", "1000,4000,10000"));
  const int rounds =
      bench::checked_int(args.get_int("rounds", 30), "rounds", 1);
  const int warmup =
      bench::checked_int(args.get_int("warmup", 10), "warmup", 0);
  args.warn_unrecognized();

  std::vector<bench::Metric> metrics;
  int bad = 0;
  for (const std::size_t hosts : sizes) {
    // Two churn levels: ~0.8 % and ~3 % of the fleet turning over per
    // round (dirty-set sizes bracketing a busy production round).
    const int churns[] = {std::max(4, static_cast<int>(hosts / 128)),
                          std::max(16, static_cast<int>(hosts / 32))};
    for (const int churn : churns) {
      std::fprintf(stderr, "fleet %zu hosts, churn %d/round...\n", hosts,
                   churn);
      const VariantRun ref =
          run_variant(hosts, churn, warmup, rounds, /*incremental=*/false);
      const VariantRun inc =
          run_variant(hosts, churn, warmup, rounds, /*incremental=*/true);

      const double ref_ms = bench::median(ref.round_ms);
      const double inc_ms = bench::median(inc.round_ms);
      const bool identical = same_actions(ref, inc);
      const std::string key = "hosts=" + std::to_string(hosts) +
                              "/churn=" + std::to_string(churn) + "/";
      metrics.push_back({key + "incremental_ms", inc_ms, "ms"});
      metrics.push_back({key + "reference_ms", ref_ms, "ms"});
      metrics.push_back({key + "speedup", inc_ms > 0 ? ref_ms / inc_ms : 0,
                         "x"});
      metrics.push_back({key + "identical_decisions", identical ? 1.0 : 0.0,
                         "bool"});
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: action streams diverged at %zu hosts, churn %d\n",
                     hosts, churn);
        bad = 1;
      }
    }
  }

  json ? bench::write_json(metrics) : bench::print_table(metrics);
  return bad;
}
