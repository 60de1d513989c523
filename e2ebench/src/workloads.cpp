#include "workloads.hpp"

#include "experiments/setup.hpp"
#include "faults/fault_plan.hpp"
#include "workload/synthetic.hpp"

namespace e2ebench {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w;

    // The paper's evaluation: 100 hosts, the evaluation week. A week takes
    // under 0.1 s, so every worker process repeats each of the eight
    // inputs several times.
    WorkloadSpec paper;
    paper.name = "paper_week";
    paper.inputs = 8;
    w.push_back(paper);

    // The fleets have 500 hosts (75/250/175), five times the paper's. On
    // the shared host this benchmark was tuned on, a process runs either
    // at full speed or about 1.6x slower for its whole life; the larger
    // the fleet, the more processes are slow, and at 1000 hosts and more
    // every process was slow for minutes at a time, which no number of
    // worker processes can see past. At 500 hosts a run takes 30-250 ms.

    // All hosts on at t = 0 under a diurnal load: the power controller
    // sheds most of the fleet, so power-off ranking dominates. Past six
    // hours schedule() would take over.
    WorkloadSpec diurnal;
    diurnal.name = "fleet_diurnal_500";
    diurnal.inputs = 12;
    diurnal.fast = 75;
    diurnal.medium = 250;
    diurnal.slow = 175;
    diurnal.span_hours = 6;
    diurnal.rate_factor = 5;
    w.push_back(diurnal);

    // Flat arrivals above capacity, 50 hosts on at t = 0: long queues put
    // the work into schedule(). Near capacity the cost of one input swings
    // with its arrivals (about 30 % from seed to seed), so a worker runs
    // forty short inputs, and the mean over them is steady. Heavier load
    // or a shorter span does not make one input steadier; a longer span
    // does, but less than the inputs it costs.
    WorkloadSpec saturated;
    saturated.name = "fleet_saturated_500";
    saturated.inputs = 40;
    saturated.fast = 75;
    saturated.medium = 250;
    saturated.slow = 175;
    saturated.initially_on = 50;
    saturated.span_hours = 0.25;
    saturated.rate_factor = 60;
    saturated.diurnal_amplitude = 0;
    w.push_back(saturated);

    // Operation faults, breakers, a JSONL telemetry sink and the energy
    // ledger: the observability and resilience planes. A run lasts until
    // its last job ends, well past the arrivals; over six hours of
    // arrivals that drain decided the energy, which then swung 30 % from
    // seed to seed, over twelve 10 %. The p99 round moves with the input,
    // so a worker runs fourteen of them. A sample every 5 minutes keeps
    // the sink the largest layer without letting the stream's writes fill
    // the run.
    WorkloadSpec observed;
    observed.name = "fleet_observed_500";
    observed.inputs = 14;
    observed.fast = 75;
    observed.medium = 250;
    observed.slow = 175;
    observed.span_hours = 12;
    observed.rate_factor = 5;
    observed.fault_spec =
        "migrate.fail=0.05,create.fail=0.05,lemon=3:8,breaker_threshold=2";
    observed.telemetry_period_s = 300;
    observed.energy_ledger = true;
    w.push_back(observed);
    return w;
  }();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  easched::workload::SyntheticConfig synth;
  synth.seed = seed;
  synth.span_seconds = spec.span_hours * 3600.0;
  synth.mean_jobs_per_hour *= spec.rate_factor;
  synth.diurnal_amplitude = spec.diurnal_amplitude;
  Setup s;
  s.jobs = easched::workload::generate(synth);
  s.hosts =
      easched::experiments::evaluation_hosts(spec.fast, spec.medium, spec.slow);
  s.policy = std::make_unique<easched::core::ScoreBasedPolicy>(
      easched::core::ScoreBasedConfig::sb());
  return s;
}

easched::experiments::RunConfig make_run_config(
    const WorkloadSpec& spec, std::uint64_t seed,
    std::vector<easched::datacenter::HostSpec> hosts) {
  easched::experiments::RunConfig config;
  config.datacenter.hosts = std::move(hosts);
  config.datacenter.seed = seed;
  config.datacenter.initially_on = spec.initially_on;
  if (!spec.fault_spec.empty()) {
    config.faults = easched::faults::parse_fault_plan(spec.fault_spec);
    config.faults.seed = seed;
  }
  return config;
}

}  // namespace e2ebench
