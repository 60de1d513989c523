#include "bench.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "experiments/runner.hpp"
#include "obs/obs.hpp"

namespace e2ebench {

using easched::obs::Phase;

namespace {

/// Shortest decimal form that reads back as the same double.
std::string exact(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The p-th percentile (p in [0, 100]) of a run's samples; 0 when a call
/// never happened in the run.
double percentile_ms(const std::vector<double>& ms, double p) {
  return ms.empty() ? 0 : easched::support::percentile(ms, p);
}

double sum_ms_as_s(const std::vector<double>& ms) {
  return std::accumulate(ms.begin(), ms.end(), 0.0) * 1e-3;
}

double schedule_s(const RunSample& r) { return r.schedule_s; }
double power_off_s(const RunSample& r) { return r.power_off_s; }
double power_on_s(const RunSample& r) { return r.power_on_s; }

// Invalidation runs inside the climb's moves, so its phase nests in the
// climb phase; the climb's self time excludes it.
double climb_self_s(const RunSample& r) {
  return r.phase(Phase::kClimb) - r.phase(Phase::kInvalidate);
}
double schedule_other_s(const RunSample& r) {
  return schedule_s(r) - r.phase(Phase::kRebuild) - r.phase(Phase::kClimb);
}
double power_self_s(const RunSample& r) {
  return r.phase(Phase::kPower) - power_off_s(r) - power_on_s(r);
}
double round_self_s(const RunSample& r) {
  return r.phase(Phase::kRound) - schedule_s(r) - r.phase(Phase::kActuate) -
         r.phase(Phase::kPower);
}
double outside_rounds_s(const RunSample& r) {
  return r.run_s - r.phase(Phase::kRound);
}
double sim_self_s(const RunSample& r) {
  return outside_rounds_s(r) - r.sink.total_s;
}

}  // namespace

std::string Fingerprint::to_string() const {
  return "digest=" + digest + " energy_kwh=" + exact(energy_kwh) +
         " satisfaction_pct=" + exact(satisfaction_pct) +
         " migrations=" + std::to_string(migrations) +
         " turn_ons=" + std::to_string(turn_ons) +
         " turn_offs=" + std::to_string(turn_offs) +
         " sim_events=" + std::to_string(sim_events);
}

RunSample run_once(const WorkloadSpec& spec, std::uint64_t seed, Setup setup,
                   const std::string& out_dir, SpanLog* spans,
                   std::uint32_t run_id) {
  RunSample s;
  s.traced = spans != nullptr;
  PolicyProbe probe;
  easched::experiments::RunConfig config =
      make_run_config(spec, seed, std::move(setup.hosts));
  config.policy_instance =
      std::make_unique<TimingPolicy>(std::move(setup.policy), &probe, spans);

  const bool telemetry = spec.telemetry_period_s > 0;
  const std::string telemetry_path =
      out_dir + "/" + spec.name + ".telemetry.jsonl";
  easched::obs::Observability obs;
  if (s.traced) obs.profiler.enable();
  if (spec.energy_ledger) obs.ledger.enable();
  bool telemetry_opened = false;
  if (telemetry) {
    easched::obs::TelemetryConfig tc;
    tc.period_s = spec.telemetry_period_s;
    obs.telemetry.enable(tc);
    auto jsonl = std::make_unique<easched::obs::JsonlSink>(telemetry_path);
    telemetry_opened = jsonl->ok();
    obs.telemetry.add_sink(
        std::make_unique<TimingSink>(std::move(jsonl), &s.sink, spans,
                                     &probe.marks_ns));
  }
  if (s.traced || spec.energy_ledger || telemetry) config.obs = &obs;

  if (spans != nullptr) spans->begin_run(run_id);
  const std::int64_t start = now_ns();
  const easched::experiments::RunResult result =
      easched::experiments::run_experiment(setup.jobs, std::move(config));
  const std::int64_t end = now_ns();
  s.run_s = static_cast<double>(end - start) * 1e-9;
  if (spans != nullptr) spans->end_run();
  probe.close_round();

  s.pieces_s.reserve(probe.marks_ns.size() + 1);
  std::int64_t last = start;
  for (const std::int64_t mark : probe.marks_ns) {
    s.pieces_s.push_back(static_cast<double>(mark - last) * 1e-9);
    last = mark;
  }
  s.pieces_s.push_back(static_cast<double>(end - last) * 1e-9);

  s.rounds = probe.round_ms.size();
  s.round_ms = std::move(probe.round_ms);
  s.schedule_calls = probe.schedule_ms.size();
  s.schedule_s = sum_ms_as_s(probe.schedule_ms);
  s.schedule_p99_ms = percentile_ms(probe.schedule_ms, 99);
  s.power_off_calls = probe.power_off_ms.size();
  s.power_off_s = sum_ms_as_s(probe.power_off_ms);
  s.power_off_p99_ms = percentile_ms(probe.power_off_ms, 99);
  s.power_on_calls = probe.power_on_ms.size();
  s.power_on_s = sum_ms_as_s(probe.power_on_ms);
  s.cells = probe.cells;
  s.candidates = probe.candidates;
  s.actions = probe.actions;
  s.climb_moves = probe.climb_moves;
  s.limit_hits = probe.limit_hits;

  const auto& rep = result.report;
  s.fingerprint = {probe.digest.hex(),    rep.energy_kwh,  rep.satisfaction,
                   rep.migrations,        rep.turn_ons,    rep.turn_offs,
                   result.events_dispatched};
  s.jobs_submitted = result.jobs_submitted;
  s.jobs_finished = result.jobs_finished;
  s.violations = result.violations.size();
  s.hit_horizon = result.hit_horizon;
  s.sim_cancelled = result.events_cancelled;
  s.creations = rep.creations;
  s.faults_injected = result.faults_injected;
  s.op_failures = rep.op_failures;
  s.retries = rep.retries;
  s.rollbacks = rep.rollbacks;
  s.breaker_opens = rep.breaker_opens;
  s.ladder_downshifts = rep.ladder_downshifts;
  for (std::size_t p = 0; p < easched::obs::kPhaseCount; ++p) {
    s.phase_s[p] = sum_ms_as_s(obs.profiler.samples(static_cast<Phase>(p)));
  }
  if (telemetry) {
    std::error_code ec;
    s.telemetry_bytes = std::filesystem::file_size(telemetry_path, ec);
    if (ec) s.telemetry_bytes = 0;
    std::filesystem::remove(telemetry_path, ec);
    // A sink that cannot write drops every sample and costs nearly nothing,
    // which would pass for a much faster run.
    s.telemetry_lost =
        !telemetry_opened || s.telemetry_bytes == 0 || s.sink.samples == 0;
  }
  return s;
}

bool keep_fastest(std::vector<double>& best,
                  const std::vector<double>& sample) {
  if (best.empty()) {
    best = sample;
    return true;
  }
  if (best.size() != sample.size()) return false;
  for (std::size_t k = 0; k < best.size(); ++k) {
    best[k] = std::min(best[k], sample[k]);
  }
  return true;
}

std::vector<Metric> end_to_end_metrics(
    const std::vector<RunSample>& runs,
    const std::vector<double>& run_s_per_input,
    const std::vector<Fingerprint>& inputs,
    const std::vector<double>& rounds_ms, double peak_rss,
    double finished_pct) {
  double energy = 0;
  double satisfaction = 0;
  for (const Fingerprint& fp : inputs) {
    energy += fp.energy_kwh / static_cast<double>(inputs.size());
    satisfaction += fp.satisfaction_pct / static_cast<double>(inputs.size());
  }
  return {
      {"setup_s",
       median_of_fastest(runs, [](const RunSample& r) { return r.setup_s; }),
       "s"},
      {"run_s",
       run_s_per_input.empty()
           ? 0
           : std::accumulate(run_s_per_input.begin(), run_s_per_input.end(),
                             0.0) /
                 static_cast<double>(run_s_per_input.size()),
       "s"},
      {"decide_p50_ms", percentile_ms(rounds_ms, 50), "ms"},
      {"decide_p99_ms", percentile_ms(rounds_ms, 99), "ms"},
      {"peak_rss_mb", peak_rss, "MiB"},
      {"energy_kwh", energy, "kWh"},
      {"satisfaction_pct", satisfaction, "%"},
      {"finished_pct", finished_pct, "%"},
  };
}

std::vector<Metric> self_times(const RunSample& r) {
  return {
      {"core.rebuild.total_s", r.phase(Phase::kRebuild), "s"},
      {"core.climb.self_s", climb_self_s(r), "s"},
      {"core.invalidate.total_s", r.phase(Phase::kInvalidate), "s"},
      {"core.schedule.other_s", schedule_other_s(r), "s"},
      {"core.power_off.total_s", power_off_s(r), "s"},
      {"core.power_on.total_s", power_on_s(r), "s"},
      {"sched.actuate.total_s", r.phase(Phase::kActuate), "s"},
      {"sched.power.self_s", power_self_s(r), "s"},
      {"sched.round.self_s", round_self_s(r), "s"},
      {"obs.sink.total_s", r.sink.total_s, "s"},
      {"sim.self_s", sim_self_s(r), "s"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<RunSample>& traced,
                                      const std::vector<RunSample>& untraced) {
  const RunSample& f = traced.front();
  const auto med = [&traced](auto fn) { return median_of(traced, fn); };
  const auto count = [](auto v) { return static_cast<double>(v); };
  const auto phase = [](Phase p) {
    return [p](const RunSample& r) { return r.phase(p); };
  };
  const double untraced_run_s =
      median_of(untraced, [](const RunSample& r) { return r.run_s; });
  const double traced_run_s =
      med([](const RunSample& r) { return r.run_s; });
  const double applied = count(f.creations + f.fingerprint.migrations);

  return {
      {"core.schedule.calls", count(f.schedule_calls), "count"},
      {"core.schedule.total_s", med(schedule_s), "s"},
      {"core.schedule.p99_ms",
       med([](const RunSample& r) { return r.schedule_p99_ms; }), "ms"},
      {"core.schedule.cells", count(f.cells), "count"},
      {"core.climb.moves", count(f.climb_moves), "count"},
      {"core.climb.limit_hits", count(f.limit_hits), "count"},
      {"core.power_off.calls", count(f.power_off_calls), "count"},
      {"core.power_off.total_s", med(power_off_s), "s"},
      {"core.power_off.p99_ms",
       med([](const RunSample& r) { return r.power_off_p99_ms; }), "ms"},
      {"core.power_off.candidates", count(f.candidates), "count"},
      {"core.power_on.calls", count(f.power_on_calls), "count"},
      {"core.power_on.total_s", med(power_on_s), "s"},
      {"sched.apply_ratio",
       f.actions > 0 ? applied / count(f.actions) : 0.0,
       "ratio"},
      {"sched.round.total_s", med(phase(Phase::kRound)), "s"},
      {"sched.actuate.total_s", med(phase(Phase::kActuate)), "s"},
      {"sched.power.self_s", med(power_self_s), "s"},
      {"sched.round.self_s", med(round_self_s), "s"},
      {"core.rebuild.total_s", med(phase(Phase::kRebuild)), "s"},
      {"core.climb.total_s", med(phase(Phase::kClimb)), "s"},
      {"core.invalidate.total_s", med(phase(Phase::kInvalidate)), "s"},
      {"core.climb.self_s", med(climb_self_s), "s"},
      {"core.schedule.other_s", med(schedule_other_s), "s"},
      {"sim.events", count(f.fingerprint.sim_events), "count"},
      {"sim.cancelled", count(f.sim_cancelled), "count"},
      {"sim.events_per_s", count(f.fingerprint.sim_events) / untraced_run_s,
       "1/s"},
      {"datacenter.creations", count(f.creations), "count"},
      {"datacenter.migrations", count(f.fingerprint.migrations), "count"},
      {"datacenter.turn_ons", count(f.fingerprint.turn_ons), "count"},
      {"datacenter.turn_offs", count(f.fingerprint.turn_offs), "count"},
      {"outside_rounds_s", med(outside_rounds_s), "s"},
      {"sim.self_s", med(sim_self_s), "s"},
      {"faults.injected", count(f.faults_injected), "count"},
      {"datacenter.op_failures", count(f.op_failures), "count"},
      {"datacenter.retries", count(f.retries), "count"},
      {"datacenter.rollbacks", count(f.rollbacks), "count"},
      {"resilience.breaker_opens", count(f.breaker_opens), "count"},
      {"resilience.ladder_downshifts", count(f.ladder_downshifts), "count"},
      {"obs.telemetry.samples", count(f.sink.samples), "count"},
      {"obs.telemetry.bytes", count(f.telemetry_bytes), "B"},
      {"obs.sink.total_s", med([](const RunSample& r) { return r.sink.total_s; }),
       "s"},
      {"traced.run_s", traced_run_s, "s"},
      {"trace_overhead_s", traced_run_s - untraced_run_s, "s"},
  };
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           exact(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2ebench
