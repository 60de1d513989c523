// One measured run of a workload, its correctness fingerprint and the
// metrics the benchmark reports over a set of runs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "probes.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

namespace e2ebench {

/// What every run of one (workload, seed) must reproduce exactly: the
/// decision digest and the run's headline outputs.
struct Fingerprint {
  std::string digest;  ///< sim time + every action + every power choice
  double energy_kwh = 0;
  double satisfaction_pct = 0;
  std::uint64_t migrations = 0;
  std::uint64_t turn_ons = 0;
  std::uint64_t turn_offs = 0;
  std::uint64_t sim_events = 0;

  /// Canonical one-line form; doubles keep every digit.
  [[nodiscard]] std::string to_string() const;
  bool operator==(const Fingerprint&) const = default;
};

/// One run's measurements, reduced to scalars as soon as the run ends so
/// that the benchmark's own memory stays out of the peak-RSS figure.
struct RunSample {
  int input = 0;  ///< which input of the benchmark run (see input_seed)
  bool traced = false;
  double setup_s = 0;  ///< fastest of the run's set-up timings
  double run_s = 0;    ///< wall time of the run_experiment call
  /// run_s split at every probe mark (PolicyProbe::marks_ns): from the
  /// start to the first mark, between consecutive marks, and from the last
  /// mark to the end. They add up to run_s.
  std::vector<double> pieces_s;
  /// Decision latency of every round (see PolicyProbe::round_ms).
  std::vector<double> round_ms;
  std::size_t rounds = 0;
  // Policy calls.
  std::size_t schedule_calls = 0;
  double schedule_s = 0;
  double schedule_p99_ms = 0;
  std::size_t power_off_calls = 0;
  double power_off_s = 0;
  double power_off_p99_ms = 0;
  std::size_t power_on_calls = 0;
  double power_on_s = 0;
  std::uint64_t cells = 0;
  std::uint64_t candidates = 0;
  std::uint64_t actions = 0;
  std::uint64_t climb_moves = 0;
  std::uint64_t limit_hits = 0;
  SinkProbe sink;
  Fingerprint fingerprint;
  // Run counters from RunResult / RunReport.
  std::size_t jobs_submitted = 0;
  std::size_t jobs_finished = 0;
  std::size_t violations = 0;
  bool hit_horizon = false;
  std::uint64_t sim_cancelled = 0;
  std::uint64_t creations = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t op_failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t ladder_downshifts = 0;
  std::uint64_t telemetry_bytes = 0;
  /// A telemetry workload's stream was not written (sink failed to open,
  /// no samples, or an empty file).
  bool telemetry_lost = false;
  /// Phase-profiler totals in seconds, indexed by obs::Phase (traced runs).
  std::array<double, easched::obs::kPhaseCount> phase_s{};

  /// Every job finished, the invariant checker (if on) stayed silent and
  /// the telemetry stream (if any) was written.
  [[nodiscard]] bool completed() const {
    return jobs_finished == jobs_submitted && violations == 0 &&
           !hit_horizon && !telemetry_lost;
  }
  [[nodiscard]] double phase(easched::obs::Phase p) const {
    return phase_s[static_cast<std::size_t>(p)];
  }
};

/// Runs the set-up input once through experiments::run_experiment, its
/// policy wrapped in the timing decorator. A non-null `spans` makes it the
/// traced run: spans are recorded and the phase profiler is on. Files the
/// run writes (the telemetry stream) go to `out_dir` and are removed
/// afterwards.
RunSample run_once(const WorkloadSpec& spec, std::uint64_t seed, Setup setup,
                   const std::string& out_dir, SpanLog* spans = nullptr,
                   std::uint32_t run_id = 0);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Median of f(run) over the runs (0 for none).
template <typename F>
double median_of(const std::vector<RunSample>& runs, F f) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const RunSample& r : runs) v.push_back(f(r));
  return v.empty() ? 0 : easched::support::percentile(std::move(v), 50);
}

/// For each input the smallest f(run) over its runs, then the median over
/// the inputs. Other tenants of a shared host only ever add time, so the
/// fastest repeat of an input is its least disturbed one.
template <typename F>
double median_of_fastest(const std::vector<RunSample>& runs, F f) {
  std::vector<double> best;
  for (const RunSample& r : runs) {
    const auto i = static_cast<std::size_t>(r.input);
    if (i >= best.size()) {
      best.resize(i + 1, std::numeric_limits<double>::infinity());
    }
    best[i] = std::min(best[i], f(r));
  }
  return best.empty() ? 0 : easched::support::percentile(std::move(best), 50);
}

/// Folds one repeat's samples into the element-wise minimum over the
/// repeats of an input so far. The k-th sample is the same work in every
/// repeat, so its smallest time is its least disturbed one: a slow spell of
/// the host that covers part of one repeat is replaced, piece by piece, by
/// another repeat's time for that piece. Returns false (and leaves `best`
/// as it was) when the lengths differ, i.e. the repeat made other calls.
bool keep_fastest(std::vector<double>& best, const std::vector<double>& sample);

/// The user-visible metrics of untraced runs: setup_s as median_of_fastest,
/// run_s as the mean over inputs of `run_s_per_input` (each the sum of
/// its pieces' fastest times, see keep_fastest; one input's cost swings
/// with its seed, and the mean evens that out faster than the median), the
/// decision percentiles
/// over `rounds_ms` (each input's per-round fastest times, pooled), energy
/// and satisfaction as means over `inputs` (one fingerprint per input),
/// `peak_rss_mb` the process's peak resident memory.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(
    const std::vector<RunSample>& runs,
    const std::vector<double>& run_s_per_input,
    const std::vector<Fingerprint>& inputs,
    const std::vector<double>& rounds_ms, double peak_rss_mb,
    double finished_pct);

/// Per-layer self times of one traced run; they add up to its run_s.
[[nodiscard]] std::vector<Metric> self_times(const RunSample& traced);

/// How far below zero a self time may read. Each is a difference of sums of
/// steady-clock intervals, so a layer nested where self_times() assumes
/// gives a self time >= 0 up to rounding; a more negative one means a layer
/// ran outside the phase it is subtracted from.
inline constexpr double kSelfTimeSlackS = 1e-6;

/// The per-layer metrics: counters of the first traced run, times as
/// medians over the traced runs, trace overhead against the untraced runs
/// (all of the same input).
[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const std::vector<RunSample>& traced,
    const std::vector<RunSample>& untraced);

/// The result line: one JSON object with correct/attempted/failed/metrics.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace e2ebench
