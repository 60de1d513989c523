// Measurement probes the benchmark wraps around the library from outside:
// a timing decorator for the scheduling policy, a timing decorator for a
// telemetry sink, an in-memory span log and the decision digest.
//
// The experiment runner owns (and destroys) the policy and the telemetry
// plane's sinks, so every sample the decorators take is written into a
// probe object the benchmark owns; the decorators only hold pointers to it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/score_based_policy.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "sched/policy.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over 64-bit words: an order-sensitive digest of decisions.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

enum class SpanKind : std::uint8_t {
  kRun,
  kRound,
  kSchedule,
  kPowerOff,
  kPowerOn,
  kTelemetrySink,
};

[[nodiscard]] const char* to_string(SpanKind kind) noexcept;

struct Span {
  SpanKind kind = SpanKind::kRun;
  std::uint32_t run = 0;   ///< id shared by every span of one run
  std::int32_t parent = -1;  ///< index into the log; -1 for a run span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans recorded in memory during traced runs and written out at the end
/// in the Chrome trace-event format (loadable in Perfetto / about:tracing).
class SpanLog {
 public:
  /// Opens a run span; later spans of this run nest under it.
  void begin_run(std::uint32_t run_id);
  void end_run();
  void clear() { spans_.clear(); }
  /// Appends a span and returns its index.
  std::int32_t add(SpanKind kind, std::int32_t parent, std::int64_t start_ns,
                   std::int64_t end_ns);
  void extend(std::int32_t index, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  [[nodiscard]] std::int32_t run_span() const noexcept { return run_span_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Writes every span; returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t run_ = 0;
  std::int32_t run_span_ = -1;
};

/// Samples of one run taken by TimingPolicy.
struct PolicyProbe {
  std::vector<double> schedule_ms;
  std::vector<double> power_off_ms;
  std::vector<double> power_on_ms;
  /// Decision latency per round: one schedule() plus the choose_power_*
  /// calls that follow it before the next schedule().
  std::vector<double> round_ms;
  std::uint64_t cells = 0;       ///< sum of hosts x queue offered
  std::uint64_t candidates = 0;  ///< sum of idle-list lengths offered
  std::uint64_t actions = 0;     ///< actions returned by schedule()
  std::uint64_t climb_moves = 0;
  std::uint64_t limit_hits = 0;
  Digest digest;
  /// Steady-clock time at the start and the end of every policy and sink
  /// call, in call order. Repeats of one input make the same calls in the
  /// same order, so the k-th interval between marks is the same work in
  /// every repeat (see RunSample::pieces_s).
  std::vector<std::int64_t> marks_ns;

  /// Closes the round in progress, if any: the next schedule() call does
  /// this, and so must the caller once the run has returned.
  void close_round();

  // The round in progress.
  bool round_open = false;
  double open_round_ms = 0;
  std::int32_t open_round_span = -1;
};

/// Policy decorator: forwards every call to a score-based policy and times
/// it into a PolicyProbe (and, when given a span log, records spans).
class TimingPolicy final : public easched::sched::Policy {
 public:
  TimingPolicy(std::unique_ptr<easched::core::ScoreBasedPolicy> inner,
               PolicyProbe* probe, SpanLog* spans = nullptr);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool uses_migration() const override {
    return inner_->uses_migration();
  }
  std::vector<easched::sched::Action> schedule(
      const easched::sched::SchedContext& ctx) override;
  easched::datacenter::HostId choose_power_on(
      const easched::sched::SchedContext& ctx,
      const std::vector<easched::datacenter::HostId>& off_hosts) override;
  easched::datacenter::HostId choose_power_off(
      const easched::sched::SchedContext& ctx,
      const std::vector<easched::datacenter::HostId>& idle_hosts) override;

 private:
  void power_call(SpanKind kind, std::int64_t start, std::int64_t end,
                  double now, easched::datacenter::HostId chosen);

  std::unique_ptr<easched::core::ScoreBasedPolicy> inner_;
  PolicyProbe* probe_;
  SpanLog* spans_;
};

/// Samples of one run taken by TimingSink.
struct SinkProbe {
  std::uint64_t samples = 0;
  double total_s = 0;
};

/// Telemetry-sink decorator: times the wrapped sink's work.
class TimingSink final : public easched::obs::TelemetrySink {
 public:
  /// `marks`, when given, receives the start and end of every call.
  TimingSink(std::unique_ptr<easched::obs::TelemetrySink> inner,
             SinkProbe* probe, SpanLog* spans = nullptr,
             std::vector<std::int64_t>* marks = nullptr);
  void on_sample(const easched::obs::TelemetrySnapshot& snap) override;
  void finish() override;

 private:
  void record(std::int64_t start, std::int64_t end);

  std::unique_ptr<easched::obs::TelemetrySink> inner_;
  SinkProbe* probe_;
  SpanLog* spans_;
  std::vector<std::int64_t>* marks_;
};

}  // namespace e2ebench
