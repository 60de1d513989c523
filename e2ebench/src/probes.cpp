#include "probes.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace e2ebench {

using easched::datacenter::HostId;
using easched::sched::Action;
using easched::sched::SchedContext;

namespace {

double ms_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * 1e-6;
}

}  // namespace

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kRun: return "run";
    case SpanKind::kRound: return "round";
    case SpanKind::kSchedule: return "schedule";
    case SpanKind::kPowerOff: return "power_off";
    case SpanKind::kPowerOn: return "power_on";
    case SpanKind::kTelemetrySink: return "telemetry_sink";
  }
  return "?";
}

void SpanLog::begin_run(std::uint32_t run_id) {
  run_ = run_id;
  run_span_ = -1;
  const std::int64_t t = now_ns();
  run_span_ = add(SpanKind::kRun, -1, t, t);
}

void SpanLog::end_run() {
  extend(run_span_, now_ns());
  run_span_ = -1;
}

std::int32_t SpanLog::add(SpanKind kind, std::int32_t parent,
                          std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back({kind, run_, parent, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"run\":%u}}\n",
                  i == 0 ? "" : ",", to_string(s.kind), s.run,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.run);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void PolicyProbe::close_round() {
  if (round_open) round_ms.push_back(open_round_ms);
  round_open = false;
  open_round_span = -1;
}

TimingPolicy::TimingPolicy(
    std::unique_ptr<easched::core::ScoreBasedPolicy> inner,
    PolicyProbe* probe, SpanLog* spans)
    : inner_(std::move(inner)), probe_(probe), spans_(spans) {}

std::vector<Action> TimingPolicy::schedule(const SchedContext& ctx) {
  PolicyProbe& p = *probe_;
  p.close_round();
  const std::int64_t start = now_ns();
  std::vector<Action> actions = inner_->schedule(ctx);
  const std::int64_t end = now_ns();
  const double ms = ms_between(start, end);
  p.marks_ns.push_back(start);
  p.marks_ns.push_back(end);

  const auto& stats = inner_->last_stats();
  p.schedule_ms.push_back(ms);
  p.cells += static_cast<std::uint64_t>(ctx.dc.num_hosts()) * ctx.queue.size();
  p.actions += actions.size();
  p.climb_moves += static_cast<std::uint64_t>(stats.moves);
  p.limit_hits += stats.hit_move_limit ? 1 : 0;
  p.round_open = true;
  p.open_round_ms = ms;
  if (spans_ != nullptr) {
    p.open_round_span =
        spans_->add(SpanKind::kRound, spans_->run_span(), start, end);
    spans_->add(SpanKind::kSchedule, p.open_round_span, start, end);
  }

  p.digest.add(ctx.dc.simulator().now());
  p.digest.add(static_cast<std::uint64_t>(actions.size()));
  for (const Action& a : actions) {
    p.digest.add(static_cast<std::uint64_t>(a.kind));
    p.digest.add(static_cast<std::uint64_t>(a.vm));
    p.digest.add(static_cast<std::uint64_t>(a.host));
  }
  return actions;
}

void TimingPolicy::power_call(SpanKind kind, std::int64_t start,
                              std::int64_t end, double now, HostId chosen) {
  PolicyProbe& p = *probe_;
  const double ms = ms_between(start, end);
  p.marks_ns.push_back(start);
  p.marks_ns.push_back(end);
  (kind == SpanKind::kPowerOff ? p.power_off_ms : p.power_on_ms).push_back(ms);
  if (p.round_open) p.open_round_ms += ms;
  if (spans_ != nullptr && p.open_round_span >= 0) {
    spans_->add(kind, p.open_round_span, start, end);
    spans_->extend(p.open_round_span, end);
  }
  p.digest.add(static_cast<std::uint64_t>(kind));
  p.digest.add(now);
  p.digest.add(static_cast<std::uint64_t>(chosen));
}

HostId TimingPolicy::choose_power_on(const SchedContext& ctx,
                                     const std::vector<HostId>& off_hosts) {
  const std::int64_t start = now_ns();
  const HostId h = inner_->choose_power_on(ctx, off_hosts);
  power_call(SpanKind::kPowerOn, start, now_ns(), ctx.dc.simulator().now(), h);
  return h;
}

HostId TimingPolicy::choose_power_off(const SchedContext& ctx,
                                      const std::vector<HostId>& idle_hosts) {
  const std::int64_t start = now_ns();
  const HostId h = inner_->choose_power_off(ctx, idle_hosts);
  power_call(SpanKind::kPowerOff, start, now_ns(), ctx.dc.simulator().now(),
             h);
  probe_->candidates += idle_hosts.size();
  return h;
}

TimingSink::TimingSink(std::unique_ptr<easched::obs::TelemetrySink> inner,
                       SinkProbe* probe, SpanLog* spans,
                       std::vector<std::int64_t>* marks)
    : inner_(std::move(inner)), probe_(probe), spans_(spans), marks_(marks) {}

void TimingSink::record(std::int64_t start, std::int64_t end) {
  if (marks_ != nullptr) {
    marks_->push_back(start);
    marks_->push_back(end);
  }
  probe_->total_s += static_cast<double>(end - start) * 1e-9;
  if (spans_ != nullptr) {
    spans_->add(SpanKind::kTelemetrySink, spans_->run_span(), start, end);
  }
}

void TimingSink::on_sample(const easched::obs::TelemetrySnapshot& snap) {
  const std::int64_t start = now_ns();
  inner_->on_sample(snap);
  record(start, now_ns());
  ++probe_->samples;
}

void TimingSink::finish() {
  const std::int64_t start = now_ns();
  inner_->finish();
  record(start, now_ns());
}

}  // namespace e2ebench
