#include "obs/trace.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "support/json.hpp"

namespace easched::obs {

namespace json = support::json;

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRunBegin:        return "run-begin";
    case EventKind::kJobArrival:      return "job-arrival";
    case EventKind::kRound:           return "round";
    case EventKind::kDecision:        return "decision";
    case EventKind::kCreateStart:     return "create-start";
    case EventKind::kVmReady:         return "vm-ready";
    case EventKind::kJobFinished:     return "job-finished";
    case EventKind::kMigrateStart:    return "migrate-start";
    case EventKind::kMigrateDone:     return "migrate-done";
    case EventKind::kMigrateRollback: return "migrate-rollback";
    case EventKind::kPowerOn:         return "power-on";
    case EventKind::kHostOnline:      return "host-online";
    case EventKind::kPowerOff:        return "power-off";
    case EventKind::kHostOff:         return "host-off";
    case EventKind::kHostFailed:      return "host-failed";
    case EventKind::kHostRepaired:    return "host-repaired";
    case EventKind::kBootFailed:      return "boot-failed";
    case EventKind::kFaultInjected:   return "fault-injected";
    case EventKind::kOpFailed:        return "op-failed";
    case EventKind::kQuarantine:      return "quarantine";
    case EventKind::kUnquarantine:    return "unquarantine";
    case EventKind::kSlaAlarm:        return "sla-alarm";
    case EventKind::kRetry:           return "retry";
    case EventKind::kInvariantViolation:
      return "invariant-violation";
    case EventKind::kLadderShift:     return "ladder-shift";
    case EventKind::kJobShed:         return "job-shed";
    case EventKind::kJobDeferred:     return "job-deferred";
    case EventKind::kBreakerOpen:     return "breaker-open";
    case EventKind::kBreakerProbe:    return "breaker-probe";
    case EventKind::kBreakerClose:    return "breaker-close";
    case EventKind::kHostDead:        return "host-dead";
    case EventKind::kAlertFire:       return "alert-fire";
    case EventKind::kAlertResolve:    return "alert-resolve";
  }
  return "?";
}

namespace {

/// Category shown in the Chrome trace: where in the stack the event lives.
const char* category(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRunBegin:
    case EventKind::kJobArrival:
    case EventKind::kRound:
    case EventKind::kDecision:
    case EventKind::kSlaAlarm:
    case EventKind::kRetry:
      return "sched";
    case EventKind::kCreateStart:
    case EventKind::kVmReady:
    case EventKind::kJobFinished:
    case EventKind::kMigrateStart:
    case EventKind::kMigrateDone:
    case EventKind::kMigrateRollback:
      return "vm";
    case EventKind::kFaultInjected:
    case EventKind::kOpFailed:
      return "faults";
    case EventKind::kInvariantViolation:
      return "validate";
    case EventKind::kLadderShift:
    case EventKind::kJobShed:
    case EventKind::kJobDeferred:
    case EventKind::kBreakerOpen:
    case EventKind::kBreakerProbe:
    case EventKind::kBreakerClose:
    case EventKind::kHostDead:
      return "resilience";
    case EventKind::kAlertFire:
    case EventKind::kAlertResolve:
      return "telemetry";
    default:
      return "host";
  }
}

bool is_wall_arg(const std::string& key) {
  return key.rfind("wall_", 0) == 0;
}

}  // namespace

TraceEvent& Tracer::emit(sim::SimTime t, EventKind kind) {
  TraceEvent e;
  e.t = t;
  e.seq = next_seq_++;
  e.kind = kind;
  events_.push_back(std::move(e));
  return events_.back();
}

TraceEvent& Tracer::span(sim::SimTime start, sim::SimTime end,
                         EventKind kind) {
  TraceEvent& e = emit(start, kind);
  e.dur = std::max(0.0, end - start);
  return e;
}

std::vector<std::size_t> Tracer::sorted_order() const {
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable by sim-time: ties keep emission (seq) order, which is exactly
  // the deterministic (t, seq) total order the header promises.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return events_[a].t < events_[b].t;
                   });
  return order;
}

void Tracer::write_jsonl(std::ostream& os, bool include_wall) const {
  for (std::size_t i : sorted_order()) {
    const TraceEvent& e = events_[i];
    os << "{\"t\":";
    json::write_number(os, e.t);
    if (e.dur > 0) {
      os << ",\"dur\":";
      json::write_number(os, e.dur);
    }
    os << ",\"seq\":" << e.seq << ",\"kind\":\"" << to_string(e.kind) << '"';
    if (e.vm >= 0) os << ",\"vm\":" << e.vm;
    if (e.host >= 0) os << ",\"host\":" << e.host;
    if (e.host2 >= 0) os << ",\"host2\":" << e.host2;
    if (!e.label.empty()) {
      os << ",\"label\":";
      json::write_string(os, e.label);
    }
    bool any = false;
    for (const auto& [key, value] : e.args) {
      if (!include_wall && is_wall_arg(key)) continue;
      os << (any ? "," : ",\"args\":{");
      json::write_string(os, key);
      os << ':';
      json::write_number(os, value);
      any = true;
    }
    if (any) os << '}';
    os << "}\n";
  }
}

void Tracer::write_chrome(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"easched\"}},\n";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"scheduler\"}}";
  for (std::size_t i : sorted_order()) {
    const TraceEvent& e = events_[i];
    os << ",\n{\"name\":\"" << to_string(e.kind) << "\",\"cat\":\""
       << category(e.kind) << "\",\"ph\":\"" << (e.dur > 0 ? 'X' : 'i')
       << "\",\"ts\":";
    // trace_event timestamps are microseconds.
    json::write_number(os, e.t * 1e6);
    if (e.dur > 0) {
      os << ",\"dur\":";
      json::write_number(os, e.dur * 1e6);
    }
    // Host-scoped events render as one Perfetto track per host (tid =
    // host + 1); everything else lands on the scheduler track (tid 0).
    os << ",\"pid\":0,\"tid\":" << (e.host >= 0 ? e.host + 1 : 0);
    if (e.dur <= 0) os << ",\"s\":\"t\"";  // instant scope: thread
    os << ",\"args\":{\"seq\":" << e.seq;
    if (e.vm >= 0) os << ",\"vm\":" << e.vm;
    if (e.host2 >= 0) os << ",\"host2\":" << e.host2;
    if (!e.label.empty()) {
      os << ",\"label\":";
      json::write_string(os, e.label);
    }
    for (const auto& [key, value] : e.args) {
      os << ',';
      json::write_string(os, key);
      os << ':';
      json::write_number(os, value);
    }
    os << "}}";
  }
  os << "\n]}\n";
}

bool validate_chrome_trace(const std::string& text, std::string* error) {
  const auto report = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  json::ParseError parse_error;
  const auto doc = json::parse(text, &parse_error);
  if (!doc) return report(parse_error.to_string());
  const json::Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return report("missing \"traceEvents\" array");
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const json::Value& e = events->items[i];
    std::string problem;
    const auto require = [&e, &problem](const char* key, bool number) {
      const json::Value* v = e.find(key);
      if (v == nullptr) {
        problem = std::string("missing \"") + key + '"';
      } else if (number ? !v->is_number() : !v->is_string()) {
        problem = std::string("\"") + key + "\" has the wrong type";
      }
      return problem.empty();
    };
    if (!e.is_object()) {
      problem = "not an object";
    } else if (require("name", false) && require("ph", false) &&
               require("pid", true) && require("tid", true)) {
      // The phase letters chrome://tracing / Perfetto understand (the
      // subset any producer may emit; ours uses X, i and M).
      static const std::string kPhases = "BEXiIMCbensfPSTpFOND";
      const std::string& ph = e.find("ph")->string;
      if (ph.size() != 1 || kPhases.find(ph[0]) == std::string::npos) {
        problem = "unknown phase \"" + ph + '"';
      } else if (ph[0] != 'M' && require("ts", true) && ph[0] == 'X') {
        // Every timed phase needs a timestamp; complete events also carry
        // their duration. Metadata ("M") events need neither.
        require("dur", true);
      }
    }
    if (!problem.empty()) {
      return report("event " + std::to_string(i) + ": " + problem);
    }
  }
  return true;
}

}  // namespace easched::obs
