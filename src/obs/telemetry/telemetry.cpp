#include "obs/telemetry/telemetry.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>

#include "datacenter/datacenter.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "sched/driver.hpp"
#include "support/json.hpp"

namespace easched::obs {

namespace json = support::json;

void write_snapshot_jsonl(std::ostream& os, const TelemetrySnapshot& snap) {
  os << "{\"seq\":" << snap.seq << ",\"t\":";
  json::write_number(os, snap.t);
  os << ",\"on\":" << snap.hosts_on << ",\"booting\":" << snap.hosts_booting
     << ",\"off\":" << snap.hosts_off << ",\"failed\":" << snap.hosts_failed
     << ",\"working\":" << snap.working << ",\"online\":" << snap.online
     << ",\"ratio\":";
  json::write_number(os, snap.ratio);
  os << ",\"lmin\":";
  json::write_number(os, snap.lambda_min);
  os << ",\"lmax\":";
  json::write_number(os, snap.lambda_max);
  os << ",\"power_w\":";
  json::write_number(os, snap.power_w);
  os << ",\"kwh\":";
  json::write_number(os, snap.energy_kwh);
  os << ",\"queue\":" << snap.queue << ",\"backoff\":" << snap.backoff
     << ",\"running\":" << snap.running << ",\"deferred\":" << snap.deferred
     << ",\"shed\":" << snap.shed << ",\"sla\":";
  json::write_number(os, snap.sla);
  os << ",\"rung\":" << snap.rung
     << ",\"breakers_open\":" << snap.breakers_open << ",\"alerts\":[";
  for (std::size_t i = 0; i < snap.active_alerts.size(); ++i) {
    if (i > 0) os << ',';
    json::write_string(os, snap.active_alerts[i]);
  }
  os << "],\"hosts\":[";
  for (std::size_t i = 0; i < snap.hosts.size(); ++i) {
    const HostSample& h = snap.hosts[i];
    if (i > 0) os << ',';
    os << '[' << static_cast<int>(h.state) << ','
       << static_cast<int>(h.health) << ',';
    json::write_number(os, h.util_pct);
    os << ',';
    json::write_number(os, h.power_w);
    os << ']';
  }
  os << "]}";
}

namespace {

// Field readers for parse_snapshot_jsonl: each fails on a missing field or
// a value of the wrong type or range.

bool read_num(const json::Value* v, double* out) {
  if (v == nullptr || !v->is_number()) return false;
  *out = v->number;
  return true;
}

/// Non-negative integers only. The range check comes before the cast:
/// converting an out-of-range double is undefined behaviour.
template <typename T>
bool read_int(const json::Value* v, T* out) {
  double d = 0;
  if (!read_num(v, &d) || d < 0 || d != std::floor(d) ||
      d >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    return false;
  }
  *out = static_cast<T>(d);
  return true;
}

bool read_float(const json::Value* v, float* out) {
  double d = 0;
  if (!read_num(v, &d) || std::fabs(d) > std::numeric_limits<float>::max()) {
    return false;
  }
  *out = static_cast<float>(d);
  return true;
}

}  // namespace

bool parse_snapshot_jsonl(const std::string& line, TelemetrySnapshot* out) {
  if (out == nullptr) return false;
  const auto doc = json::parse(line);
  if (!doc || !doc->is_object()) return false;
  const json::Value& o = *doc;
  TelemetrySnapshot snap;
  const bool fields_ok =
      read_int(o.find("seq"), &snap.seq) && read_num(o.find("t"), &snap.t) &&
      read_int(o.find("on"), &snap.hosts_on) &&
      read_int(o.find("booting"), &snap.hosts_booting) &&
      read_int(o.find("off"), &snap.hosts_off) &&
      read_int(o.find("failed"), &snap.hosts_failed) &&
      read_int(o.find("working"), &snap.working) &&
      read_int(o.find("online"), &snap.online) &&
      read_num(o.find("ratio"), &snap.ratio) &&
      read_num(o.find("lmin"), &snap.lambda_min) &&
      read_num(o.find("lmax"), &snap.lambda_max) &&
      read_num(o.find("power_w"), &snap.power_w) &&
      read_num(o.find("kwh"), &snap.energy_kwh) &&
      read_int(o.find("queue"), &snap.queue) &&
      read_int(o.find("backoff"), &snap.backoff) &&
      read_int(o.find("running"), &snap.running) &&
      read_int(o.find("deferred"), &snap.deferred) &&
      read_int(o.find("shed"), &snap.shed) &&
      read_num(o.find("sla"), &snap.sla) &&
      read_int(o.find("rung"), &snap.rung) &&
      read_int(o.find("breakers_open"), &snap.breakers_open);
  const json::Value* alerts = o.find("alerts");
  const json::Value* hosts = o.find("hosts");
  if (!fields_ok || alerts == nullptr || !alerts->is_array() ||
      hosts == nullptr || !hosts->is_array()) {
    return false;
  }
  for (const json::Value& name : alerts->items) {
    if (!name.is_string()) return false;
    snap.active_alerts.push_back(name.string);
  }
  for (const json::Value& tuple : hosts->items) {
    HostSample h;
    if (!tuple.is_array() || tuple.items.size() != 4 ||
        !read_int(&tuple.items[0], &h.state) ||
        !read_int(&tuple.items[1], &h.health) ||
        !read_float(&tuple.items[2], &h.util_pct) ||
        !read_float(&tuple.items[3], &h.power_w)) {
      return false;
    }
    snap.hosts.push_back(h);
  }
  *out = std::move(snap);
  return true;
}

namespace {

void prom_family(std::ostream& os, const char* name, const char* help,
                 const char* type) {
  os << "# HELP " << name << ' ' << help << "\n# TYPE " << name << ' '
     << type << '\n';
}

void prom_value(std::ostream& os, const char* name, double v,
                const std::string& labels = "") {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ';
  json::write_number(os, v);
  os << '\n';
}

}  // namespace

void write_snapshot_prom(std::ostream& os, const TelemetrySnapshot& snap) {
  prom_family(os, "easched_sample_seq", "Telemetry sample sequence number",
              "counter");
  prom_value(os, "easched_sample_seq", static_cast<double>(snap.seq));
  prom_family(os, "easched_sim_time_seconds", "Simulation clock", "gauge");
  prom_value(os, "easched_sim_time_seconds", snap.t);

  prom_family(os, "easched_hosts", "Hosts by power state", "gauge");
  prom_value(os, "easched_hosts", snap.hosts_on, "state=\"on\"");
  prom_value(os, "easched_hosts", snap.hosts_booting, "state=\"booting\"");
  prom_value(os, "easched_hosts", snap.hosts_off, "state=\"off\"");
  prom_value(os, "easched_hosts", snap.hosts_failed, "state=\"failed\"");
  prom_family(os, "easched_hosts_working",
              "Hosts executing at least one VM or operation", "gauge");
  prom_value(os, "easched_hosts_working", snap.working);
  prom_family(os, "easched_hosts_online", "Hosts on or booting", "gauge");
  prom_value(os, "easched_hosts_online", snap.online);
  prom_family(os, "easched_working_ratio",
              "Working/online host ratio (the paper's control signal)",
              "gauge");
  prom_value(os, "easched_working_ratio", snap.ratio);
  prom_family(os, "easched_lambda_min", "Power controller lower threshold",
              "gauge");
  prom_value(os, "easched_lambda_min", snap.lambda_min);
  prom_family(os, "easched_lambda_max", "Power controller upper threshold",
              "gauge");
  prom_value(os, "easched_lambda_max", snap.lambda_max);

  prom_family(os, "easched_power_watts", "Fleet electrical draw", "gauge");
  prom_value(os, "easched_power_watts", snap.power_w);
  prom_family(os, "easched_energy_kwh_total",
              "Cumulative energy since simulation start", "counter");
  prom_value(os, "easched_energy_kwh_total", snap.energy_kwh);

  prom_family(os, "easched_queue_depth", "Pending (unallocated) VMs",
              "gauge");
  prom_value(os, "easched_queue_depth", static_cast<double>(snap.queue));
  prom_family(os, "easched_backoff", "VMs serving a post-failure backoff",
              "gauge");
  prom_value(os, "easched_backoff", static_cast<double>(snap.backoff));
  prom_family(os, "easched_jobs_running", "VMs currently placed", "gauge");
  prom_value(os, "easched_jobs_running", static_cast<double>(snap.running));
  prom_family(os, "easched_jobs_deferred_total",
              "Arrivals deferred by admission control", "counter");
  prom_value(os, "easched_jobs_deferred_total",
             static_cast<double>(snap.deferred));
  prom_family(os, "easched_jobs_shed_total",
              "Arrivals shed by admission control", "counter");
  prom_value(os, "easched_jobs_shed_total", static_cast<double>(snap.shed));
  prom_family(os, "easched_sla_satisfaction",
              "Mean satisfaction of finished jobs", "gauge");
  prom_value(os, "easched_sla_satisfaction", snap.sla);

  prom_family(os, "easched_degradation_rung",
              "Resilience degradation-ladder level (0 = full)", "gauge");
  prom_value(os, "easched_degradation_rung", snap.rung);
  prom_family(os, "easched_breakers_open",
              "Host circuit breakers currently not healthy", "gauge");
  prom_value(os, "easched_breakers_open",
             static_cast<double>(snap.breakers_open));

  prom_family(os, "easched_alert_active", "Alert rules currently firing",
              "gauge");
  for (const std::string& name : snap.active_alerts) {
    std::string label = "rule=\"";
    // Prometheus text format: label values escape `\`, `"` and newline.
    for (char c : name) {
      if (c == '\n') {
        label += "\\n";
        continue;
      }
      if (c == '"' || c == '\\') label += '\\';
      label += c;
    }
    label += '"';
    prom_value(os, "easched_alert_active", 1, label);
  }

  prom_family(os, "easched_host_state",
              "Per-host power state (datacenter::HostState value)", "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_state", snap.hosts[h].state,
               "host=\"" + std::to_string(h) + "\"");
  }
  prom_family(os, "easched_host_health",
              "Per-host breaker health (resilience::HostHealth value)",
              "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_health", snap.hosts[h].health,
               "host=\"" + std::to_string(h) + "\"");
  }
  prom_family(os, "easched_host_util_pct",
              "Per-host allocated CPU as % of capacity", "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_util_pct", snap.hosts[h].util_pct,
               "host=\"" + std::to_string(h) + "\"");
  }
  prom_family(os, "easched_host_power_watts", "Per-host electrical draw",
              "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_power_watts", snap.hosts[h].power_w,
               "host=\"" + std::to_string(h) + "\"");
  }
}

// ---- SnapshotRing ----------------------------------------------------------

SnapshotRing::SnapshotRing(std::size_t capacity) : capacity_(capacity) {
  buf_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

void SnapshotRing::push(TelemetrySnapshot snap) {
  ++total_;
  if (capacity_ == 0) return;
  if (buf_.size() < capacity_) {
    buf_.push_back(std::move(snap));
    return;
  }
  buf_[head_] = std::move(snap);
  head_ = (head_ + 1) % capacity_;
}

void SnapshotRing::clear() {
  buf_.clear();
  head_ = 0;
  total_ = 0;
}

const TelemetrySnapshot& SnapshotRing::at(std::size_t i) const {
  return buf_[(head_ + i) % buf_.size()];
}

const TelemetrySnapshot& SnapshotRing::latest() const {
  return at(buf_.size() - 1);
}

// ---- sinks -----------------------------------------------------------------

struct JsonlSink::Impl {
  std::ofstream out;
};

JsonlSink::JsonlSink(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path, std::ios::trunc);
}

JsonlSink::~JsonlSink() = default;

bool JsonlSink::ok() const noexcept { return impl_->out.is_open(); }

void JsonlSink::on_sample(const TelemetrySnapshot& snap) {
  if (!impl_->out.is_open()) return;
  write_snapshot_jsonl(impl_->out, snap);
  impl_->out << '\n';
}

void JsonlSink::finish() {
  if (impl_->out.is_open()) impl_->out.flush();
}

PromSink::PromSink(std::string path) : path_(std::move(path)) {}

void PromSink::on_sample(const TelemetrySnapshot& snap) {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return;
    write_snapshot_prom(out, snap);
  }
  std::rename(tmp.c_str(), path_.c_str());
}

// ---- TelemetryPlane --------------------------------------------------------

TelemetryPlane::TelemetryPlane() : ring_(TelemetryConfig{}.ring_capacity) {}

void TelemetryPlane::enable(TelemetryConfig config) {
  enabled_ = true;
  config_ = config;
  if (config_.period_s <= 0) config_.period_s = 60;
  ring_ = SnapshotRing(config_.ring_capacity);
}

TelemetrySink* TelemetryPlane::add_sink(std::unique_ptr<TelemetrySink> sink) {
  sinks_.push_back(std::move(sink));
  return sinks_.back().get();
}

void TelemetryPlane::set_alert_rules(std::vector<AlertRule> rules) {
  alerts_.configure(std::move(rules));
}

TelemetrySnapshot TelemetryPlane::capture(sim::SimTime now,
                                          const Sources& sources) const {
  TelemetrySnapshot snap;
  snap.t = now;
  snap.lambda_min = sources.lambda_min;
  snap.lambda_max = sources.lambda_max;

  const resilience::ResilienceController* ctrl =
      sources.recorder != nullptr ? resilience::controller(*sources.recorder)
                                  : nullptr;

  if (sources.dc != nullptr) {
    const datacenter::Datacenter& dc = *sources.dc;
    snap.hosts.reserve(dc.num_hosts());
    for (std::size_t h = 0; h < dc.num_hosts(); ++h) {
      const datacenter::Host& host =
          dc.host(static_cast<datacenter::HostId>(h));
      HostSample hs;
      hs.state = static_cast<std::uint8_t>(host.state);
      if (ctrl != nullptr) {
        hs.health = static_cast<std::uint8_t>(
            ctrl->health(static_cast<datacenter::HostId>(h)));
      }
      const double cap = host.spec.cpu_capacity_pct;
      hs.util_pct = static_cast<float>(
          cap > 0 ? 100.0 * host.used_cpu_pct / cap : 0.0);
      if (sources.recorder != nullptr) {
        hs.power_w =
            static_cast<float>(sources.recorder->watts.host_current(h));
      }
      snap.hosts.push_back(hs);

      switch (host.state) {
        case datacenter::HostState::kOn:
          ++snap.hosts_on;
          break;
        case datacenter::HostState::kBooting:
          ++snap.hosts_booting;
          break;
        case datacenter::HostState::kFailed:
          ++snap.hosts_failed;
          break;
        // ShuttingDown is rolled into "off" — it no longer serves load; the
        // per-host state field keeps the exact value.
        case datacenter::HostState::kOff:
        case datacenter::HostState::kShuttingDown:
          ++snap.hosts_off;
          break;
      }
      if (host.is_working()) ++snap.working;
      if (host.is_online()) ++snap.online;
      snap.running += host.vm_count();
    }
    snap.ratio = snap.online > 0
                     ? static_cast<double>(snap.working) / snap.online
                     : 0.0;
  }

  if (sources.recorder != nullptr) {
    const metrics::Recorder& rec = *sources.recorder;
    snap.power_w = rec.watts.total_current();
    snap.energy_kwh = rec.energy_kwh(now);
    snap.deferred = rec.counts.jobs_deferred;
    snap.shed = rec.counts.jobs_shed;
    snap.sla = rec.jobs.mean_satisfaction();
  }
  if (sources.driver != nullptr) {
    snap.queue = sources.driver->queue().size();
    snap.backoff = sources.driver->backoff_count();
  }
  if (ctrl != nullptr) {
    snap.rung = static_cast<int>(ctrl->ladder());
    snap.breakers_open = ctrl->breakers_not_healthy();
  }
  return snap;
}

std::uint64_t TelemetryPlane::sample(sim::SimTime now,
                                     const Sources& sources) {
  TelemetrySnapshot snap = capture(now, sources);
  snap.seq = next_seq_++;
  if (alerts_.enabled()) {
    snap.active_alerts = alerts_.evaluate(snap, ring_, sources.recorder);
  }
  const std::uint64_t seq = snap.seq;
  // Sinks see the alert-annotated record even with a zero-capacity ring.
  for (auto& sink : sinks_) sink->on_sample(snap);
  ring_.push(std::move(snap));
  return seq;
}

void TelemetryPlane::finish(sim::SimTime now, const Sources& sources) {
  if (next_seq_ == 0 || (!ring_.empty() && ring_.latest().t < now)) {
    sample(now, sources);
  }
  for (auto& sink : sinks_) sink->finish();
}

}  // namespace easched::obs
