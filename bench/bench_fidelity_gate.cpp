// Paper-fidelity regression gate: the headline metrics of the paper
// reproduction (Table I power model, Table II static policies, Table IV
// migration + the 15 % headline saving, Table V consolidation costs) are
// measured on every run and compared against golden envelopes recorded on
// a known-good main (tests/data/golden_envelopes.json).
//
// Unlike the per-table benches, which check *shape* ("SB beats DBF"), this
// gate pins *values*: a refactor that silently shifts SB@40-90 energy by
// 3 % fails here even though every shape check still passes.
//
//   bench_fidelity_gate                      compare against the golden file
//   bench_fidelity_gate --record             re-record the golden file
//   bench_fidelity_gate --envelopes=<path>   use a different golden file
//
// Tolerances live in the golden file itself (abs_tol / rel_tol per metric)
// so bands can be widened in review without rebuilding. Completeness is
// checked both ways: a metric added here must be recorded, and a recorded
// metric must still be measured.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/score_based_policy.hpp"
#include "datacenter/datacenter.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

#ifndef EASCHED_GOLDEN_ENVELOPES
#define EASCHED_GOLDEN_ENVELOPES "tests/data/golden_envelopes.json"
#endif

namespace {

using namespace easched;

/// One gated metric. Exactly one of abs_tol / rel_tol is active (>= 0);
/// the band of a golden entry is abs_tol, or rel_tol * |value|.
struct Metric {
  std::string name;
  double value = 0;
  double abs_tol = -1;
  double rel_tol = -1;
};

/// Steady-state power of one 4-way host running the given VMs (the
/// Table I measurement, same stack as bench_table1_power_model).
double measure_watts(const std::vector<double>& vm_cpu_pct) {
  sim::Simulator simulator;
  metrics::Recorder recorder(1);
  datacenter::DatacenterConfig config;
  config.hosts = {datacenter::HostSpec::medium()};
  config.seed = 1;
  datacenter::Datacenter dc(simulator, config, recorder);
  for (double cpu : vm_cpu_pct) {
    workload::Job job;
    job.id = 0;
    job.submit = 0;
    job.dedicated_seconds = 100000;
    job.cpu_pct = cpu;
    job.mem_mb = 256;
    dc.place(dc.admit_job(job), 0);
  }
  simulator.run_until(1000);
  return recorder.watts.host_current(0);
}

/// Measures every gated metric on the current build. Week runs execute
/// concurrently under the sweep runner (deterministic per task).
std::vector<Metric> measure() {
  std::vector<Metric> m;

  struct Config1 {
    const char* key;
    std::vector<double> vm_cpu_pct;
  };
  const Config1 table1[] = {
      {"100", {100}},
      {"200", {200}},
      {"300", {300}},
      {"400", {400}},
      {"2x100", {100, 100}},
      {"100+200", {100, 200}},
      {"4x100", {100, 100, 100, 100}},
      {"idle", {0.01, 0.01, 0.01, 0.01}},
  };
  for (const auto& c : table1) {
    m.push_back({std::string("table1.") + c.key + ".watts",
                 measure_watts(c.vm_cpu_pct), 0.5, -1});
  }

  const auto jobs = bench::week_workload();
  experiments::SweepRunner sweep;
  std::vector<experiments::SweepTask> tasks;
  tasks.push_back(bench::week_task(jobs, "RD"));
  tasks.push_back(bench::week_task(jobs, "RR"));
  tasks.push_back(bench::week_task(jobs, "BF"));
  tasks.push_back(bench::week_task(jobs, "SB0"));
  tasks.push_back(bench::week_task(jobs, "SB", 0.30, 0.90));
  tasks.push_back(bench::week_task(jobs, "SB", 0.40, 0.90));
  tasks.push_back({&jobs, [] {
                     auto config = bench::week_run_config("SB", 0.30, 0.90);
                     auto sb = core::ScoreBasedConfig::sb();
                     sb.params.c_empty = 0;
                     sb.params.c_fill = 40;
                     config.policy_instance =
                         std::make_unique<core::ScoreBasedPolicy>(sb);
                     return config;
                   }});
  const auto results = sweep.run(std::move(tasks));
  const auto& rd = results[0].report;
  const auto& rr = results[1].report;
  const auto& bf = results[2].report;
  const auto& sb0 = results[3].report;
  const auto& sb = results[4].report;
  const auto& sba = results[5].report;
  const auto& ce0 = results[6].report;

  m.push_back({"table2.RD.energy_kwh", rd.energy_kwh, -1, 0.02});
  m.push_back({"table2.RR.energy_kwh", rr.energy_kwh, -1, 0.02});
  m.push_back({"table2.BF.energy_kwh", bf.energy_kwh, -1, 0.02});
  m.push_back({"table2.SB0.energy_kwh", sb0.energy_kwh, -1, 0.02});
  m.push_back({"table2.BF.satisfaction_pct", bf.satisfaction, 1.0, -1});
  m.push_back({"table4.SB_30_90.energy_kwh", sb.energy_kwh, -1, 0.02});
  m.push_back({"table4.SB_30_90.satisfaction_pct", sb.satisfaction, 1.0, -1});
  m.push_back({"table4.SB_40_90.energy_kwh", sba.energy_kwh, -1, 0.02});
  // The headline claim (paper: -15 % vs BF). A drift here means the
  // reproduction no longer supports the abstract's number.
  m.push_back({"table4.sb4090_vs_bf_saving_pct",
               100.0 * (1.0 - sba.energy_kwh / bf.energy_kwh), 2.0, -1});
  m.push_back({"table5.ce0.migrations",
               static_cast<double>(ce0.migrations), 5.0, -1});
  m.push_back({"table5.ce0.energy_kwh", ce0.energy_kwh, -1, 0.02});
  return m;
}

// ---- golden-envelope file ------------------------------------------------
// {"metrics": [{"name": "...", "value": X, "abs_tol": Y}, ...]}

void write_envelopes(const std::string& path, const std::vector<Metric>& m) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", m[i].value);
    out << "    {\"name\": \"" << m[i].name << "\", \"value\": " << value;
    if (m[i].abs_tol >= 0) out << ", \"abs_tol\": " << m[i].abs_tol;
    if (m[i].rel_tol >= 0) out << ", \"rel_tol\": " << m[i].rel_tol;
    out << "}" << (i + 1 < m.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

[[noreturn]] void malformed(const std::string& path, const std::string& why) {
  std::fprintf(stderr, "malformed golden envelope file %s: %s\n",
               path.c_str(), why.c_str());
  std::exit(1);
}

/// Every entry needs a string "name" and a number "value"; "abs_tol" and
/// "rel_tol" are optional numbers (absent: -1, inactive).
std::vector<Metric> read_envelopes(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr,
                 "cannot read golden envelopes %s — record them first with "
                 "bench_fidelity_gate --record\n",
                 path.c_str());
    std::exit(1);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  support::json::ParseError error;
  const auto doc = support::json::parse(buffer.str(), &error);
  if (!doc) malformed(path, error.to_string());
  const support::json::Value* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    malformed(path, "no \"metrics\" array");
  }

  std::vector<Metric> out;
  for (const support::json::Value& entry : metrics->items) {
    const support::json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string()) {
      malformed(path, "an entry has no string \"name\"");
    }
    Metric m;
    m.name = name->string;
    for (const auto& [key, field] : {std::pair{"value", &m.value},
                                     {"abs_tol", &m.abs_tol},
                                     {"rel_tol", &m.rel_tol}}) {
      const support::json::Value* v = entry.find(key);
      if (v != nullptr && v->is_number()) {
        *field = v->number;
      } else if (v != nullptr || field == &m.value) {
        malformed(path, m.name + ": \"" + key + "\" missing or not a number");
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const bool record = args.get_bool("record", false);
  const std::string path = args.get("envelopes", EASCHED_GOLDEN_ENVELOPES);
  args.warn_unrecognized();

  bench::print_banner(
      "Paper-fidelity regression gate",
      "Table I/II/IV/V headline metrics must stay inside the golden "
      "envelopes recorded on a known-good main");

  // Read the golden file first: a malformed one fails before the runs.
  const auto golden = record ? std::vector<Metric>{} : read_envelopes(path);
  const auto measured = measure();
  if (record) {
    write_envelopes(path, measured);
    std::printf("recorded %zu golden envelopes to %s\n", measured.size(),
                path.c_str());
    return 0;
  }

  support::TextTable table;
  table.header({"metric", "golden", "measured", "band", "status"});
  bool all = true;
  for (const auto& g : golden) {
    const Metric* meas = nullptr;
    for (const auto& c : measured) {
      if (c.name == g.name) meas = &c;
    }
    if (meas == nullptr) {
      std::printf("FAIL: golden metric \"%s\" is no longer measured — "
                  "re-record or restore it\n",
                  g.name.c_str());
      all = false;
      continue;
    }
    const double band =
        g.abs_tol >= 0 ? g.abs_tol : g.rel_tol * std::abs(g.value);
    const bool ok = std::abs(meas->value - g.value) <= band;
    all = all && ok;
    table.add_row({g.name, support::TextTable::num(g.value, 2),
                   support::TextTable::num(meas->value, 2),
                   "+/- " + support::TextTable::num(band, 2),
                   ok ? "PASS" : "FAIL"});
  }
  for (const auto& c : measured) {
    bool known = false;
    for (const auto& g : golden) {
      if (g.name == c.name) known = true;
    }
    if (!known) {
      std::printf("FAIL: measured metric \"%s\" has no golden envelope — "
                  "run --record\n",
                  c.name.c_str());
      all = false;
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("fidelity gate: %s (%zu envelopes, %s)\n",
              all ? "PASS" : "FAIL", golden.size(), path.c_str());
  return all ? 0 : 1;
}
