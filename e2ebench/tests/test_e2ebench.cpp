// Unit tests of the benchmark's own pieces. Build and run with
//   cmake -S e2ebench -B <dir> && cmake --build <dir>
//   ctest --test-dir <dir>
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"

namespace e2ebench {
namespace {

TEST(TimingPolicy, RunMatchesThePlainSbPolicy) {
  const WorkloadSpec& spec = *find_workload("paper_week");
  e2ebench::Setup setup = make_setup(spec, kDefaultSeed);

  auto plain_config = make_run_config(spec, kDefaultSeed, setup.hosts);
  plain_config.policy_instance = easched::experiments::make_policy("SB");
  const auto plain =
      easched::experiments::run_experiment(setup.jobs, std::move(plain_config));

  PolicyProbe probe;
  auto timed_config = make_run_config(spec, kDefaultSeed, setup.hosts);
  timed_config.policy_instance =
      std::make_unique<TimingPolicy>(std::move(setup.policy), &probe);
  const auto timed =
      easched::experiments::run_experiment(setup.jobs, std::move(timed_config));
  probe.close_round();

  EXPECT_EQ(plain.report.to_string(), timed.report.to_string());
  EXPECT_EQ(plain.report.energy_kwh, timed.report.energy_kwh);
  EXPECT_EQ(plain.report.satisfaction, timed.report.satisfaction);
  EXPECT_EQ(plain.report.migrations, timed.report.migrations);
  EXPECT_EQ(plain.report.creations, timed.report.creations);
  EXPECT_EQ(plain.report.turn_ons, timed.report.turn_ons);
  EXPECT_EQ(plain.report.turn_offs, timed.report.turn_offs);
  EXPECT_EQ(plain.report.metrics.to_json(), timed.report.metrics.to_json());
  EXPECT_EQ(plain.events_dispatched, timed.events_dispatched);
  EXPECT_EQ(plain.jobs_finished, timed.jobs_finished);
  // The probe outlived the policy the runner destroyed and saw every round.
  EXPECT_GT(probe.schedule_ms.size(), 10000u);
  EXPECT_EQ(probe.round_ms.size(), probe.schedule_ms.size());
  EXPECT_EQ(probe.marks_ns.size(),
            2 * (probe.schedule_ms.size() + probe.power_off_ms.size() +
                 probe.power_on_ms.size()));
}

TEST(TimingPolicy, TracedAndUntracedRunsAgree) {
  const WorkloadSpec& spec = *find_workload("paper_week");
  SpanLog spans;
  const RunSample plain = run_once(spec, 3, make_setup(spec, 3), ".");
  const RunSample traced =
      run_once(spec, 3, make_setup(spec, 3), ".", &spans, 7);
  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_TRUE(plain.completed());
  // Both runs are cut at the same calls, and the pieces add up to run_s.
  EXPECT_EQ(plain.pieces_s.size(), traced.pieces_s.size());
  EXPECT_NEAR(std::accumulate(plain.pieces_s.begin(), plain.pieces_s.end(),
                              0.0),
              plain.run_s, 1e-9 * plain.run_s);

  // Spans nest run -> round -> schedule / power_* and run ->
  // telemetry_sink; all carry the run id.
  ASSERT_FALSE(spans.spans().empty());
  const auto& all = spans.spans();
  EXPECT_EQ(all.front().kind, SpanKind::kRun);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const Span& s = all[i];
    EXPECT_EQ(s.run, 7u);
    ASSERT_GE(s.parent, 0);
    const Span& parent = all[static_cast<std::size_t>(s.parent)];
    const bool top =
        s.kind == SpanKind::kRound || s.kind == SpanKind::kTelemetrySink;
    const SpanKind want = top ? SpanKind::kRun : SpanKind::kRound;
    EXPECT_EQ(parent.kind, want);
    EXPECT_LE(parent.start_ns, s.start_ns);
    EXPECT_GE(parent.end_ns, s.end_ns);
  }

  // Every self time is >= 0, which holds only if each layer is nested
  // where self_times() assumes. They add up to the traced run's wall time.
  double sum = 0;
  for (const Metric& m : self_times(traced)) {
    EXPECT_GE(m.value, -kSelfTimeSlackS) << m.name;
    sum += m.value;
  }
  EXPECT_NEAR(sum, traced.run_s, 1e-9 * traced.run_s + 1e-12);
}

TEST(TimingSink, UnwrittenTelemetryFailsTheRun) {
  WorkloadSpec spec = *find_workload("paper_week");
  spec.telemetry_period_s = 3600;
  const RunSample written = run_once(spec, 3, make_setup(spec, 3), ".");
  EXPECT_FALSE(written.telemetry_lost);
  EXPECT_GT(written.telemetry_bytes, 0u);
  EXPECT_TRUE(written.completed());

  // The JSONL sink cannot open a file in a directory that does not exist;
  // it then drops every sample, and the run must not pass.
  const RunSample lost =
      run_once(spec, 3, make_setup(spec, 3), "no-such-dir/below");
  EXPECT_TRUE(lost.telemetry_lost);
  EXPECT_FALSE(lost.completed());
  EXPECT_EQ(lost.fingerprint, written.fingerprint);
}

// The benchmark reduces with the library's interpolating percentile.
TEST(Percentile, MediansOfRunsInterpolate) {
  const auto run_s = [](const RunSample& r) { return r.run_s; };
  EXPECT_EQ(median_of({}, run_s), 0);
  std::vector<RunSample> runs(4);
  const double times[] = {4, 1, 3, 2};
  for (std::size_t k = 0; k < runs.size(); ++k) runs[k].run_s = times[k];
  EXPECT_DOUBLE_EQ(median_of(runs, run_s), 2.5);
  runs.pop_back();
  EXPECT_DOUBLE_EQ(median_of(runs, run_s), 3);

  // Decision percentiles are taken over the pooled rounds.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const auto e2e = end_to_end_metrics(runs, {3, 1, 5}, {{}}, hundred, 1, 100);
  const auto value = [&e2e](const std::string& name) {
    for (const Metric& m : e2e) {
      if (m.name == name) return m.value;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value("run_s"), 3);  // the mean over inputs
  EXPECT_DOUBLE_EQ(value("decide_p99_ms"), 99.01);
  EXPECT_DOUBLE_EQ(value("decide_p50_ms"), 50.5);
  EXPECT_DOUBLE_EQ(easched::support::percentile({7}, 99), 7);
}

/// Metric names listed under `key` in BENCHMARK.json.
std::set<std::string> declared(const std::string& key) {
  std::ifstream in(E2EBENCH_ROOT "/BENCHMARK.json");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto begin = text.find("\"" + key + "\"");
  const auto end = text.find(']', begin);
  const std::string section = text.substr(begin, end - begin);
  std::set<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(section.begin(), section.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

TEST(Metrics, NamesAreWellFormedAndDeclared) {
  RunSample r;
  r.run_s = 1;
  r.actions = 2;
  const std::vector<RunSample> runs = {r};
  const std::regex ok("[A-Za-z0-9_.-]+");

  std::set<std::string> e2e;
  for (const Metric& m : end_to_end_metrics(runs, {1}, {{}}, {}, 1, 100)) {
    EXPECT_TRUE(std::regex_match(m.name, ok)) << m.name;
    EXPECT_TRUE(e2e.insert(m.name).second) << "duplicate " << m.name;
  }
  std::set<std::string> layer;
  for (const Metric& m : per_layer_metrics(runs, runs)) {
    EXPECT_TRUE(std::regex_match(m.name, ok)) << m.name;
    EXPECT_TRUE(layer.insert(m.name).second) << "duplicate " << m.name;
  }
  for (const Metric& m : self_times(r)) {
    EXPECT_TRUE(std::regex_match(m.name, ok)) << m.name;
    EXPECT_TRUE(layer.count(m.name)) << "self time not reported: " << m.name;
  }
  EXPECT_EQ(e2e, declared("end_to_end"));
  EXPECT_EQ(layer, declared("per_layer"));
}

TEST(Metrics, MedianOfFastestTakesEachInputsBestRun) {
  std::vector<RunSample> runs(6);
  const double times[] = {5, 1, 9, 4, 3, 8};  // inputs 0, 1, 2, 0, 1, 2
  for (int k = 0; k < 6; ++k) {
    runs[static_cast<std::size_t>(k)].input = k % 3;
    runs[static_cast<std::size_t>(k)].run_s = times[k];
  }
  // Fastest per input: 4, 1, 8; their median is 4.
  EXPECT_EQ(median_of_fastest(runs, [](const RunSample& r) { return r.run_s; }),
            4);
}

TEST(Metrics, KeepFastestTakesEachPiecesBestRepeat) {
  std::vector<double> best;
  EXPECT_TRUE(keep_fastest(best, {3, 1, 4}));
  EXPECT_TRUE(keep_fastest(best, {2, 7, 1}));
  EXPECT_TRUE(keep_fastest(best, {5, 0.5, 9}));
  EXPECT_EQ(best, (std::vector<double>{2, 0.5, 1}));
  // A repeat that made other calls is not mixed in.
  EXPECT_FALSE(keep_fastest(best, {0, 0}));
  EXPECT_EQ(best, (std::vector<double>{2, 0.5, 1}));
}

TEST(Digest, IsOrderSensitive) {
  Digest a;
  Digest b;
  a.add(std::uint64_t{1});
  a.add(std::uint64_t{2});
  b.add(std::uint64_t{2});
  b.add(std::uint64_t{1});
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

}  // namespace
}  // namespace e2ebench
