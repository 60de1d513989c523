// e2ebench: whole simulated runs of one workload, timed from outside the
// library, checked for correctness, reported as named metrics.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>] [--reference <file>] [--commit <id>]
//            [--samples <file>]
//
// Prints the run context, one line per run, the metric table and, as the
// last line, one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones, measured on untraced
// runs; with --trace 1 untraced and traced runs alternate and the metrics
// are the per-layer ones, and the traced runs' spans are written to
// <out>/<workload>-seed<n>.trace.json. Exits 1 when a correctness check
// fails, 2 on a usage error or a refused environment. run.py builds this
// binary and, with --trace 0, runs it in several worker processes that
// split the window; --samples <file> writes each input's fastest pieces
// and rounds there (see write_samples), for run.py to pool.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace e2ebench;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  std::string reference;
  std::string commit = "unknown";
  std::string samples;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--reference "
               "<file>] [--commit <id>] [--samples <file>]\nworkloads:",
               why.c_str());
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--out") a.out = val;
      else if (key == "--reference") a.reference = val;
      else if (key == "--commit") a.commit = val;
      else if (key == "--samples") a.samples = val;
      else usage("unknown option " + key);
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// The stored fingerprint of `workload` at `seed`, or "" when none.
std::string reference_for(const std::string& path, const std::string& workload,
                          std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    std::uint64_t s = 0;
    ls >> name >> s;
    if (name != workload || s != seed) continue;
    std::string rest;
    std::getline(ls, rest);
    const auto first = rest.find_first_not_of(' ');
    return first == std::string::npos ? "" : rest.substr(first);
  }
  return "";
}

/// Writes, per input in order, the count and the values of its fastest
/// pieces, then of its fastest rounds: a native uint64 then native doubles.
bool write_samples(const std::string& path,
                   const std::vector<std::vector<double>>& pieces,
                   const std::vector<std::vector<double>>& rounds) {
  std::ofstream out(path, std::ios::binary);
  const auto put = [&out](const std::vector<double>& v) {
    const std::uint64_t n = v.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
  };
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    put(pieces[i]);
    put(rounds[i]);
  }
  return static_cast<bool>(out);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);

#ifndef __OPTIMIZE__
  std::fprintf(stderr, "e2ebench: refusing to time an unoptimized build\n");
  return 2;
#endif
  if (const char* v = std::getenv("EASCHED_VALIDATE"); v != nullptr) {
    std::fprintf(stderr,
                 "e2ebench: EASCHED_VALIDATE is set (='%s'); it turns on the "
                 "invariant checker in every run. Unset it to benchmark.\n",
                 v);
    return 2;
  }
  // One solver thread: the measured load is one process, one thread.
  setenv("EASCHED_SOLVER_THREADS", "1", 1);

  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "e2ebench: cannot create %s: %s\n", args.out.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const std::time_t now = std::time(nullptr);
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf(
      "context: workload=%s seed=%llu seconds=%g trace=%d build_type=%s "
      "compiler=\"%s\" commit=%s nproc=%ld solver_threads=1 timestamp=%s\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, E2EBENCH_BUILD_TYPE, __VERSION__,
      args.commit.c_str(), sysconf(_SC_NPROCESSORS_ONLN), stamp);

  // Runs cycle through the inputs until the next one would overrun the
  // time, after at least one of each. Every run is preceded by its own
  // set-up (generate the input, build the host specs, construct the
  // policy), timed a few times so setup_s samples the whole period. With
  // tracing there is one input, run untraced then traced.
  const int inputs = args.trace ? 1 : spec->inputs;
  constexpr int kSetupRepeats = 5;
  std::vector<RunSample> warmup;
  std::vector<RunSample> untraced;
  std::vector<RunSample> traced;
  SpanLog spans;       // the first traced run, written out at the end
  SpanLog more_spans;  // later traced runs, recorded the same way, dropped
  // Per input, the element-wise fastest pieces and rounds over its untraced
  // repeats (see keep_fastest): a slow spell of the host that covers part
  // of one repeat does not reach run_s or the decision percentiles.
  std::vector<std::vector<double>> fastest_pieces(
      static_cast<std::size_t>(inputs));
  std::vector<std::vector<double>> fastest_rounds(
      static_cast<std::size_t>(inputs));
  std::uint32_t run_id = 0;
  const auto run = [&](int input, std::vector<RunSample>& into,
                       bool with_trace) {
    const std::uint64_t seed = input_seed(args.seed, input);
    Setup setup;
    double setup_s = 0;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const std::int64_t t0 = now_ns();
      setup = make_setup(*spec, seed);
      const double t = static_cast<double>(now_ns() - t0) * 1e-9;
      setup_s = k == 0 ? t : std::min(setup_s, t);
    }
    SpanLog* log = nullptr;
    if (with_trace) {
      log = traced.empty() ? &spans : &more_spans;
      more_spans.clear();
    }
    RunSample r =
        run_once(*spec, seed, std::move(setup), args.out, log, run_id);
    r.input = input;
    r.setup_s = setup_s;
    std::printf("run %u: input=%d traced=%d run_s=%.6f rounds=%zu %s\n",
                run_id, input, with_trace ? 1 : 0, r.run_s, r.rounds,
                r.fingerprint.to_string().c_str());
    ++run_id;
    const auto i = static_cast<std::size_t>(input);
    // A repeat whose calls differ fails the fingerprint check below.
    if (&into == &untraced) {
      keep_fastest(fastest_pieces[i], r.pieces_s);
      keep_fastest(fastest_rounds[i], r.round_ms);
    }
    // Frees the samples (`= {}` would keep the capacity): kept for every
    // run, they would grow peak_rss_mb with the number of runs.
    r.pieces_s = std::vector<double>();
    r.round_ms = std::vector<double>();
    into.push_back(std::move(r));
  };
  if (args.trace) {
    // Warm-up: the first run in a process pays for growing the heap, which
    // would otherwise land on one side of the traced/untraced comparison.
    run(0, warmup, false);
  }
  const std::int64_t start = now_ns();
  const double budget_s = args.seconds;
  for (int k = 0;; ++k) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double per_step = k == 0 ? 0 : elapsed / k;
    if (k >= inputs && elapsed + per_step > budget_s) break;
    run(k % inputs, untraced, false);
    if (args.trace) run(0, traced, true);
  }

  // Correctness: every run of an input reproduces its first run, input 0
  // of the default seed reproduces the stored reference, every job
  // finishes.
  std::vector<Fingerprint> first;
  for (int i = 0; i < inputs; ++i) {
    first.push_back(untraced[static_cast<std::size_t>(i)].fingerprint);
  }
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t finished = 0;
  const auto check = [&](const RunSample& r) {
    const bool ok = r.completed() &&
                    r.fingerprint == first[static_cast<std::size_t>(r.input)];
    if (!ok) {
      correct = false;
      std::printf("check failed: a %s run of input %d diverged or left "
                  "work undone (%zu/%zu jobs, %zu violations%s)\n",
                  r.traced ? "traced" : "untraced", r.input, r.jobs_finished,
                  r.jobs_submitted, r.violations,
                  r.telemetry_lost ? ", telemetry stream not written" : "");
    }
    attempted += r.jobs_submitted;
    if (ok) finished += r.jobs_finished;
  };
  for (const auto* set : {&warmup, &untraced, &traced}) {
    for (const RunSample& r : *set) check(r);
  }
  const std::uint64_t failed = attempted - finished;
  std::printf("reference: %s %llu %s\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed),
              first.front().to_string().c_str());
  if (args.seed == kDefaultSeed) {
    const std::string want =
        reference_for(args.reference, spec->name, args.seed);
    if (want != first.front().to_string()) {
      correct = false;
      std::printf("check failed: fingerprint differs from the stored "
                  "reference\n  stored: %s\n", want.c_str());
    }
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    const RunSample& t = traced.front();
    double sum = 0;
    std::printf("self times of the first traced run (run_s %.6f):\n", t.run_s);
    for (const Metric& m : self_times(t)) {
      std::printf("  %-30s %12.6f s %6.2f%%\n", m.name.c_str(), m.value,
                  100.0 * m.value / t.run_s);
      sum += m.value;
      if (m.value < -kSelfTimeSlackS) {
        std::printf("check failed: self time %s is negative, so a layer ran "
                    "outside the phase it is subtracted from\n",
                    m.name.c_str());
        correct = false;
      }
    }
    std::printf("  %-30s %12.6f s\n", "(sum)", sum);
    const std::string path = args.out + "/" + spec->name + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (!spans.write_chrome_trace(path)) {
      std::printf("check failed: cannot write %s\n", path.c_str());
      correct = false;
    } else {
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  path.c_str());
    }
    metrics = per_layer_metrics(traced, untraced);
    print_metrics("per-layer metrics:", metrics);
  } else {
    const double finished_pct =
        100.0 * static_cast<double>(finished) / static_cast<double>(attempted);
    std::vector<double> run_s;
    for (int i = 0; i < inputs; ++i) {
      const auto& pieces = fastest_pieces[static_cast<std::size_t>(i)];
      run_s.push_back(std::accumulate(pieces.begin(), pieces.end(), 0.0));
      std::size_t repeats = 0;
      double fastest_run_s = 0;
      for (const RunSample& r : untraced) {
        if (r.input != i) continue;
        fastest_run_s = repeats++ == 0 ? r.run_s
                                       : std::min(fastest_run_s, r.run_s);
      }
      std::printf("input %d: repeats=%zu fastest_run_s=%.6f "
                  "fastest_pieces_s=%.6f\n",
                  i, repeats, fastest_run_s, run_s.back());
    }
    std::vector<double> pooled;
    for (const auto& rounds : fastest_rounds) {
      pooled.insert(pooled.end(), rounds.begin(), rounds.end());
    }
    metrics = end_to_end_metrics(untraced, run_s, first, pooled, peak_rss_mb(),
                                 finished_pct);
    if (!args.samples.empty() &&
        !write_samples(args.samples, fastest_pieces, fastest_rounds)) {
      std::printf("check failed: cannot write %s\n", args.samples.c_str());
      correct = false;
    }
    print_metrics("end-to-end metrics:", metrics);
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}
