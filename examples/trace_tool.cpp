// Workload and run-trace tooling: synthesise a Grid-like trace and write
// it as SWF, inspect an existing SWF file's aggregate statistics, or work
// with the observability layer's run traces (obs/trace.hpp).
//
// Usage:
//   trace_tool generate --out trace.swf [--days 7] [--jobs-per-hour 11.5]
//                       [--seed N]
//   trace_tool inspect --swf trace.swf
//   trace_tool summarize --trace run.jsonl     # JSONL run trace tallies
//   trace_tool tail run.jsonl [--kind=migrate] # stream-filter JSONL events
//             [--host=17] [--limit=N]          #   by kind prefix / host id
//   trace_tool validate --trace run.json       # Chrome trace_event check
//   trace_tool diff runA.json runB.json        # run_summary regression diff
//             [--threshold=0.01]               #   global relative threshold
//             [--prefix-thresholds=energy.:0.05,decisions.:0.1]
//
// `diff` exits 0 when every metric matches within its threshold, 1 on any
// delta / missing metric / schema mismatch — the regression verdict the
// ctest gate and refresh_bench.sh rely on. `summarize` and `tail` exit 1
// at the first line that is not valid JSON, naming the line and offset.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/attribution/summary_diff.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

namespace {

namespace json = easched::support::json;

/// Calls `fn(event, line)` for each non-empty line of a JSONL run trace
/// until it returns false. Returns 0; 2 when the file cannot be opened; 1
/// at the first line that is not valid JSON (reported as path:line:offset).
template <typename Fn>
int for_each_event(const std::string& path, Fn&& fn) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::string line;
  for (unsigned long long line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    json::ParseError error;
    const auto event = json::parse(line, &error);
    if (!event) {
      std::fprintf(stderr, "%s:%llu: %s\n", path.c_str(), line_no,
                   error.to_string().c_str());
      return 1;
    }
    if (!fn(*event, line)) break;
  }
  return 0;
}

/// The string member `key` of an event, or "" when absent or not a string.
std::string string_field(const json::Value& event, const char* key) {
  const json::Value* v = event.find(key);
  return v != nullptr && v->is_string() ? v->string : std::string();
}

/// Per-policy decision / migration / power-cycle tallies of one run trace.
struct PolicyTally {
  std::uint64_t placements = 0;
  std::uint64_t migration_decisions = 0;
  std::uint64_t migrations_done = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t power_ons = 0;
  std::uint64_t power_offs = 0;
  std::uint64_t events = 0;
};

int summarize_trace(const std::string& path) {
  // Tallies keyed by policy: a JSONL file may concatenate several runs,
  // each opened by a run_begin event labelled with its policy.
  std::map<std::string, PolicyTally> tallies;
  std::string policy = "(no run-begin)";
  std::uint64_t lines = 0;
  const int status = for_each_event(path, [&](const json::Value& event,
                                              const std::string&) {
    ++lines;
    const std::string kind = string_field(event, "kind");
    if (kind == "run-begin") {
      const std::string label = string_field(event, "label");
      policy = label.empty() ? "(unnamed)" : label;
    }
    PolicyTally& t = tallies[policy];
    ++t.events;
    if (kind == "decision") {
      if (string_field(event, "label") == "migrate") {
        ++t.migration_decisions;
      } else {
        ++t.placements;
      }
    } else if (kind == "migrate-done") {
      ++t.migrations_done;
    } else if (kind == "migrate-rollback") {
      ++t.rollbacks;
    } else if (kind == "power-on") {
      ++t.power_ons;
    } else if (kind == "power-off") {
      ++t.power_offs;
    }
    return true;
  });
  if (status != 0) return status;
  std::printf("%s: %llu events\n", path.c_str(),
              static_cast<unsigned long long>(lines));
  std::printf("%-12s %10s %10s %10s %10s %10s %10s\n", "policy", "place",
              "mig-dec", "mig-done", "rollback", "pwr-on", "pwr-off");
  for (const auto& [name, t] : tallies) {
    std::printf("%-12s %10llu %10llu %10llu %10llu %10llu %10llu\n",
                name.c_str(), static_cast<unsigned long long>(t.placements),
                static_cast<unsigned long long>(t.migration_decisions),
                static_cast<unsigned long long>(t.migrations_done),
                static_cast<unsigned long long>(t.rollbacks),
                static_cast<unsigned long long>(t.power_ons),
                static_cast<unsigned long long>(t.power_offs));
  }
  return 0;
}

/// `tail` mode: stream a JSONL run trace, printing only the events whose
/// kind starts with `kind_prefix` (empty = all) and whose host id equals
/// `host` (-1 = all). A grep that understands the trace schema — `alert`
/// matches both alert-fire and alert-resolve, `--host=17` isolates one
/// machine's life story.
int tail_trace(const std::string& path, const std::string& kind_prefix,
               long long host, std::uint64_t limit) {
  std::uint64_t matched = 0;
  return for_each_event(path, [&](const json::Value& event,
                                  const std::string& line) {
    if (string_field(event, "kind").rfind(kind_prefix, 0) != 0) return true;
    const json::Value* id = event.find("host");
    if (host >= 0 && (id == nullptr || !id->is_number() ||
                      id->number != static_cast<double>(host))) {
      return true;
    }
    std::printf("%s\n", line.c_str());
    return limit == 0 || ++matched < limit;
  });
}

int validate_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!easched::obs::validate_chrome_trace(buf.str(), &error)) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("%s: valid Chrome trace_event JSON\n", path.c_str());
  return 0;
}

bool load_flat_summary(const std::string& path,
                       easched::obs::FlatSummary& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!easched::obs::flatten_json(buf.str(), out, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

/// Parses `prefix:threshold` pairs separated by commas, e.g.
/// "energy.:0.05,decisions.:0.1".
bool parse_prefix_thresholds(const std::string& spec,
                             easched::obs::DiffOptions& options) {
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      std::fprintf(stderr,
                   "bad --prefix-thresholds entry '%s' (want prefix:rel)\n",
                   item.c_str());
      return false;
    }
    options.prefix_thresholds.emplace_back(
        item.substr(0, colon), std::stod(item.substr(colon + 1)));
  }
  return true;
}

int diff_summaries_cli(const std::string& path_a, const std::string& path_b,
                       const easched::obs::DiffOptions& options) {
  easched::obs::FlatSummary a;
  easched::obs::FlatSummary b;
  if (!load_flat_summary(path_a, a) || !load_flat_summary(path_b, b)) {
    return 2;
  }
  const easched::obs::DiffResult result =
      easched::obs::diff_summaries(a, b, options);
  std::fputs(easched::obs::format_diff(result, path_a, path_b).c_str(),
             stdout);
  return result.regressed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const std::string mode =
      args.positional().empty() ? "generate" : args.positional().front();

  if (mode == "diff") {
    obs::DiffOptions options;
    options.rel_threshold = args.get_double("threshold", 0.0);
    const std::string prefixes = args.get("prefix-thresholds", "");
    args.warn_unrecognized();
    if (args.positional().size() != 3) {
      std::fprintf(stderr,
                   "trace_tool diff <runA.json> <runB.json> "
                   "[--threshold=REL] [--prefix-thresholds=p:REL,...]\n");
      return 2;
    }
    if (!prefixes.empty() && !parse_prefix_thresholds(prefixes, options)) {
      return 2;
    }
    return diff_summaries_cli(args.positional()[1], args.positional()[2],
                              options);
  }

  if (mode == "tail") {
    // The trace may be a positional arg or --trace=, matching summarize.
    std::string path = args.get("trace", "");
    if (path.empty() && args.positional().size() == 2) {
      path = args.positional()[1];
    }
    const std::string kind = args.get("kind", "");
    const long long host = args.get_int("host", -1);
    const long long limit = args.get_int("limit", 0);
    args.warn_unrecognized();
    if (path.empty() || path == "true" || limit < 0) {
      std::fprintf(stderr,
                   "trace_tool tail <run.jsonl> [--kind=PREFIX] "
                   "[--host=ID] [--limit=N]\n");
      return 2;
    }
    return tail_trace(path, kind, host,
                      static_cast<std::uint64_t>(limit));
  }

  if (mode == "summarize" || mode == "validate") {
    const std::string path = args.get("trace", "");
    args.warn_unrecognized();
    if (path.empty() || path == "true") {
      std::fprintf(stderr, "trace_tool %s --trace <file>\n", mode.c_str());
      return 2;
    }
    return mode == "summarize" ? summarize_trace(path) : validate_trace(path);
  }

  if (mode == "inspect") {
    const std::string path = args.get("swf", "");
    if (path.empty()) {
      std::fprintf(stderr, "trace_tool inspect --swf <file>\n");
      return 2;
    }
    args.warn_unrecognized();
    const auto jobs = workload::read_swf_file(path);
    std::printf("%s\n",
                workload::describe(workload::compute_stats(jobs)).c_str());
    return 0;
  }

  if (mode == "generate") {
    workload::SyntheticConfig wl;
    wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 20071001));
    wl.span_seconds = args.get_double("days", 7) * sim::kDay;
    wl.mean_jobs_per_hour = args.get_double("jobs-per-hour", 11.5);
    const std::string out_path = args.get("out", "");
    args.warn_unrecognized();
    const auto jobs = workload::generate(wl);
    std::printf("%s\n",
                workload::describe(workload::compute_stats(jobs)).c_str());

    const std::string& out = out_path;
    if (!out.empty()) {
      std::ofstream f(out);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 2;
      }
      workload::write_swf(f, jobs);
      std::printf("wrote %zu jobs to %s\n", jobs.size(), out.c_str());
    }
    return 0;
  }

  std::fprintf(
      stderr,
      "unknown mode '%s' (generate|inspect|summarize|tail|validate|diff)\n",
      mode.c_str());
  return 2;
}
