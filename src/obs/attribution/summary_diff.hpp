// Cross-run regression diffing over run_summary.json artifacts.
//
// A summary document is flattened into dotted-path → number entries
// ("energy.hosts.3.total_j" → 12345.6); two flattened maps are then
// compared metric-by-metric under a configurable relative threshold.
// Missing keys on either side always count as regressions (a renamed or
// dropped metric must not pass silently), as does a schema-id mismatch.
// `trace_tool diff` and the attribution ctest gate both drive this; the
// nonzero-exit-on-regression contract lives here so scripts and tests
// agree on what "regressed" means.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace easched::obs {

/// Flat numeric view of a JSON document: dotted object keys, array indices
/// as path segments, numeric leaves only (booleans as 0/1). String leaves
/// are kept separately so the schema id can be checked.
struct FlatSummary {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Parses `json` (a full JSON document) into its flat view. Returns false
/// on malformed input, in which case `error` (if non-null) gets a message
/// with the byte offset. The grammar is strict RFC 8259 (support/json):
/// NaN, Infinity, hex, leading '+' or zeros and raw control bytes in
/// strings are errors; \uXXXX escapes decode to UTF-8.
bool flatten_json(const std::string& json, FlatSummary& out,
                  std::string* error = nullptr);

struct DiffOptions {
  /// Relative threshold: |a-b| / max(|a|,|b|) above this is a delta.
  /// 0 means exact match required.
  double rel_threshold = 0.0;
  /// Per-prefix overrides, longest matching prefix wins (e.g.
  /// {"energy.", 0.01} relaxes every energy metric to 1%).
  std::vector<std::pair<std::string, double>> prefix_thresholds;
};

struct DiffEntry {
  std::string key;
  double a = 0;
  double b = 0;
  double rel = 0;           ///< relative difference (0 when missing)
  bool missing_a = false;   ///< key absent from run A
  bool missing_b = false;   ///< key absent from run B
};

struct DiffResult {
  std::vector<DiffEntry> deltas;  ///< entries exceeding their threshold
  bool schema_mismatch = false;
  [[nodiscard]] bool regressed() const noexcept {
    return schema_mismatch || !deltas.empty();
  }
};

/// Compares two flattened summaries. Keys are the union of both sides.
[[nodiscard]] DiffResult diff_summaries(const FlatSummary& a,
                                        const FlatSummary& b,
                                        const DiffOptions& options);

/// Human-readable report of a diff ("<key>: <a> -> <b> (rel ...)" lines,
/// or "no deltas"). `name_a`/`name_b` label the two runs.
[[nodiscard]] std::string format_diff(const DiffResult& result,
                                      const std::string& name_a,
                                      const std::string& name_b);

}  // namespace easched::obs
