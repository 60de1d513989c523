// The one JSON reader and writer of the repo. Every artifact the
// observability layer writes (run traces, Chrome traces, metrics
// snapshots, run_summary.json, telemetry JSONL) formats its numbers and
// strings here, and every tool that reads one back (trace_tool,
// watch_tool, the attribution diff, the fidelity gate) parses it here.
//
// Writing: numbers use %.9g, the repo-wide deterministic rendering, and
// strings escape `"`, `\` and every byte below 0x20. Other bytes pass
// through unchanged in both directions, so any byte string round-trips.
//
// Reading: a strict RFC 8259 parser. It accepts exactly the JSON grammar
// (no NaN/Infinity, no leading '+' or zeros, no hex, no raw control bytes
// inside strings, no trailing data) and decodes \uXXXX escapes, surrogate
// pairs included, to UTF-8. Two limits apply: a number must fit a finite
// double without underflowing to zero, and values nest at most
// kMaxDepth deep. UTF-8 validity of raw bytes is not checked.
#pragma once

#include <cstddef>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace easched::support::json {

struct Member;

/// One parsed JSON value. Only the fields of its kind are meaningful.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> items;     ///< array elements
  std::vector<Member> members;  ///< object members, in document order

  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// The first member named `key` of an object, or nullptr (also for
  /// non-objects).
  [[nodiscard]] const Value* find(std::string_view key) const;
};

struct Member {
  std::string key;
  Value value;
};

/// Nesting limit of parse(): deeper documents are rejected instead of
/// exhausting the stack.
inline constexpr std::size_t kMaxDepth = 256;

struct ParseError {
  std::size_t offset = 0;  ///< byte offset of the offending input
  std::string message;     ///< e.g. "expected ':'"

  /// "<message> at offset <offset>".
  [[nodiscard]] std::string to_string() const;
};

/// Parses one complete document (surrounding whitespace allowed). On
/// malformed input returns nullopt and, if `error` is non-null, says why
/// and where.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         ParseError* error = nullptr);

/// Writes `v` with %.9g. A non-finite value prints as nan/inf, which is
/// not JSON: parse() rejects it rather than reading it as a number.
void write_number(std::ostream& os, double v);

/// Writes `s` as a quoted JSON string.
void write_string(std::ostream& os, std::string_view s);

}  // namespace easched::support::json
