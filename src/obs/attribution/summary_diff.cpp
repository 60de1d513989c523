#include "obs/attribution/summary_diff.hpp"

#include <cmath>
#include <set>
#include <sstream>

#include "support/json.hpp"

namespace easched::obs {
namespace {

namespace json = support::json;

std::string join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

/// Files every leaf of `v` under its dotted path; null leaves are dropped.
void flatten(const json::Value& v, const std::string& path,
             FlatSummary& out) {
  if (v.is_number()) out.numbers[path] = v.number;
  if (v.is_string()) out.strings[path] = v.string;
  if (v.kind == json::Value::Kind::kBool) out.numbers[path] = v.boolean;
  for (std::size_t i = 0; i < v.items.size(); ++i) {
    flatten(v.items[i], join(path, std::to_string(i)), out);
  }
  for (const json::Member& m : v.members) {
    flatten(m.value, join(path, m.key), out);
  }
}

double threshold_for(const std::string& key, const DiffOptions& options) {
  double threshold = options.rel_threshold;
  std::size_t best_len = 0;
  for (const auto& [prefix, t] : options.prefix_thresholds) {
    if (prefix.size() >= best_len &&
        key.compare(0, prefix.size(), prefix) == 0) {
      best_len = prefix.size();
      threshold = t;
    }
  }
  return threshold;
}

}  // namespace

bool flatten_json(const std::string& text, FlatSummary& out,
                  std::string* error) {
  out.numbers.clear();
  out.strings.clear();
  json::ParseError parse_error;
  const auto doc = json::parse(text, &parse_error);
  if (!doc) {
    if (error != nullptr) *error = "parse error: " + parse_error.to_string();
    return false;
  }
  flatten(*doc, "", out);
  return true;
}

DiffResult diff_summaries(const FlatSummary& a, const FlatSummary& b,
                          const DiffOptions& options) {
  DiffResult result;

  const auto schema_a = a.strings.find("schema");
  const auto schema_b = b.strings.find("schema");
  if (schema_a == a.strings.end() || schema_b == b.strings.end() ||
      schema_a->second != schema_b->second) {
    result.schema_mismatch = true;
  }

  std::set<std::string> keys;
  for (const auto& [k, v] : a.numbers) keys.insert(k);
  for (const auto& [k, v] : b.numbers) keys.insert(k);

  for (const std::string& key : keys) {
    const auto ia = a.numbers.find(key);
    const auto ib = b.numbers.find(key);
    DiffEntry entry;
    entry.key = key;
    if (ia == a.numbers.end() || ib == b.numbers.end()) {
      entry.missing_a = ia == a.numbers.end();
      entry.missing_b = ib == b.numbers.end();
      if (!entry.missing_a) entry.a = ia->second;
      if (!entry.missing_b) entry.b = ib->second;
      result.deltas.push_back(std::move(entry));
      continue;
    }
    entry.a = ia->second;
    entry.b = ib->second;
    const double diff = std::fabs(entry.a - entry.b);
    if (diff == 0) continue;
    const double scale = std::max(std::fabs(entry.a), std::fabs(entry.b));
    entry.rel = scale > 0 ? diff / scale : 0.0;
    if (entry.rel > threshold_for(key, options)) {
      result.deltas.push_back(std::move(entry));
    }
  }
  return result;
}

std::string format_diff(const DiffResult& result, const std::string& name_a,
                        const std::string& name_b) {
  std::ostringstream os;
  if (result.schema_mismatch) {
    os << "schema mismatch between '" << name_a << "' and '" << name_b
       << "'\n";
  }
  for (const DiffEntry& e : result.deltas) {
    os << e.key << ": ";
    if (e.missing_a) {
      os << "(missing)";
    } else {
      json::write_number(os, e.a);
    }
    os << " -> ";
    if (e.missing_b) {
      os << "(missing)";
    } else {
      json::write_number(os, e.b);
    }
    if (!e.missing_a && !e.missing_b) {
      os << " (rel ";
      json::write_number(os, e.rel);
      os << ')';
    }
    os << '\n';
  }
  if (!result.regressed()) {
    os << "no deltas: '" << name_a << "' and '" << name_b
       << "' match within thresholds\n";
  }
  return os.str();
}

}  // namespace easched::obs
