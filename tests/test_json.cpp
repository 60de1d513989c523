// support/json: the strict RFC 8259 reader and the %.9g / escaping
// writers every obs artifact goes through. Besides the grammar cases, a
// seeded in-repo fuzzer cuts and mutates three real documents (the
// run_summary baseline, a Chrome trace and a telemetry line) and feeds
// them to the parser and to the three readers built on it; each input must
// parse or fail cleanly with an offset inside the input.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/attribution/summary_diff.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace easched::support::json {
namespace {

std::string written(std::string_view s) {
  std::ostringstream os;
  write_string(os, s);
  return os.str();
}

std::string number_text(double v) {
  std::ostringstream os;
  write_number(os, v);
  return os.str();
}

bool accepts(std::string_view text) { return parse(text).has_value(); }

// ---- writers ---------------------------------------------------------------

TEST(Json, NumbersUseNineSignificantDigits) {
  EXPECT_EQ(number_text(0), "0");
  EXPECT_EQ(number_text(0.1), "0.1");
  EXPECT_EQ(number_text(1234.5), "1234.5");
  EXPECT_EQ(number_text(1234567890), "1.23456789e+09");
  EXPECT_EQ(number_text(-2.5e-7), "-2.5e-07");
}

TEST(Json, EscapesOnlyQuoteBackslashAndControlBytes) {
  EXPECT_EQ(written("plain é/text"), "\"plain é/text\"");
  EXPECT_EQ(written("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(written("\t\n\r\b\f"), "\"\\t\\n\\r\\b\\f\"");
  EXPECT_EQ(written(std::string_view("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
}

TEST(Json, EveryControlByteQuoteAndBackslashRoundTrips) {
  std::string all;
  for (int c = 0x01; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\";
  for (char c : all) {
    const std::string one(1, c);
    const auto back = parse(written(one));
    ASSERT_TRUE(back.has_value()) << "byte " << static_cast<int>(c);
    EXPECT_EQ(back->string, one) << "byte " << static_cast<int>(c);
  }
  const auto back = parse(written(all));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->string, all);
}

// ---- grammar ---------------------------------------------------------------

TEST(Json, BuildsTheValueTreeInDocumentOrder) {
  const auto v = parse(R"( {"b":[1,-0.5e1,true,null],"a":{"s":"x"},"b":2} )");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  ASSERT_EQ(v->members.size(), 3u);
  EXPECT_EQ(v->members[0].key, "b");
  EXPECT_EQ(v->members[1].key, "a");
  const Value* b = v->find("b");  // the first of a duplicated key
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->items.size(), 4u);
  EXPECT_DOUBLE_EQ(b->items[0].number, 1);
  EXPECT_DOUBLE_EQ(b->items[1].number, -5);
  EXPECT_EQ(b->items[2].kind, Value::Kind::kBool);
  EXPECT_TRUE(b->items[2].boolean);
  EXPECT_EQ(b->items[3].kind, Value::Kind::kNull);
  EXPECT_EQ(v->find("a")->find("s")->string, "x");
  EXPECT_EQ(v->find("missing"), nullptr);
  EXPECT_EQ(b->find("b"), nullptr);  // not an object
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(parse(R"("\u0041\u00e9\u20AC")")->string, "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(parse(R"("\ud83d\ude00")")->string, "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse(R"("\/\"\\")")->string, "/\"\\");
  EXPECT_FALSE(accepts(R"("\ud83d")"));        // lone high surrogate
  EXPECT_FALSE(accepts(R"("\ude00")"));        // lone low surrogate
  EXPECT_FALSE(accepts(R"("\ud83d\u0041")"));  // high + non-low
  EXPECT_FALSE(accepts(R"("\u12G4")"));
  EXPECT_FALSE(accepts(R"("\x41")"));
}

TEST(Json, RejectsWhatOnlyTheOldScannersAccepted) {
  for (const char* bad :
       {"0x10", "+1", "007", "-01", "inf", "-inf", "nan", "NaN", "Infinity",
        "1.", ".5", "1e", "1e+", "-", "1e999", "-1e999", "1e-400", "tru",
        "nul", "\"a\tb\"", "\"a\nb\"", "{\"a\":1,}", "[1,]", "{'a':1}",
        "{\"a\" 1}", "{1:2}", "[1 2]", "{} {}", "", "   ", "\"open"}) {
    ParseError error;
    EXPECT_FALSE(parse(bad, &error).has_value()) << bad;
    EXPECT_LE(error.offset, std::string_view(bad).size()) << bad;
    EXPECT_FALSE(error.message.empty()) << bad;
  }
  for (const char* good : {"0", "-0", "1E+2", "0.5e-3", "[]", "{}", "\"\"",
                           " [ 1 , { } ] ", "4.94065646e-324"}) {
    EXPECT_TRUE(accepts(good)) << good;
  }
}

TEST(Json, ReportsTheOffsetOfTheFirstBadByte) {
  ParseError error;
  ASSERT_FALSE(parse(R"({"a":1, "b":+2})", &error).has_value());
  EXPECT_EQ(error.offset, 12u);
  EXPECT_EQ(error.to_string(), "invalid value at offset 12");
  ASSERT_FALSE(parse("[\"ok\",\"a\tb\"]", &error).has_value());
  EXPECT_EQ(error.offset, 8u);
}

TEST(Json, BoundsNestingDepth) {
  const std::string ok =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_TRUE(accepts(ok));
  const std::string deep = "[" + ok + "]";
  ParseError error;
  EXPECT_FALSE(parse(deep, &error).has_value());
  EXPECT_EQ(error.message, "nesting too deep");
  // Far past the limit: a clean error, not a stack overflow.
  EXPECT_FALSE(accepts(std::string(100000, '[')));
}

// ---- seeded fuzzing over real documents ------------------------------------

std::string trimmed(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string run_summary_doc() {
  std::ifstream in(std::string(EASCHED_TEST_DATA_DIR) +
                   "/run_summary_baseline.json");
  std::ostringstream os;
  os << in.rdbuf();
  return trimmed(os.str());
}

/// The ChromeTrace.GoldenSnippet document.
std::string chrome_doc() {
  obs::Tracer tracer;
  tracer.enable();
  auto& begin = tracer.emit(0, obs::EventKind::kRunBegin);
  begin.label = "SB";
  begin.arg("hosts", 2).arg("jobs", 1);
  tracer.span(1.5, 3.5, obs::EventKind::kHostOnline).host = 0;
  auto& decision = tracer.emit(2, obs::EventKind::kDecision);
  decision.vm = 0;
  decision.host = 0;
  decision.arg("total", 30);
  std::ostringstream os;
  tracer.write_chrome(os);
  return trimmed(os.str());
}

std::string telemetry_doc() {
  obs::TelemetrySnapshot s;
  s.seq = 7;
  s.t = 420;
  s.hosts_on = 3;
  s.online = 4;
  s.ratio = 0.5;
  s.power_w = 1234.5;
  s.active_alerts = {"high-power", "tab\there"};
  s.hosts = {{2, 0, 75.5F, 280.0F}, {1, 1, 0.0F, 230.0F}};
  std::ostringstream os;
  obs::write_snapshot_jsonl(os, s);
  return os.str();
}

/// Runs the parser and the reader built on it for this kind of document.
/// Returns whether the parser accepted `text`.
bool parse_and_read(const std::string& text, int doc) {
  ParseError error;
  const bool ok = parse(text, &error).has_value();
  if (!ok) {
    EXPECT_LE(error.offset, text.size());
    EXPECT_FALSE(error.message.empty());
  }
  std::string what;
  obs::FlatSummary flat;
  obs::TelemetrySnapshot snap;
  bool read = false;
  switch (doc) {
    case 0: read = obs::flatten_json(text, flat, &what); break;
    case 1: read = obs::validate_chrome_trace(text, &what); break;
    default: read = obs::parse_snapshot_jsonl(text, &snap); break;
  }
  EXPECT_TRUE(ok || !read) << "a reader accepted what the parser rejected";
  return ok;
}

const std::vector<std::string>& documents() {
  static const std::vector<std::string> docs = {
      run_summary_doc(), chrome_doc(), telemetry_doc()};
  return docs;
}

TEST(JsonFuzz, EveryStrictPrefixFailsWithAnOffset) {
  for (int d = 0; d < 3; ++d) {
    const std::string& doc = documents()[d];
    ASSERT_GT(doc.size(), 100u) << "document " << d;
    ASSERT_TRUE(parse_and_read(doc, d)) << "document " << d;
    for (std::size_t n = 0; n < doc.size(); ++n) {
      ParseError error;
      ASSERT_FALSE(parse(doc.substr(0, n), &error).has_value())
          << "document " << d << " cut at " << n;
      EXPECT_LE(error.offset, n);
      EXPECT_FALSE(parse_and_read(doc.substr(0, n), d));
    }
  }
}

TEST(JsonFuzz, SingleByteMutationsParseOrFailCleanly) {
  // Replace, delete or insert one byte; half the new bytes come from the
  // JSON alphabet so mutations reach deep into the grammar.
  static const std::string kAlphabet = "{}[]\":,0123456789-+.eE \\tnuf\t\n";
  Rng rng(20071001);
  std::size_t accepted = 0;
  std::size_t total = 0;
  for (int d = 0; d < 3; ++d) {
    const std::string& doc = documents()[d];
    for (int i = 0; i < 3000; ++i) {
      std::string text = doc;
      const std::size_t pos = rng() % text.size();
      const char byte = rng() % 2 == 0
                            ? kAlphabet[rng() % kAlphabet.size()]
                            : static_cast<char>(rng() % 256);
      switch (rng() % 3) {
        case 0: text[pos] = byte; break;
        case 1: text.erase(pos, 1); break;
        default: text.insert(pos, 1, byte); break;
      }
      accepted += parse_and_read(text, d) ? 1 : 0;
      ++total;
    }
  }
  // Both outcomes occur: the mutations neither all break nor all miss
  // the grammar.
  EXPECT_GT(accepted, total / 20);
  EXPECT_LT(accepted, total - total / 20);
}

}  // namespace
}  // namespace easched::support::json
