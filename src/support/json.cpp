#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace easched::support::json {

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

std::string ParseError::to_string() const {
  return message + " at offset " + std::to_string(offset);
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// JSON's two-character escapes: a backslash and kEscapeLetters[i] stand for
// the byte kEscapeBytes[i]. The reader and the writer share the table.
constexpr std::string_view kEscapeLetters = "\"\\/bfnrt";
constexpr std::string_view kEscapeBytes = "\"\\/\b\f\n\r\t";

void append_utf8(std::string& out, unsigned cp) {
  // Continuation bytes after the lead byte, and the lead byte's marker.
  const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  out += static_cast<char>(kLead[extra] | (cp >> (6 * extra)));
  for (int i = extra - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

/// Recursive descent over RFC 8259. Every failure records the offset of
/// the byte it stopped at; the first failure wins.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> document(ParseError* error) {
    Value v;
    if (value(v, 0)) {
      skip_ws();
      if (pos_ == text_.size()) return v;
      fail("trailing data after document");
    }
    if (error != nullptr) *error = error_;
    return std::nullopt;
  }

 private:
  bool fail(const char* message) {
    error_ = {pos_, message};
    return false;
  }

  [[nodiscard]] bool at(char c) const {
    return pos_ < text_.size() && text_[pos_] == c;
  }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  /// Skips whitespace, then consumes `c` if it is next.
  bool eat(char c) {
    skip_ws();
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  bool value(Value& out, std::size_t depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out.kind = Value::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        return literal("false");
      case 'n': return literal("null");
      default: return number(out);
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool object(Value& out, std::size_t depth) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    if (eat('}')) return true;
    do {
      skip_ws();
      if (!at('"')) return fail("expected string key");
      Member m;
      if (!string(m.key)) return false;
      if (!eat(':')) return fail("expected ':'");
      if (!value(m.value, depth + 1)) return false;
      out.members.push_back(std::move(m));
    } while (eat(','));
    return eat('}') || fail("expected ',' or '}'");
  }

  bool array(Value& out, std::size_t depth) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    if (eat(']')) return true;
    do {
      out.items.emplace_back();
      if (!value(out.items.back(), depth + 1)) return false;
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']'");
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      ++pos_;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      if (text_[pos_] == 'u') {
        ++pos_;
        if (!unicode_escape(out)) return false;
        continue;
      }
      const std::size_t k = kEscapeLetters.find(text_[pos_]);
      if (k == std::string_view::npos) return fail("invalid escape");
      out += kEscapeBytes[k];
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool hex4(unsigned& out) {
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [ptr, ec] = std::from_chars(first, last, out, 16);
    pos_ += static_cast<std::size_t>(ptr - first);
    return (ec == std::errc{} && ptr == first + 4) ||
           fail("invalid \\u escape");
  }

  bool unicode_escape(std::string& out) {
    unsigned cp = 0;
    if (!hex4(cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("unpaired surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (text_.substr(pos_, 2) != "\\u") return fail("unpaired surrogate");
      pos_ += 2;
      unsigned low = 0;
      if (!hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  /// Skips a run of digits; returns how many there were.
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ - start;
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;  // a leading zero stands alone: "007" stops after the first 0
    } else if (digits() == 0) {
      return fail("invalid value");
    }
    if (at('.')) {
      ++pos_;
      if (digits() == 0) return fail("expected digit after '.'");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) return fail("expected exponent digit");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double v = 0;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || ptr != last) {
      pos_ = start;
      return fail("number out of range");
    }
    out.kind = Value::Kind::kNumber;
    out.number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  ParseError error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, ParseError* error) {
  return Parser(text).document(error);
}

void write_number(std::ostream& os, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.9g", v);
  os.write(buf, n);
}

void write_string(std::ostream& os, std::string_view s) {
  os.put('"');
  std::size_t run = 0;  // start of the pending bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    os.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    const std::size_t k = kEscapeBytes.find(static_cast<char>(c));
    if (k != std::string_view::npos) {
      os.put('\\');
      os.put(kEscapeLetters[k]);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    }
  }
  os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  os.put('"');
}

}  // namespace easched::support::json
