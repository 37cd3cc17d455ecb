#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/require.hpp"

namespace sparsetrain::serve {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    // Both caps turn pathological inputs into ordinary parse errors (an
    // NDJSON error response) instead of resource exhaustion: the size cap
    // bounds the multi-MiB-line case, the depth cap bounds the `[[[[…`
    // recursion that would otherwise overflow the stack and abort.
    ST_REQUIRE(text_.size() <= kMaxInput,
               "json: input exceeds " + std::to_string(kMaxInput) + " bytes");
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    ST_REQUIRE(pos_ == text_.size(),
               "json: trailing bytes at offset " + std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    ST_REQUIRE(false,
               "json: " + what + " at offset " + std::to_string(pos_));
    __builtin_unreachable();
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        JsonValue v = parse_object();
        --depth_;
        return v;
      }
      case '[': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        JsonValue v = parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v = JsonValue::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.set(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v = JsonValue::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are rare
            // in request traffic; each half encodes independently).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      out += c;
    }
  }

  JsonValue parse_number() {
    // The RFC 8259 grammar, validated before strtod: -?(0|[1-9][0-9]*)
    // (.[0-9]+)?([eE][+-]?[0-9]+)?. strtod alone is laxer ("+1", "01",
    // "1.", ".5", "0x10", "inf" all convert) and would make the NDJSON
    // dialect drift from every other JSON parser a client might use.
    const std::size_t start = pos_;
    const auto digit_at = [this](std::size_t p) {
      return p < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[p]));
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit_at(pos_)) {
      pos_ = start;
      fail("expected a value");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // a leading zero stands alone: "0", "0.5" — never "01"
    } else {
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digit_at(pos_)) {
        pos_ = start;
        fail("malformed number (expected digits after '.')");
      }
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digit_at(pos_)) {
        pos_ = start;
        fail("malformed number (expected exponent digits)");
      }
      while (digit_at(pos_)) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) {
      // 1e999 overflows to ±inf, which the emitter could never round-trip.
      pos_ = start;
      fail("number out of range '" + token + "'");
    }
    return JsonValue::make_number(v);
  }

  /// Grammar caps (see parse_document): generous for real request
  /// traffic — the largest legitimate line is a DSE scenario list well
  /// under 64 KiB — yet small enough that abuse degrades into an error
  /// response.
  static constexpr std::size_t kMaxInput = 1u << 20;  // 1 MiB per document
  static constexpr int kMaxDepth = 64;                // nested containers

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  ST_REQUIRE(kind_ == Kind::Bool, "json: value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  ST_REQUIRE(kind_ == Kind::Number, "json: value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  ST_REQUIRE(kind_ == Kind::String, "json: value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  ST_REQUIRE(kind_ == Kind::Array, "json: value is not an array");
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  ST_REQUIRE(kind_ == Kind::Object, "json: value is not an object");
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr || v->is_null() ? fallback : v->as_string();
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr || v->is_null() ? fallback : v->as_number();
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr || v->is_null() ? fallback : v->as_bool();
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::Bool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.kind_ = Kind::Number;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::String;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array() {
  JsonValue j;
  j.kind_ = Kind::Array;
  return j;
}

JsonValue JsonValue::make_object() {
  JsonValue j;
  j.kind_ = Kind::Object;
  return j;
}

void JsonValue::set(std::string key, JsonValue v) {
  ST_REQUIRE(kind_ == Kind::Object, "json: value is not an object");
  object_[std::move(key)] = std::move(v);
}

void JsonValue::push_back(JsonValue v) {
  ST_REQUIRE(kind_ == Kind::Array, "json: value is not an array");
  array_.push_back(std::move(v));
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace sparsetrain::serve
