// Minimal JSON for the serving protocol.
//
// The daemon speaks newline-delimited JSON; requests are small flat
// objects, so this is a strict, allocation-light recursive-descent parser
// over std::string_view plus a tiny writer. Full JSON is accepted
// (nesting, arrays, escapes, scientific numbers); anything malformed
// throws ContractError with a position, which the server turns into an
// explicit error response instead of dying.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/format.hpp"

namespace sparsetrain::serve {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw ContractError on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object field, or nullptr when absent (throws when not an object).
  const JsonValue* find(const std::string& key) const;

  /// Convenience lookups with defaults (absent field = default; a present
  /// field of the wrong type throws).
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_number(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array();
  static JsonValue make_object();

  /// Builder mutators (throw ContractError on a kind mismatch).
  void set(std::string key, JsonValue v);
  void push_back(JsonValue v);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;  ///< sorted keys (canonical)
};

/// Parses exactly one JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Numbers follow the strict RFC 8259
/// grammar (no "+1"/"01"/"1."/".5", no hex, no infinities), container
/// nesting is capped at 64 levels and documents at 1 MiB — oversized or
/// pathological inputs fail like any other malformed line, they never
/// exhaust the process. Throws ContractError when malformed.
JsonValue parse_json(std::string_view text);

/// The shared JSON string escaper (util/format.hpp), under the name the
/// serving code and its clients use.
using sparsetrain::json_escape;

}  // namespace sparsetrain::serve
