// Text formatting shared by every exporter: one JSON string escaper and
// one number formatter, so every document the repo writes escapes names
// and prints numbers the same way.
#pragma once

#include <string>
#include <string_view>

namespace sparsetrain {

/// Escapes `s` for embedding in a JSON string literal (no quotes added):
/// quote, backslash and every control character below 0x20.
std::string json_escape(std::string_view s);

/// `v` with 10 significant digits (the default ostream notation).
std::string format_number(double v);

}  // namespace sparsetrain
