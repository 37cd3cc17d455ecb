// Text formatting shared by every exporter: one JSON string escaper, one
// number formatter and one codec for 64-bit ids, so every document the
// repo writes escapes names, prints numbers and spells ids the same way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sparsetrain {

/// Escapes `s` for embedding in a JSON string literal (no quotes added):
/// quote, backslash and every control character below 0x20.
std::string json_escape(std::string_view s);

/// `v` with 10 significant digits (the default ostream notation).
std::string format_number(double v);

/// `v` as 16 lowercase hex digits, zero-padded: how fingerprints, trace
/// and span ids and store checksums are written.
std::string hex16(std::uint64_t v);

/// Reads 1–16 lowercase hex digits into `out`. False, leaving `out`
/// unchanged, on anything else; callers throw their own error.
bool parse_hex16(std::string_view s, std::uint64_t& out);

}  // namespace sparsetrain
