#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "compiler/compiler.hpp"
#include "util/format.hpp"
#include "util/require.hpp"

namespace sparsetrain::serve {

namespace {

/// A fingerprint, trace id or span id.
std::uint64_t parse_id(const std::string& s) {
  std::uint64_t v = 0;
  ST_REQUIRE(parse_hex16(s, v), "protocol: bad fingerprint '" + s + "'");
  return v;
}

/// An integer field in [0, max] (`fallback` when absent). The range
/// checks come before the conversion, which is undefined for a double
/// outside [0, 2^64); `max` itself may be any 64-bit value.
std::uint64_t bounded_int(const JsonValue& obj, const std::string& key,
                          double fallback, std::uint64_t max) {
  const double v = obj.get_number(key, fallback);
  ST_REQUIRE(v >= 0 && v < 0x1p64 && std::floor(v) == v &&
                 static_cast<std::uint64_t>(v) <= max,
             "protocol: '" + key + "' must be an integer in [0, " +
                 std::to_string(max) + "]");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::string hex_encode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string hex_decode(std::string_view hex) {
  ST_REQUIRE(hex.size() % 2 == 0,
             "protocol: hex payload has odd length");
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    ST_REQUIRE(false, std::string("protocol: bad hex character '") + c +
                          "'");
    return 0;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) |
                                    nibble(hex[i + 1])));
  }
  return out;
}

Request parse_request(const std::string& line) {
  const JsonValue doc = parse_json(line);
  ST_REQUIRE(doc.is_object(), "protocol: request is not a JSON object");

  Request r;
  r.type = doc.get_string("type", "");
  ST_REQUIRE(r.type == "eval" || r.type == "stats" || r.type == "status" ||
                 r.type == "metrics" || r.type == "shutdown" ||
                 r.type == "put",
             "protocol: unknown request type '" + r.type + "'");
  r.id = doc.get_string("id", "");
  const std::string trace = doc.get_string("trace", "");
  if (!trace.empty()) {
    r.trace = parse_id(trace);
    const std::string span = doc.get_string("span", "");
    if (!span.empty()) r.parent_span = parse_id(span);
  }
  if (r.type == "metrics") {
    r.format = doc.get_string("format", "json");
    ST_REQUIRE(r.format == "json" || r.format == "prometheus",
               "protocol: unknown metrics format '" + r.format + "'");
    return r;
  }
  if (r.type == "put") {
    const std::string fp = doc.get_string("fingerprint", "");
    ST_REQUIRE(!fp.empty(), "protocol: put needs a fingerprint");
    r.fingerprint = parse_id(fp);
    r.report_hex = doc.get_string("report", "");
    ST_REQUIRE(!r.report_hex.empty(), "protocol: put needs a report");
    ST_REQUIRE(r.report_hex.size() % 2 == 0,
               "protocol: put report hex has odd length");
    return r;
  }
  if (r.type != "eval") return r;

  r.workload = doc.get_string("workload", r.workload);
  r.backend = doc.get_string("backend", r.backend);
  r.scenario = doc.get_string("scenario", r.scenario);
  ST_REQUIRE(r.scenario == "dense" || r.scenario == "natural" ||
                 r.scenario == "pruned" || r.scenario == "calibrated",
             "protocol: unknown scenario '" + r.scenario + "'");
  r.p = doc.get_number("p", r.p);
  r.act_density = doc.get_number("act_density", r.act_density);
  r.do_density = doc.get_number("do_density", r.do_density);
  r.engine = doc.get_string("engine", r.engine);
  ST_REQUIRE(r.engine == "statistical" || r.engine == "exact",
             "protocol: unknown engine '" + r.engine + "'");
  r.batch = bounded_int(doc, "batch", 0, compiler::kMaxBatch);
  r.timeout_ms =
      static_cast<long>(bounded_int(doc, "timeout_ms", 0, kMaxTimeoutMs));
  r.include_report = doc.get_bool("include_report", false);
  return r;
}

std::string format_response(const Response& r) {
  std::ostringstream os;
  os << "{\"id\": \"" << json_escape(r.id) << "\", \"type\": \""
     << json_escape(r.type) << "\", \"status\": \"" << json_escape(r.status)
     << '"';
  if (!r.error.empty()) {
    os << ", \"error\": \"" << json_escape(r.error) << '"';
  }
  if (!r.source.empty()) {
    os << ", \"source\": \"" << json_escape(r.source) << '"';
  }
  if (!r.shard.empty()) {
    os << ", \"shard\": \"" << json_escape(r.shard) << '"';
  }
  if (r.elapsed_ms >= 0.0) {
    os << ", \"elapsed_ms\": " << format_number(r.elapsed_ms);
  }
  if (r.type == "result" && r.status == "ok") {
    os << ", \"workload\": \"" << json_escape(r.workload)
       << "\", \"backend\": \"" << json_escape(r.backend)
       << "\", \"engine\": \"" << json_escape(r.engine)
       << "\", \"fingerprint\": \"" << hex16(r.fingerprint)
       << "\", \"cycles\": " << r.cycles
       << ", \"latency_ms\": " << format_number(r.latency_ms)
       << ", \"utilization\": " << format_number(r.utilization)
       << ", \"on_chip_uj\": " << format_number(r.on_chip_uj)
       << ", \"dram_uj\": " << format_number(r.dram_uj);
    if (!r.report_hex.empty()) {
      os << ", \"report\": \"" << r.report_hex << '"';  // hex: no escapes
    }
  }
  if (!r.payload_json.empty()) {
    os << ", \"payload\": " << r.payload_json;
  }
  os << '}';
  return os.str();
}

Response parse_response(const std::string& line) {
  const JsonValue doc = parse_json(line);
  ST_REQUIRE(doc.is_object(), "protocol: response is not a JSON object");

  Response r;
  r.id = doc.get_string("id", "");
  r.type = doc.get_string("type", "result");
  r.status = doc.get_string("status", "");
  ST_REQUIRE(!r.status.empty(), "protocol: response has no status");
  r.error = doc.get_string("error", "");
  r.source = doc.get_string("source", "");
  r.shard = doc.get_string("shard", "");
  r.report_hex = doc.get_string("report", "");
  r.workload = doc.get_string("workload", "");
  r.backend = doc.get_string("backend", "");
  r.engine = doc.get_string("engine", "");
  const std::string fp = doc.get_string("fingerprint", "");
  if (!fp.empty()) r.fingerprint = parse_id(fp);
  r.elapsed_ms = doc.get_number("elapsed_ms", -1.0);
  r.cycles = bounded_int(doc, "cycles", 0,
                         std::numeric_limits<std::uint64_t>::max());
  r.latency_ms = doc.get_number("latency_ms", 0.0);
  r.utilization = doc.get_number("utilization", 0.0);
  r.on_chip_uj = doc.get_number("on_chip_uj", 0.0);
  r.dram_uj = doc.get_number("dram_uj", 0.0);
  return r;
}

}  // namespace sparsetrain::serve
