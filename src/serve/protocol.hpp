// Wire protocol of the evaluation daemon.
//
// Newline-delimited JSON in both directions. Requests are flat objects
// with a "type":
//
//   {"type":"eval","id":"r1","workload":"AlexNet/CIFAR",
//    "backend":"sparsetrain","scenario":"pruned","p":0.9,
//    "engine":"statistical","batch":1,"timeout_ms":5000}
//   {"type":"stats","id":"s"}      — store + cache + request counters
//   {"type":"status","id":"q"}     — liveness + provenance (pid, uptime,
//                                    tracing state, schema versions)
//   {"type":"metrics","id":"m","format":"json"}
//       — full metrics-registry snapshot: "json" answers the
//         sparsetrain.metrics/v1 document, "prometheus" answers the text
//         exposition wrapped as {"format":"prometheus","text":...}
//   {"type":"shutdown","id":"z"}   — graceful drain, then a "bye" reply
//   {"type":"put","id":"p","fingerprint":"<hex16>","report":"<hex>"}
//       — insert a serialized report directly into the daemon's store
//         (the shard router replicates results this way; idempotent,
//         keyed by the same fingerprint_v1 the store uses)
//
// Any request may carry tracing context as optional "trace" (16-hex
// trace id) and "span" (16-hex parent span id) fields. The edge process
// mints the trace id; a daemon that receives one parents its spans under
// the given span id and propagates the pair on every forwarded or
// replicated request. Absence of "trace" means the request is unsampled
// (the edge strips the fields for unsampled traces), so the fields never
// appear on a fraction of a trace.
//
// An eval request may add "include_report": true to receive the full
// serialized report (serve::report_io, hex-encoded) as "report" in the
// response — the payload a router forwards to replicas as a put.
//
// Every response is one line carrying the request's "id" and a "status"
// of ok | error | rejected | timeout. Evaluation responses additionally
// say where the numbers came from: "source" = store (persistent-store
// hit), computed (freshly simulated), coalesced (attached to an
// identical in-flight request — the single-flight discipline
// compiler::ProgramCache uses, applied to whole evaluations) or
// replicated (a put accepted into the store). A response that crossed
// the shard router also carries "shard": the backend endpoint that
// served it.
#pragma once

#include <cstdint>
#include <string>

#include "serve/json.hpp"

namespace sparsetrain::serve {

/// Largest "timeout_ms" an eval request may ask for (one day), which
/// keeps the server's wait deadline far inside steady_clock's range.
inline constexpr long kMaxTimeoutMs = 86'400'000;

struct Request {
  std::string type;  ///< eval | stats | status | metrics | shutdown | put
  std::string id;    ///< echoed verbatim in the response ("" when absent)
  /// Tracing context (0 = absent/unsampled; see the header comment).
  std::uint64_t trace = 0;
  std::uint64_t parent_span = 0;
  /// metrics requests only: "json" | "prometheus".
  std::string format = "json";
  // eval fields (defaults mirror the paper's operating point).
  std::string workload = "AlexNet/CIFAR";  ///< zoo name
  std::string backend = "sparsetrain";     ///< registered backend name
  std::string scenario = "pruned";  ///< dense | natural | pruned | calibrated
  double p = 0.9;                   ///< pruning rate (scenario=pruned)
  double act_density = 0.45;
  double do_density = 1.0;          ///< scenario=calibrated only
  std::string engine = "statistical";  ///< statistical | exact
  /// 0 = session default; at most compiler::kMaxBatch.
  std::size_t batch = 0;
  /// 0 = server default / none; at most kMaxTimeoutMs.
  long timeout_ms = 0;
  /// eval: ask for the serialized report ("report" hex) in the response.
  bool include_report = false;
  // put fields.
  std::uint64_t fingerprint = 0;  ///< store key the report belongs under
  std::string report_hex;         ///< hex-encoded serve::report_io payload
};

/// Parses one request line. Throws ContractError on malformed JSON, a
/// missing/unknown "type", or out-of-domain fields (an integer field
/// outside its range above included) — the server turns the exception
/// into an explicit error response.
Request parse_request(const std::string& line);

struct Response {
  std::string id;
  std::string type = "result";  ///< result | stats | status | metrics | bye
  std::string status = "ok";    ///< ok | error | rejected | timeout
  std::string error;            ///< human-readable cause when not ok
  std::string source;  ///< store | computed | coalesced | replicated
  std::string shard;   ///< router only: backend endpoint that served this
  /// Server-side wall time spent on this request, measured from intake
  /// to response assembly; < 0 = not measured (parse keeps -1 when the
  /// field is absent). Emitted on every daemon response so clients see
  /// server-side latency without tracing enabled.
  double elapsed_ms = -1.0;
  // Evaluation payload.
  std::string workload;
  std::string backend;
  std::string engine;
  std::uint64_t fingerprint = 0;
  std::uint64_t cycles = 0;
  double latency_ms = 0.0;
  double utilization = 0.0;
  double on_chip_uj = 0.0;
  double dram_uj = 0.0;
  /// Hex-encoded serialized report ("" unless the eval asked for it).
  std::string report_hex;
  /// Raw JSON object appended as "payload" (stats/status responses).
  std::string payload_json;
};

/// Hex codec for report payloads on the wire (lowercase, two digits per
/// byte). hex_decode throws ContractError on odd length or a non-hex
/// character.
std::string hex_encode(std::string_view bytes);
std::string hex_decode(std::string_view hex);

/// One response line (no trailing newline).
std::string format_response(const Response& r);

/// Client-side parse of a response line. Throws ContractError when the
/// line is not a response object.
Response parse_response(const std::string& line);

}  // namespace sparsetrain::serve
