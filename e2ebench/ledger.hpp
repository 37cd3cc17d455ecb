// The benchmark's own accounting: the percentile rule, span records and
// their per-layer self-time ledger, the Chrome trace-event export, and
// the golden comparison behind the correctness gate. Nothing here runs a
// simulation, so selftest.cpp can pin every rule on synthetic inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "sim/report.hpp"

namespace stbench {

/// Median of `v` (mean of the two middle samples for even counts); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// The reported tail: the highest percentile that still has at least ten
/// samples beyond it. For n >= 21 sorted samples that is the sample with
/// exactly ten above it, at percentile 100 * (n - 10) / n. With fewer
/// samples that percentile would fall below the median, so the maximum
/// is reported instead (percentile 100, beyond 0).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> v);

/// One finished span, from a daemon's JSONL trace log or recorded by the
/// benchmark itself. Times are microseconds: `start_us` on the system
/// clock (comparable across processes), `dur_us` from a steady clock.
struct SpanRec {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string process;
  int pid = 0;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::map<std::string, std::string> attrs;
};

/// Parses one line of the daemons' span log (obs/trace.hpp format).
/// Throws on malformed input.
SpanRec parse_span(const std::string& line);

/// Every span of a JSONL log; a missing file yields no spans.
std::vector<SpanRec> read_span_log(const std::string& path);

/// Per-layer account of one request's span tree.
struct Ledger {
  /// Self time (duration minus the durations of its direct children) of
  /// every span, summed per span name, in microseconds.
  std::map<std::string, double> self_us;
  double root_us = 0.0;      ///< duration of the root span
  double min_self_us = 0.0;  ///< most negative (or smallest) self time
  /// root_us minus the sum of all self times: zero when every span's
  /// children lie inside it, the identity the traced run checks.
  double residual_us = 0.0;
  bool connected = false;  ///< exactly one root and no orphaned span
};

/// Re-parents a span under the innermost sibling of the same process
/// whose interval contains it. The router's router.forward span stays
/// open while it replicates, so router.replicate, recorded as a sibling,
/// lies inside it; nesting it there keeps every self time non-negative
/// without editing the program's spans.
std::vector<SpanRec> nest_contained(std::vector<SpanRec> spans);

/// Builds the ledger of the spans of one trace (after nest_contained).
Ledger build_ledger(const std::vector<SpanRec>& spans);

/// True when the ledger adds up: a connected tree, no self time below
/// -granularity_us, and |residual| within granularity_us.
bool reconciles(const Ledger& l, double granularity_us);

/// Writes `spans` as one Chrome trace-event JSON document (loads in
/// Perfetto and chrome://tracing): one process track per pid, named by
/// the span's process field, each trace an async slice group.
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRec>& spans);

/// Golden numbers, flattened to name -> value (e.g.
/// "exact.AlexNet/ImageNet.stage.3.cycles"). Values are compared as
/// decimal strings so doubles must reproduce digit for digit.
using Golden = std::map<std::string, std::string>;

/// Reads a golden file: one "<name> <value>" pair per line, '#' lines
/// are comments. Throws when unreadable or empty.
Golden read_golden(const std::string& path);

/// Names whose observed value differs from the golden one, plus golden
/// names missing from `observed` — each one a failed check.
std::vector<std::string> golden_mismatches(const Golden& golden,
                                           const Golden& observed,
                                           const std::string& prefix);

/// The simulated outputs of an exact whole-program report that the gate
/// checks: total cycles, then per stage cycles:macs:busy:register counts
/// under "exact.<prog>.run.".
void observe_report(Golden& obs, const std::string& prog,
                    const sparsetrain::sim::SimReport& r);

/// The DSE grid's checked outputs: evaluation count and every frontier
/// point (index:latency:energy:area) under "dse.sweep.".
void observe_frontier(Golden& obs, const sparsetrain::dse::ExploreResult& r);

/// Shortest decimal text that reads back as `v` (the golden format).
std::string exact_text(double v);

}  // namespace stbench
