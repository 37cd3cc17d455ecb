// Metrics registry: histogram bin boundaries, underflow/overflow
// buckets, quantile error bounds, concurrent recording totals, registry
// identity/kind rules, both export formats (sparsetrain.metrics/v1
// JSON, Prometheus text), and the engine profiler's stage series.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "util/require.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Labels;
using obs::Registry;

// ---------------------------------------------------------------------------
// Histogram bounds

TEST(Histogram, BoundsAreHalfOctaveFromOneMicrosecond) {
  const auto& b = Histogram::bounds();
  ASSERT_EQ(b.size(), Histogram::kBounds);
  EXPECT_DOUBLE_EQ(b[0], 1e-6);
  // Every second bound doubles: 2^(i/2) steps.
  for (std::size_t i = 2; i < b.size(); ++i) {
    EXPECT_NEAR(b[i] / b[i - 2], 2.0, 1e-9) << "at bound " << i;
  }
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_GT(b[i], b[i - 1]);
  }
  // Top of the range covers any sane request latency (~47 s).
  EXPECT_GT(b.back(), 40.0);
  EXPECT_LT(b.back(), 60.0);
}

TEST(Histogram, BinPlacementAtAndAroundBoundaries) {
  const auto& b = Histogram::bounds();
  Histogram h;
  h.record(b[0]);          // exactly the first bound: underflow bin
  h.record(b[0] * 1.001);  // just above: bin 1
  h.record(b[5]);          // exactly a bound: its own bin (inclusive top)
  h.record(b[5] * 1.001);  // just above: next bin
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.bins[0], 1u);
  EXPECT_EQ(snap.bins[1], 1u);
  EXPECT_EQ(snap.bins[5], 1u);
  EXPECT_EQ(snap.bins[6], 1u);
  EXPECT_EQ(snap.count, 4u);
}

TEST(Histogram, UnderflowAndOverflowBuckets) {
  Histogram h;
  h.record(0.0);
  h.record(-1.0);  // clamped to 0
  h.record(std::numeric_limits<double>::quiet_NaN());  // clamped to 0
  h.record(1e-9);
  h.record(1e6);  // way past the last bound
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.bins[0], 4u);
  EXPECT_EQ(snap.bins[Histogram::kBins - 1], 1u);
  EXPECT_EQ(snap.count, 5u);
  // The overflow bin answers quantiles with the largest bound, never an
  // extrapolated fantasy.
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), Histogram::bounds().back());
}

TEST(Histogram, QuantileWithinSqrt2OfTruth) {
  // 1000 samples spread log-uniformly across the mid range; with
  // half-octave bins every interpolated quantile must be within a factor
  // of sqrt(2) of the true order statistic.
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    const double v = 1e-4 * std::pow(10.0, 3.0 * i / 999.0);  // 0.1ms..100ms
    values.push_back(v);
    h.record(v);
  }
  const auto snap = h.snapshot();
  for (const double q : {0.5, 0.9, 0.99}) {
    const double truth =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double est = snap.quantile(q);
    EXPECT_LE(est / truth, std::sqrt(2.0) * 1.01) << "q=" << q;
    EXPECT_GE(est / truth, 1.0 / (std::sqrt(2.0) * 1.01)) << "q=" << q;
  }
  // Monotone in q.
  EXPECT_LE(snap.quantile(0.5), snap.quantile(0.9));
  EXPECT_LE(snap.quantile(0.9), snap.quantile(0.99));
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(1e-5 * ((t + i) % 100 + 1));
        c.inc();
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bin_total = 0;
  for (const std::uint64_t b : snap.bins) bin_total += b;
  EXPECT_EQ(bin_total, snap.count);  // no record fell between bins
  EXPECT_GT(snap.sum_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Registry identity and kinds

TEST(Registry, SameNameAndLabelsResolveToSameInstrument) {
  Registry r;
  Counter& a = r.counter("requests_total", {{"type", "eval"}});
  Counter& b = r.counter("requests_total", {{"type", "eval"}});
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  // Different labels = different instrument.
  Counter& other = r.counter("requests_total", {{"type", "put"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(other.value(), 0u);
}

TEST(Registry, LabelOrderIsCanonicalised) {
  Registry r;
  Counter& a = r.counter("x_total", {{"b", "2"}, {"a", "1"}});
  Counter& b = r.counter("x_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, KindConflictThrows) {
  Registry r;
  r.counter("thing");
  EXPECT_THROW(r.gauge("thing"), ContractError);
  EXPECT_THROW(r.histogram("thing"), ContractError);
}

TEST(Registry, GaugeHoldsLastWrite) {
  Registry r;
  Gauge& g = r.gauge("resident_bytes");
  g.set(42.5);
  g.set(17.0);
  EXPECT_DOUBLE_EQ(g.value(), 17.0);
}

// ---------------------------------------------------------------------------
// Export formats

TEST(Registry, JsonSnapshotParsesAndCarriesEverything) {
  Registry r;
  r.counter("evals_total", {{"source", "computed"}}).inc(7);
  r.gauge("inflight").set(2.0);
  r.histogram("request_seconds").record(0.005);
  r.histogram("request_seconds").record(0.010);

  const std::string doc = r.json();
  EXPECT_EQ(doc.find('\n'), std::string::npos);  // one NDJSON-safe line
  const serve::JsonValue v = serve::parse_json(doc);
  EXPECT_EQ(v.get_string("schema", ""), "sparsetrain.metrics/v1");
  const serve::JsonValue* bounds = v.find("histogram_bounds");
  ASSERT_NE(bounds, nullptr);
  EXPECT_EQ(bounds->as_array().size(), Histogram::kBounds);
  const serve::JsonValue* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const serve::JsonValue& m : metrics->as_array()) {
    const std::string name = m.get_string("name", "");
    if (name == "evals_total") {
      saw_counter = true;
      EXPECT_EQ(m.get_string("kind", ""), "counter");
      EXPECT_DOUBLE_EQ(m.get_number("value", -1), 7.0);
      const serve::JsonValue* labels = m.find("labels");
      ASSERT_NE(labels, nullptr);
      EXPECT_EQ(labels->get_string("source", ""), "computed");
    } else if (name == "inflight") {
      saw_gauge = true;
      EXPECT_EQ(m.get_string("kind", ""), "gauge");
      EXPECT_DOUBLE_EQ(m.get_number("value", -1), 2.0);
    } else if (name == "request_seconds") {
      saw_hist = true;
      EXPECT_EQ(m.get_string("kind", ""), "histogram");
      EXPECT_DOUBLE_EQ(m.get_number("count", -1), 2.0);
      const serve::JsonValue* bins = m.find("bins");
      ASSERT_NE(bins, nullptr);
      EXPECT_EQ(bins->as_array().size(), Histogram::kBins);
      EXPECT_GT(m.get_number("p50", 0.0), 0.0);
      EXPECT_GE(m.get_number("p99", 0.0), m.get_number("p50", 0.0));
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(Registry, PrometheusExposition) {
  Registry r;
  r.counter("evals_total", {{"source", "store"}}).inc(3);
  r.histogram("request_seconds").record(0.002);

  const std::string text = r.prometheus();
  EXPECT_NE(text.find("# TYPE evals_total counter"), std::string::npos);
  EXPECT_NE(text.find("evals_total{source=\"store\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("request_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("request_seconds_count 1"), std::string::npos);
  // Cumulative buckets: the +Inf bucket equals the count, and bucket
  // counts never decrease as le grows.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  while ((pos = text.find("request_seconds_bucket", pos)) !=
         std::string::npos) {
    const std::size_t brace = text.find("} ", pos);
    ASSERT_NE(brace, std::string::npos);
    const std::uint64_t n = std::stoull(text.substr(brace + 2));
    EXPECT_GE(n, prev);
    prev = n;
    pos = brace;
  }
  EXPECT_EQ(prev, 1u);
}

TEST(Registry, SnapshotsAreDeterministic) {
  Registry r;
  r.counter("b_total").inc();
  r.counter("a_total").inc(2);
  r.gauge("z_gauge").set(1.0);
  EXPECT_EQ(r.json(), r.json());
  EXPECT_EQ(r.prometheus(), r.prometheus());
  // Sorted by name: a before b before z.
  const std::string doc = r.json();
  EXPECT_LT(doc.find("a_total"), doc.find("b_total"));
  EXPECT_LT(doc.find("b_total"), doc.find("z_gauge"));
}

// ---------------------------------------------------------------------------
// Engine profiler

// A serial exact run with profile_engine exports operand synthesis as
// its own `operands` series. On one thread the stage and operand spans
// are disjoint and all inside the simulate phase, so together they never
// exceed session_simulate_seconds.
TEST(EngineProfiler, SerialExactRunAttributesOperandSynthesis) {
  Registry reg;
  core::SessionConfig cfg;
  cfg.workers = 1;
  cfg.metrics = &reg;
  cfg.profile_engine = true;
  core::Session session(cfg);
  const auto net = workload::tiny_workload();
  core::Session::JobOptions options;
  options.sim.engine = isa::EngineKind::Exact;
  session.wait(session.submit(net,
                              workload::SparsityProfile::pruned(net, 0.9),
                              {core::Session::kSparseBackend}, options));

  const std::string text = reg.prometheus();
  EXPECT_NE(text.find("engine_stage_seconds_count{stage=\"operands\"}"),
            std::string::npos);
  EXPECT_NE(text.find("engine_stage_row_ops_total{stage=\"operands\"}"),
            std::string::npos);

  const Labels operands = {{"stage", "operands"}};
  EXPECT_GT(reg.histogram("engine_stage_seconds", operands).count(), 0u);
  EXPECT_GT(reg.counter("engine_stage_row_ops_total", operands).value(), 0u);
  double attributed = 0.0;
  for (const char* stage : {"forward", "gta", "gtw", "fc", "operands"}) {
    attributed +=
        reg.histogram("engine_stage_seconds", {{"stage", stage}})
            .sum_seconds();
  }
  EXPECT_GT(reg.histogram("engine_stage_seconds", {{"stage", "forward"}})
                .count(),
            0u);
  EXPECT_LE(attributed,
            reg.histogram("session_simulate_seconds").sum_seconds());
}

}  // namespace
}  // namespace sparsetrain
