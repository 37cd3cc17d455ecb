// Process-wide metrics registry.
//
// One obs::Registry per process (the daemons each own one) hands out
// stable references to named, labeled instruments:
//
//  * Counter — monotonically increasing 64-bit count (atomic add).
//  * Gauge — last-written double (atomic store), for sampled state like
//    resident store bytes or shard health.
//  * Histogram — fixed-bucket log-scale latency histogram. All
//    histograms share one static bound table (half-octave steps from
//    1 µs to ~47 s), so p50/p90/p99 are derivable from the bins of any
//    snapshot and two processes' histograms can be merged bin-wise.
//
// Recording is lock-cheap: instrument handles are resolved once (a
// mutex-guarded map lookup) and then recorded through relaxed atomics —
// the request hot path never takes the registry lock. Snapshots render
// the whole registry either as one versioned JSON document
// ("sparsetrain.metrics/v1") or as Prometheus text exposition, both
// deterministic (instruments sorted by name, then labels).
//
// A serving counter lives here and nowhere else. Its owner resolves a
// handle once and increments it; the daemons' "stats", "status" and
// "bye" payloads and core::export_stats_json read the same handles a
// "metrics" snapshot renders, so the two can never disagree. Two
// snapshot structs still copy registry counters: ProgramCache::Stats
// and serve::StoreStats (which adds the store's read-only flag and
// index sizes), whose deltas the DSE explorer reports.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sparsetrain::obs {

/// Label set of one instrument, e.g. {{"shard", "127.0.0.1:7117"}}.
/// Order-insensitive: the registry canonicalises by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-scale latency histogram in seconds. Bin 0 is the underflow bucket
/// (v <= bounds[0] = 1 µs), bin i covers (bounds[i-1], bounds[i]], and
/// the last bin is the overflow bucket (v > bounds.back() ≈ 47 s). With
/// half-octave bounds any quantile interpolated from the bins is within
/// a factor of sqrt(2) of the true value (exact at bin edges).
class Histogram {
 public:
  static constexpr std::size_t kBounds = 52;
  static constexpr std::size_t kBins = kBounds + 1;

  /// bounds[i] = 1e-6 * 2^(i/2) seconds, shared by every histogram.
  static const std::array<double, kBounds>& bounds();

  void record(double seconds);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  struct Snapshot {
    std::array<std::uint64_t, kBins> bins{};
    std::uint64_t count = 0;
    double sum_seconds = 0.0;

    /// Quantile estimate by linear interpolation inside the owning bin;
    /// the overflow bin answers with the largest bound (conservative).
    /// q outside [0, 1] is clamped; an empty histogram answers 0.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBins> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve-or-create. The returned reference is stable for the
  /// registry's lifetime; calling again with the same (name, labels)
  /// returns the same instrument. Throws ContractError when `name` is
  /// already registered as a different kind.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// One-line "sparsetrain.metrics/v1" JSON document. The histogram
  /// bound table appears once at the top level; each histogram carries
  /// its bins plus derived p50/p90/p99.
  std::string json() const;

  /// Prometheus text exposition (counters as `_total` values as named,
  /// histograms as cumulative `_bucket{le=...}` + `_sum`/`_count`).
  std::string prometheus() const;

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    Labels labels;  ///< sorted by key
    Kind kind = Kind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& resolve(const std::string& name, const Labels& labels, Kind kind);

  mutable std::mutex mu_;
  /// Keyed by name + canonical labels: iteration order is the export
  /// order, so snapshots are deterministic.
  std::map<std::string, Entry> entries_;
};

}  // namespace sparsetrain::obs
