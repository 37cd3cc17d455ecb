#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/format.hpp"
#include "util/require.hpp"

namespace sparsetrain::obs {

namespace {

/// Prometheus label values escape \ " and newline only.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

Labels canonical(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string label_suffix(const Labels& sorted) {
  if (sorted.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first + "=\"" + prom_escape(sorted[i].second) + '"';
  }
  out += '}';
  return out;
}

void json_labels(std::ostringstream& os, const Labels& sorted) {
  os << '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << json_escape(sorted[i].first) << "\": \""
       << json_escape(sorted[i].second) << '"';
  }
  os << '}';
}

}  // namespace

const std::array<double, Histogram::kBounds>& Histogram::bounds() {
  static const std::array<double, kBounds> table = [] {
    std::array<double, kBounds> b{};
    for (std::size_t i = 0; i < kBounds; ++i) {
      b[i] = 1e-6 * std::pow(2.0, static_cast<double>(i) / 2.0);
    }
    return b;
  }();
  return table;
}

void Histogram::record(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN/negative clamp to underflow
  const auto& b = bounds();
  const std::size_t bin = static_cast<std::size_t>(
      std::lower_bound(b.begin(), b.end(), seconds) - b.begin());
  bins_[bin].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  for (std::size_t i = 0; i < kBins; ++i) {
    s.bins[i] = bins_[i].load(std::memory_order_relaxed);
  }
  // Recompute the total from the bins, not count_: a snapshot taken
  // mid-record must stay internally consistent (quantile walks the bins).
  s.count = 0;
  for (const std::uint64_t c : s.bins) s.count += c;
  s.sum_seconds =
      static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto& b = bounds();
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    if (bins[i] == 0) continue;
    const std::uint64_t next = cum + bins[i];
    if (rank <= next) {
      if (i == kBins - 1) return b.back();  // overflow: conservative
      const double lo = i == 0 ? 0.0 : b[i - 1];
      const double hi = b[i];
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(bins[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return b.back();
}

Registry::Entry& Registry::resolve(const std::string& name,
                                   const Labels& labels, Kind kind) {
  const Labels sorted = canonical(labels);
  std::string key = name;
  for (const auto& [k, v] : sorted) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  std::lock_guard lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.name = name;
    e.labels = sorted;
    e.kind = kind;
    switch (kind) {
      case Kind::Counter: e.counter = std::make_unique<Counter>(); break;
      case Kind::Gauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::Histogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::move(key), std::move(e)).first;
  }
  ST_REQUIRE(it->second.kind == kind,
             "metrics: '" + name + "' already registered as another kind");
  return it->second;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  return *resolve(name, labels, Kind::Counter).counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  return *resolve(name, labels, Kind::Gauge).gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const Labels& labels) {
  return *resolve(name, labels, Kind::Histogram).histogram;
}

std::string Registry::json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\"schema\": \"sparsetrain.metrics/v1\", \"histogram_bounds\": [";
  const auto& b = Histogram::bounds();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i > 0) os << ", ";
    os << format_number(b[i]);
  }
  os << "], \"metrics\": [";
  std::lock_guard lock(mu_);
  bool first = true;
  for (const auto& [key, e] : entries_) {
    (void)key;
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << json_escape(e.name) << "\", \"labels\": ";
    json_labels(os, e.labels);
    switch (e.kind) {
      case Kind::Counter:
        os << ", \"kind\": \"counter\", \"value\": " << e.counter->value();
        break;
      case Kind::Gauge:
        os << ", \"kind\": \"gauge\", \"value\": "
           << format_number(e.gauge->value());
        break;
      case Kind::Histogram: {
        const Histogram::Snapshot s = e.histogram->snapshot();
        os << ", \"kind\": \"histogram\", \"count\": " << s.count
           << ", \"sum_seconds\": " << format_number(s.sum_seconds)
           << ", \"p50\": " << format_number(s.quantile(0.50))
           << ", \"p90\": " << format_number(s.quantile(0.90))
           << ", \"p99\": " << format_number(s.quantile(0.99))
           << ", \"bins\": [";
        for (std::size_t i = 0; i < s.bins.size(); ++i) {
          if (i > 0) os << ", ";
          os << s.bins[i];
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string Registry::prometheus() const {
  std::ostringstream os;
  os.precision(10);
  std::lock_guard lock(mu_);
  std::string last_typed;
  for (const auto& [key, e] : entries_) {
    (void)key;
    const char* type = e.kind == Kind::Counter ? "counter"
                       : e.kind == Kind::Gauge ? "gauge"
                                               : "histogram";
    if (last_typed != e.name) {
      os << "# TYPE " << e.name << ' ' << type << '\n';
      last_typed = e.name;
    }
    const std::string suffix = label_suffix(e.labels);
    switch (e.kind) {
      case Kind::Counter:
        os << e.name << suffix << ' ' << e.counter->value() << '\n';
        break;
      case Kind::Gauge:
        os << e.name << suffix << ' ' << format_number(e.gauge->value())
           << '\n';
        break;
      case Kind::Histogram: {
        const Histogram::Snapshot s = e.histogram->snapshot();
        const auto& b = Histogram::bounds();
        // Cumulative buckets, Prometheus style; the shared bound table
        // means every histogram exports the same `le` series.
        Labels with_le = e.labels;
        with_le.emplace_back("le", "");
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < b.size(); ++i) {
          cum += s.bins[i];
          with_le.back().second = format_number(b[i]);
          os << e.name << "_bucket" << label_suffix(with_le) << ' ' << cum
             << '\n';
        }
        with_le.back().second = "+Inf";
        os << e.name << "_bucket" << label_suffix(with_le) << ' ' << s.count
           << '\n';
        os << e.name << "_sum" << suffix << ' ' << format_number(s.sum_seconds)
           << '\n';
        os << e.name << "_count" << suffix << ' ' << s.count << '\n';
        break;
      }
    }
  }
  return os.str();
}

}  // namespace sparsetrain::obs
