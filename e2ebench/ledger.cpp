#include "ledger.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "isa/instruction.hpp"
#include "serve/json.hpp"

namespace stbench {

namespace {

using sparsetrain::serve::JsonValue;

std::uint64_t parse_hex(const std::string& s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error("bad hex id '" + s + "'");
  }
  return v;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 21) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

SpanRec parse_span(const std::string& line) {
  const JsonValue doc = sparsetrain::serve::parse_json(line);
  SpanRec s;
  s.trace = parse_hex(doc.get_string("trace", ""));
  s.id = parse_hex(doc.get_string("span", ""));
  const std::string parent = doc.get_string("parent", "");
  s.parent = parent.empty() ? 0 : parse_hex(parent);
  s.name = doc.get_string("name", "");
  s.process = doc.get_string("process", "");
  s.pid = static_cast<int>(doc.get_number("pid", 0));
  s.start_us = static_cast<std::int64_t>(doc.get_number("start_us", 0));
  s.dur_us = static_cast<std::int64_t>(doc.get_number("dur_us", 0));
  if (const JsonValue* attrs = doc.find("attrs")) {
    // The object's keys are private to JsonValue; re-read each known key.
    for (const char* key : {"id", "type", "status", "shard", "source",
                            "outcome", "hit", "backend", "workload"}) {
      if (attrs->find(key) != nullptr) s.attrs[key] = attrs->get_string(key, "");
    }
  }
  if (s.trace == 0 || s.id == 0 || s.name.empty()) {
    throw std::runtime_error("span line lacks trace/span/name: " + line);
  }
  return s;
}

std::vector<SpanRec> read_span_log(const std::string& path) {
  std::vector<SpanRec> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(parse_span(line));
  }
  return out;
}

std::vector<SpanRec> nest_contained(std::vector<SpanRec> spans) {
  constexpr std::int64_t kSlackUs = 2;  // start/duration rounding
  std::vector<std::uint64_t> new_parent(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    new_parent[i] = s.parent;
    std::int64_t best_dur = -1;
    for (const SpanRec& c : spans) {
      if (s.parent == 0 || c.parent != s.parent || c.id == s.id ||
          c.pid != s.pid || c.dur_us <= s.dur_us) {
        continue;
      }
      const bool inside = c.start_us <= s.start_us + kSlackUs &&
                          s.start_us + s.dur_us <= c.start_us + c.dur_us + kSlackUs;
      if (inside && (best_dur < 0 || c.dur_us < best_dur)) {
        best_dur = c.dur_us;
        new_parent[i] = c.id;
      }
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) spans[i].parent = new_parent[i];
  return spans;
}

Ledger build_ledger(const std::vector<SpanRec>& raw) {
  const std::vector<SpanRec> spans = nest_contained(raw);
  Ledger l;
  std::map<std::uint64_t, double> child_us;
  std::set<std::uint64_t> ids;
  for (const SpanRec& s : spans) ids.insert(s.id);
  std::size_t roots = 0;
  std::size_t orphans = 0;
  for (const SpanRec& s : spans) {
    if (s.parent == 0) {
      ++roots;
      l.root_us = static_cast<double>(s.dur_us);
    } else if (ids.count(s.parent) == 0) {
      ++orphans;
    } else {
      child_us[s.parent] += static_cast<double>(s.dur_us);
    }
  }
  l.connected = roots == 1 && orphans == 0 && ids.size() == spans.size();
  double total_self = 0.0;
  bool first = true;
  for (const SpanRec& s : spans) {
    const double self = static_cast<double>(s.dur_us) - child_us[s.id];
    l.self_us[s.name] += self;
    total_self += self;
    l.min_self_us = first ? self : std::min(l.min_self_us, self);
    first = false;
  }
  l.residual_us = l.root_us - total_self;
  return l;
}

bool reconciles(const Ledger& l, double granularity_us) {
  return l.connected && l.min_self_us >= -granularity_us &&
         std::fabs(l.residual_us) <= granularity_us;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRec>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  std::map<int, std::string> processes;
  for (const SpanRec& s : spans) processes.emplace(s.pid, s.process);
  for (const auto& [pid, name] : processes) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":" << pid << ",\"args\":{\"name\":\""
        << sparsetrain::serve::json_escape(name) << " (" << pid << ")\"}}";
  }
  // Async begin/end pairs keyed by trace id: concurrent requests overlap
  // within one process, which complete ("X") events on a single thread
  // track cannot show, while an async group per trace nests cleanly.
  for (const SpanRec& s : spans) {
    std::ostringstream args;
    args << "{\"span\":\"" << hex16(s.id) << "\"";
    for (const auto& [k, v] : s.attrs) {
      args << ",\"" << k << "\":\"" << sparsetrain::serve::json_escape(v)
           << "\"";
    }
    args << "}";
    const std::string common =
        "\"cat\":\"request\",\"id\":\"0x" + hex16(s.trace) +
        "\",\"name\":\"" + sparsetrain::serve::json_escape(s.name) +
        "\",\"pid\":" + std::to_string(s.pid) +
        ",\"tid\":" + std::to_string(s.pid);
    sep();
    out << "{\"ph\":\"b\"," << common << ",\"ts\":" << s.start_us
        << ",\"args\":" << args.str() << "}";
    sep();
    out << "{\"ph\":\"e\"," << common << ",\"ts\":" << s.start_us + s.dur_us
        << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

Golden read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  Golden g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      throw std::runtime_error(path + ": malformed line '" + line + "'");
    }
    g[line.substr(0, space)] = line.substr(space + 1);
  }
  if (g.empty()) throw std::runtime_error(path + ": no golden values");
  return g;
}

std::vector<std::string> golden_mismatches(const Golden& golden,
                                           const Golden& observed,
                                           const std::string& prefix) {
  std::vector<std::string> bad;
  for (const auto& [name, want] : golden) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const auto it = observed.find(name);
    if (it == observed.end()) {
      bad.push_back(name + " (missing)");
    } else if (it->second != want) {
      bad.push_back(name + " = " + it->second + ", golden " + want);
    }
  }
  return bad;
}

void observe_report(Golden& obs, const std::string& prog,
                    const sparsetrain::sim::SimReport& r) {
  const std::string p = "exact." + prog + ".run.";
  obs[p + "total_cycles"] = std::to_string(r.total_cycles);
  obs[p + "stages"] = std::to_string(r.stages.size());
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const sparsetrain::sim::StageReport& s = r.stages[i];
    char idx[24];
    std::snprintf(idx, sizeof idx, "%02zu", i);
    obs[p + idx + "." + s.layer_name + "." + sparsetrain::isa::stage_name(s.stage)] =
        std::to_string(s.cycles) + ":" + std::to_string(s.activity.macs) +
        ":" + std::to_string(s.activity.busy_cycles) + ":" +
        std::to_string(s.activity.reg_accesses);
  }
}

void observe_frontier(Golden& obs, const sparsetrain::dse::ExploreResult& r) {
  obs["dse.sweep.evaluations"] = std::to_string(r.evaluations);
  obs["dse.sweep.frontier_size"] = std::to_string(r.frontier.size());
  for (std::size_t k = 0; k < r.frontier.size(); ++k) {
    const sparsetrain::dse::PointResult& pt = r.points[r.frontier[k]];
    char idx[24];
    std::snprintf(idx, sizeof idx, "%02zu", k);
    obs[std::string("dse.sweep.frontier.") + idx] =
        std::to_string(r.frontier[k]) + ":" +
        exact_text(pt.objectives.latency_ms) + ":" +
        exact_text(pt.objectives.energy_uj) + ":" +
        exact_text(pt.objectives.area);
  }
}

std::string exact_text(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace stbench
