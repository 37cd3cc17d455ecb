#include "serve/report_io.hpp"

#include <bit>
#include <cstdlib>
#include <sstream>

#include "util/format.hpp"
#include "util/require.hpp"

namespace sparsetrain::serve {

namespace {

constexpr const char* kVersion = "sparsetrain.report/v1";

void put_str(std::ostringstream& os, const char* key, const std::string& v) {
  os << key << '=' << v.size() << ':' << v << '\n';
}

void put_u64(std::ostringstream& os, const char* key, std::uint64_t v) {
  os << key << '=' << v << '\n';
}

void put_f64(std::ostringstream& os, const char* key, double v) {
  os << key << '=' << std::hex << std::bit_cast<std::uint64_t>(v) << std::dec
     << '\n';
}

void put_activity(std::ostringstream& os, const sim::ActivityCounts& a) {
  os << "activity=" << a.macs << ',' << a.reg_accesses << ',' << a.sram_bytes
     << ',' << a.dram_bytes << ',' << a.busy_cycles << '\n';
}

void put_energy(std::ostringstream& os, const sim::EnergyBreakdown& e) {
  os << "energy=" << std::hex << std::bit_cast<std::uint64_t>(e.comb_pj)
     << ',' << std::bit_cast<std::uint64_t>(e.reg_pj) << ','
     << std::bit_cast<std::uint64_t>(e.sram_pj) << ','
     << std::bit_cast<std::uint64_t>(e.dram_pj) << std::dec << '\n';
}

/// Cursor over the payload; every take_* advances and throws on mismatch.
class Reader {
 public:
  explicit Reader(std::string_view payload) : rest_(payload) {}

  bool done() const { return rest_.empty(); }

  /// Consumes one "key=value\n" line and returns the value.
  std::string_view take(const char* key) {
    const std::size_t eol = rest_.find('\n');
    ST_REQUIRE(eol != std::string_view::npos,
               std::string("report record truncated at key '") + key + "'");
    std::string_view line = rest_.substr(0, eol);
    const std::size_t eq = line.find('=');
    ST_REQUIRE(eq != std::string_view::npos && line.substr(0, eq) == key,
               "report record: expected key '" + std::string(key) +
                   "', got line '" + std::string(line) + "'");
    // Length-prefixed values may themselves contain '\n': re-frame.
    std::string_view value = line.substr(eq + 1);
    const std::size_t colon = value.find(':');
    if (colon != std::string_view::npos &&
        value.find_first_not_of("0123456789") == colon) {
      const std::size_t len = parse_u64(value.substr(0, colon));
      const std::size_t start = eq + 1 + colon + 1;
      ST_REQUIRE(start + len <= rest_.size() &&
                     (start + len == rest_.size() || rest_[start + len] == '\n'),
                 "report record: bad string framing for key '" +
                     std::string(key) + "'");
      value = rest_.substr(start, len);
      rest_.remove_prefix(start + len < rest_.size() ? start + len + 1
                                                     : start + len);
      return value;
    }
    rest_.remove_prefix(eol + 1);
    return value;
  }

  static std::uint64_t parse_u64(std::string_view s) {
    ST_REQUIRE(!s.empty() && s.find_first_not_of("0123456789") ==
                                 std::string_view::npos,
               "report record: malformed integer '" + std::string(s) + "'");
    std::uint64_t v = 0;
    for (const char c : s) {
      ST_REQUIRE(v <= (UINT64_MAX - (c - '0')) / 10,
                 "report record: integer overflow");
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
  }

  static std::uint64_t parse_hex64(std::string_view s) {
    std::uint64_t v = 0;
    ST_REQUIRE(parse_hex16(s, v),
               "report record: malformed hex '" + std::string(s) + "'");
    return v;
  }

  std::uint64_t take_u64(const char* key) { return parse_u64(take(key)); }
  double take_f64(const char* key) {
    return std::bit_cast<double>(parse_hex64(take(key)));
  }

  /// Comma-separated fixed-arity field list.
  std::vector<std::string_view> take_fields(const char* key,
                                            std::size_t arity) {
    std::string_view v = take(key);
    std::vector<std::string_view> out;
    while (true) {
      const std::size_t comma = v.find(',');
      out.push_back(v.substr(0, comma));
      if (comma == std::string_view::npos) break;
      v.remove_prefix(comma + 1);
    }
    ST_REQUIRE(out.size() == arity, "report record: key '" +
                                        std::string(key) + "' has " +
                                        std::to_string(out.size()) +
                                        " fields, expected " +
                                        std::to_string(arity));
    return out;
  }

  sim::ActivityCounts take_activity() {
    const auto f = take_fields("activity", 5);
    sim::ActivityCounts a;
    a.macs = parse_u64(f[0]);
    a.reg_accesses = parse_u64(f[1]);
    a.sram_bytes = parse_u64(f[2]);
    a.dram_bytes = parse_u64(f[3]);
    a.busy_cycles = parse_u64(f[4]);
    return a;
  }

  sim::EnergyBreakdown take_energy() {
    const auto f = take_fields("energy", 4);
    sim::EnergyBreakdown e;
    e.comb_pj = std::bit_cast<double>(parse_hex64(f[0]));
    e.reg_pj = std::bit_cast<double>(parse_hex64(f[1]));
    e.sram_pj = std::bit_cast<double>(parse_hex64(f[2]));
    e.dram_pj = std::bit_cast<double>(parse_hex64(f[3]));
    return e;
  }

 private:
  std::string_view rest_;
};

}  // namespace

std::string serialize_report(const sim::SimReport& r) {
  std::ostringstream os;
  os << kVersion << '\n';
  put_str(os, "program", r.program_name);
  put_str(os, "arch", r.arch_name);
  put_str(os, "backend", r.backend);
  put_str(os, "profile", r.profile_name);
  put_u64(os, "engine", static_cast<std::uint64_t>(r.engine));
  put_f64(os, "clock_ghz", r.clock_ghz);
  put_u64(os, "total_pes", r.total_pes);
  put_u64(os, "total_cycles", r.total_cycles);
  put_activity(os, r.activity);
  put_energy(os, r.energy);
  put_u64(os, "stages", r.stages.size());
  for (const sim::StageReport& s : r.stages) {
    os << "stage=" << s.layer_index << ','
       << static_cast<unsigned>(static_cast<std::uint8_t>(s.stage)) << ','
       << s.cycles << '\n';
    put_str(os, "layer", s.layer_name);
    put_activity(os, s.activity);
    put_energy(os, s.energy);
  }
  return os.str();
}

sim::SimReport parse_report(std::string_view payload) {
  const std::size_t eol = payload.find('\n');
  ST_REQUIRE(eol != std::string_view::npos && payload.substr(0, eol) ==
                                                  kVersion,
             "report record: missing or unknown version header");
  Reader rd(payload.substr(eol + 1));

  sim::SimReport r;
  r.program_name = std::string(rd.take("program"));
  r.arch_name = std::string(rd.take("arch"));
  r.backend = std::string(rd.take("backend"));
  r.profile_name = std::string(rd.take("profile"));
  const std::uint64_t engine = rd.take_u64("engine");
  ST_REQUIRE(engine <= static_cast<std::uint64_t>(isa::EngineKind::Exact),
             "report record: unknown engine kind");
  r.engine = static_cast<isa::EngineKind>(engine);
  r.clock_ghz = rd.take_f64("clock_ghz");
  r.total_pes = rd.take_u64("total_pes");
  r.total_cycles = rd.take_u64("total_cycles");
  r.activity = rd.take_activity();
  r.energy = rd.take_energy();
  // The count is untrusted, so nothing is reserved from it: a count past
  // the payload's records ends in a truncated-record ContractError.
  const std::uint64_t n_stages = rd.take_u64("stages");
  for (std::uint64_t i = 0; i < n_stages; ++i) {
    const auto f = rd.take_fields("stage", 3);
    sim::StageReport s;
    s.layer_index = Reader::parse_u64(f[0]);
    const std::uint64_t stage = Reader::parse_u64(f[1]);
    ST_REQUIRE(stage <= static_cast<std::uint64_t>(isa::Stage::GTW),
               "report record: unknown stage");
    s.stage = static_cast<isa::Stage>(stage);
    s.cycles = Reader::parse_u64(f[2]);
    s.layer_name = std::string(rd.take("layer"));
    s.activity = rd.take_activity();
    s.energy = rd.take_energy();
    r.stages.push_back(std::move(s));
  }
  ST_REQUIRE(rd.done(), "report record: trailing bytes after last stage");
  return r;
}

}  // namespace sparsetrain::serve
