#include "core/export.hpp"

#include <fstream>

#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/require.hpp"

namespace sparsetrain::core {

namespace {

void report_json(std::ostream& out, const sim::SimReport& r,
                 const std::string& indent) {
  out << indent << "{\"backend\": \"" << json_escape(r.backend) << "\",\n"
      << indent << " \"arch\": \"" << json_escape(r.arch_name) << "\",\n"
      << indent << " \"engine\": \"" << isa::engine_name(r.engine) << "\",\n"
      << indent << " \"program\": \"" << json_escape(r.program_name)
      << "\",\n"
      << indent << " \"profile\": \"" << json_escape(r.profile_name)
      << "\",\n"
      << indent << " \"clock_ghz\": " << format_number(r.clock_ghz) << ",\n"
      << indent << " \"total_pes\": " << r.total_pes << ",\n"
      << indent << " \"total_cycles\": " << r.total_cycles << ",\n"
      << indent << " \"latency_ms\": " << format_number(r.latency_ms())
      << ",\n"
      << indent << " \"utilization\": " << format_number(r.utilization())
      << ",\n"
      << indent << " \"energy_pj\": {\"comb\": "
      << format_number(r.energy.comb_pj)
      << ", \"reg\": " << format_number(r.energy.reg_pj)
      << ", \"sram\": " << format_number(r.energy.sram_pj)
      << ", \"dram\": " << format_number(r.energy.dram_pj) << "},\n"
      << indent << " \"stages\": [";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const auto& s = r.stages[i];
    if (i) out << ", ";
    out << "{\"layer\": \"" << json_escape(s.layer_name) << "\", \"stage\": \""
        << isa::stage_name(s.stage) << "\", \"cycles\": " << s.cycles
        << ", \"on_chip_pj\": " << format_number(s.energy.on_chip_pj()) << '}';
  }
  out << "]}";
}

}  // namespace

std::vector<std::string> csv_header() {
  return {"workload",    "profile",    "backend",     "arch",
          "engine",      "total_cycles", "latency_ms", "utilization",
          "comb_uj",     "reg_uj",     "sram_uj",     "on_chip_uj",
          "dram_uj"};
}

void export_csv(const std::vector<EvalResult>& results, std::ostream& out) {
  CsvWriter csv(out, csv_header());
  for (const auto& job : results) {
    for (const auto& run : job.runs) {
      const auto& r = run.report;
      // The report's own profile, not the job's: dense backends run an
      // all-dense profile whatever the job submitted (matches the JSON).
      csv.add_row({job.net.name, r.profile_name, run.backend, r.arch_name,
                   isa::engine_name(r.engine),
                   std::to_string(r.total_cycles),
                   format_number(r.latency_ms()),
                   format_number(r.utilization()),
                   format_number(r.energy.comb_pj * 1e-6),
                   format_number(r.energy.reg_pj * 1e-6),
                   format_number(r.energy.sram_pj * 1e-6),
                   format_number(r.energy.on_chip_pj() * 1e-6),
                   format_number(r.energy.dram_pj * 1e-6)});
    }
  }
}

void export_csv(const std::vector<EvalResult>& results,
                const std::string& path) {
  std::ofstream out(path);
  ST_REQUIRE(static_cast<bool>(out), "cannot open '" + path + "'");
  export_csv(results, out);
}

void export_json(const std::vector<EvalResult>& results, std::ostream& out) {
  out << "[\n";
  for (std::size_t j = 0; j < results.size(); ++j) {
    const auto& job = results[j];
    out << " {\"workload\": \"" << json_escape(job.net.name)
        << "\", \"profile\": \"" << json_escape(job.profile_name)
        << "\", \"runs\": [\n";
    for (std::size_t i = 0; i < job.runs.size(); ++i) {
      report_json(out, job.runs[i].report, "   ");
      if (i + 1 < job.runs.size()) out << ',';
      out << '\n';
    }
    out << " ]}" << (j + 1 < results.size() ? "," : "") << '\n';
  }
  out << "]\n";
}

void export_json(const std::vector<EvalResult>& results,
                 const std::string& path) {
  std::ofstream out(path);
  ST_REQUIRE(static_cast<bool>(out), "cannot open '" + path + "'");
  export_json(results, out);
}

void export_stats_json(const Session& session, std::ostream& out) {
  // v2 added the degradation fields (read_only, publish_failures,
  // dropped_publishes, tmp_cleaned); v3 drops the program-record count,
  // since the store keeps result records only. Consumers that read the
  // remaining counters keep working; the schema tag tells them what is
  // there.
  const compiler::ProgramCache::Stats cache = session.program_cache().stats();
  const std::shared_ptr<serve::ResultStore>& store = session.result_store();
  out << "{\"schema\": \"sparsetrain.store_stats/v3\",\n"
      << " \"program_cache\": {\"hits\": " << cache.hits
      << ", \"misses\": " << cache.misses
      << ", \"lookups\": " << cache.lookups() << "},\n"
      << " \"store_attached\": " << (store ? "true" : "false");
  if (store) {
    const serve::StoreStats s = store->stats();
    out << ",\n \"store\": {\"hits\": " << s.hits
        << ", \"misses\": " << s.misses
        << ", \"hit_rate\": " << format_number(s.hit_rate())
        << ", \"puts\": " << s.puts << ", \"evictions\": " << s.evictions
        << ", \"torn_skipped\": " << s.torn_skipped
        << ", \"tmp_cleaned\": " << s.tmp_cleaned
        << ", \"publish_failures\": " << s.publish_failures
        << ", \"dropped_publishes\": " << s.dropped_publishes
        << ", \"read_only\": " << (s.read_only ? "true" : "false")
        << ", \"entries\": " << s.entries << ", \"bytes\": " << s.bytes
        << "}";
  }
  out << "}\n";
}

}  // namespace sparsetrain::core
