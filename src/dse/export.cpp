#include "dse/export.hpp"

#include <fstream>

#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/require.hpp"

namespace sparsetrain::dse {

namespace {

std::vector<std::string> point_row(const PointResult& p) {
  const DesignPoint& pt = p.point;
  const char* status =
      p.complete ? (p.on_front ? "front" : "dominated")
                 : (p.pruned ? "pruned" : "partial");
  return {std::to_string(pt.index),
          pt.backend_name(),
          pt.scenario.name,
          isa::engine_name(pt.engine),
          std::to_string(pt.batch),
          std::to_string(pt.arch.pe_groups),
          std::to_string(pt.arch.pes_per_group),
          std::to_string(pt.arch.buffer_bytes),
          format_number(pt.arch.clock_ghz),
          pt.arch.sparse ? "1" : "0",
          format_number(p.objectives.latency_ms),
          format_number(p.objectives.energy_uj),
          format_number(p.objectives.area),
          status,
          p.exact_validated ? format_number(p.exact_objectives.latency_ms) : "",
          p.exact_validated ? format_number(p.exact_objectives.energy_uj) : ""};
}

}  // namespace

std::vector<std::string> points_csv_header() {
  return {"point",        "backend",    "scenario",   "engine",
          "batch",        "pe_groups",  "pes_per_group", "buffer_bytes",
          "clock_ghz",    "sparse",     "latency_ms", "energy_uj",
          "area",         "status",     "exact_latency_ms",
          "exact_energy_uj"};
}

void export_points_csv(const ExploreResult& result, std::ostream& out) {
  CsvWriter csv(out, points_csv_header());
  for (const PointResult& p : result.points) csv.add_row(point_row(p));
}

void export_points_csv(const ExploreResult& result, const std::string& path) {
  std::ofstream out(path);
  ST_REQUIRE(static_cast<bool>(out), "cannot open '" + path + "'");
  export_points_csv(result, out);
}

void export_frontier_csv(const ExploreResult& result, std::ostream& out) {
  CsvWriter csv(out, points_csv_header());
  for (const std::size_t i : result.frontier) {
    csv.add_row(point_row(result.points[i]));
  }
}

void export_frontier_csv(const ExploreResult& result,
                         const std::string& path) {
  std::ofstream out(path);
  ST_REQUIRE(static_cast<bool>(out), "cannot open '" + path + "'");
  export_frontier_csv(result, out);
}

void export_json(const ExploreResult& result, std::ostream& out) {
  out << "{\n \"schema\": \"sparsetrain.dse_exploration/v1\",\n";
  out << " \"evaluations\": " << result.evaluations << ",\n";
  out << " \"cache\": {\"hits\": " << result.cache.hits
      << ", \"misses\": " << result.cache.misses
      << ", \"hit_rate\": " << format_number(result.cache_hit_rate()) << "},\n";
  out << " \"frontier\": [";
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    if (i) out << ", ";
    out << result.frontier[i];
  }
  out << "],\n \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointResult& p = result.points[i];
    const DesignPoint& pt = p.point;
    out << "  {\"point\": " << pt.index << ", \"backend\": \""
        << json_escape(pt.backend_name()) << "\", \"scenario\": \""
        << json_escape(pt.scenario.name) << "\", \"engine\": \""
        << isa::engine_name(pt.engine) << "\", \"batch\": " << pt.batch
        << ",\n   \"arch\": {\"pe_groups\": " << pt.arch.pe_groups
        << ", \"pes_per_group\": " << pt.arch.pes_per_group
        << ", \"buffer_bytes\": " << pt.arch.buffer_bytes
        << ", \"clock_ghz\": " << format_number(pt.arch.clock_ghz)
        << ", \"sparse\": " << (pt.arch.sparse ? "true" : "false") << "},\n"
        << "   \"objectives\": {\"latency_ms\": "
        << format_number(p.objectives.latency_ms)
        << ", \"energy_uj\": " << format_number(p.objectives.energy_uj)
        << ", \"area\": " << format_number(p.objectives.area)
        << "},\n   \"evals\": [";
    for (std::size_t e = 0; e < p.evals.size(); ++e) {
      const WorkloadEval& we = p.evals[e];
      if (e) out << ", ";
      out << "{\"workload\": \"" << json_escape(we.workload)
          << "\", \"cycles\": " << we.report.total_cycles
          << ", \"latency_ms\": " << format_number(we.report.latency_ms())
          << ", \"on_chip_uj\": "
          << format_number(we.report.energy.on_chip_pj() * 1e-6) << "}";
    }
    out << "],\n   \"complete\": " << (p.complete ? "true" : "false")
        << ", \"pruned\": " << (p.pruned ? "true" : "false")
        << ", \"on_front\": " << (p.on_front ? "true" : "false");
    if (p.exact_validated) {
      out << ",\n   \"exact_objectives\": {\"latency_ms\": "
          << format_number(p.exact_objectives.latency_ms)
          << ", \"energy_uj\": " << format_number(p.exact_objectives.energy_uj)
          << "}";
    }
    out << "}" << (i + 1 < result.points.size() ? "," : "") << '\n';
  }
  out << " ]\n}\n";
}

void export_json(const ExploreResult& result, const std::string& path) {
  std::ofstream out(path);
  ST_REQUIRE(static_cast<bool>(out), "cannot open '" + path + "'");
  export_json(result, out);
}

}  // namespace sparsetrain::dse
