#include "sim/trace.hpp"

#include <fstream>

#include "util/format.hpp"

namespace sparsetrain::sim {

bool write_chrome_trace(const SimReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;

  const double us_per_cycle = 1.0 / (report.clock_ghz * 1e3);
  out << "{\"traceEvents\":[\n";

  // Stages execute back-to-back (barriers); lay them out sequentially,
  // one thread lane per training stage.
  double t = 0.0;
  bool first = true;
  for (const auto& s : report.stages) {
    const double dur = static_cast<double>(s.cycles) * us_per_cycle;
    const int tid = static_cast<int>(s.stage);
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << json_escape(s.layer_name) << "\","
        << "\"cat\":\"" << isa::stage_name(s.stage) << "\","
        << "\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ","
        << "\"ts\":" << t << ",\"dur\":" << dur << ","
        << "\"args\":{\"cycles\":" << s.cycles
        << ",\"macs\":" << s.activity.macs
        << ",\"sram_bytes\":" << s.activity.sram_bytes
        << ",\"onchip_uj\":" << s.energy.on_chip_pj() * 1e-6 << "}}";
    t += dur;
  }

  // Lane names.
  const char* lanes[] = {"Forward", "GTA", "GTW"};
  for (int i = 0; i < 3; ++i) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
        << ",\"args\":{\"name\":\"" << lanes[i] << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace sparsetrain::sim
