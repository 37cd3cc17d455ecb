// Per-layer, per-stage architecture simulation of AlexNet at ImageNet
// scale: where the cycles and the energy go, and what sparsity saves.
#include <cstdio>

#include "core/session.hpp"
#include "isa/instruction.hpp"
#include "sim/trace.hpp"
#include "util/table.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

int main() {
  using namespace sparsetrain;

  const auto net = workload::alexnet_imagenet();
  const auto profile = workload::SparsityProfile::calibrated(
      net, workload::paper_act_density(workload::ModelFamily::AlexNet),
      workload::paper_table2_do_density(workload::ModelFamily::AlexNet,
                                        /*imagenet=*/true, 0.9),
      "table2-p90");

  core::Session session;
  const core::EvalResult result =
      session.evaluate(net, profile, {core::Session::kSparseBackend});
  const sim::SimReport& report = result.report(core::Session::kSparseBackend);

  std::printf("SparseTrain per-layer-stage breakdown: %s\n\n",
              report.program_name.c_str());
  TextTable table({"layer", "stage", "cycles", "cycles%", "MACs (M)",
                   "SRAM KB", "on-chip uJ"});
  const auto total = static_cast<double>(report.total_cycles);
  for (const auto& s : report.stages) {
    table.add_row({s.layer_name, isa::stage_name(s.stage),
                   std::to_string(s.cycles),
                   TextTable::pct(static_cast<double>(s.cycles) / total, 1),
                   TextTable::num(static_cast<double>(s.activity.macs) * 1e-6,
                                  1),
                   TextTable::num(
                       static_cast<double>(s.activity.sram_bytes) / 1024.0, 0),
                   TextTable::num(s.energy.on_chip_pj() * 1e-6, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("total: %zu cycles = %.3f ms/sample @ %.1f GHz, %.1f uJ "
              "on-chip, PE utilisation %.0f%%\n",
              report.total_cycles, report.latency_ms(), report.clock_ghz,
              report.energy.on_chip_pj() * 1e-6,
              report.utilization() * 100);

  if (sim::write_chrome_trace(report, "alexnet_trace.json")) {
    std::printf(
        "timeline written to alexnet_trace.json (open in Perfetto / "
        "chrome://tracing)\n");
  }
  return 0;
}
