// Reproduces Fig. 9: average energy per sample broken down by component
// (combinational logic, registers, SRAM; DRAM reported separately), for
// the dense baseline and SparseTrain, plus the energy-efficiency ratio and
// the paper's headline reduction percentages.
//
// Jobs are submitted to the Session up front and evaluated in parallel;
// the per-backend reports (with stage breakdowns) are exported as JSON.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/export.hpp"
#include "core/session.hpp"
#include "serve/store.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

using namespace sparsetrain;
using workload::ModelFamily;

int main(int argc, char** argv) {
  const Args args(
      argc, argv,
      {{"store", "persistent result-store directory (reused across runs)"}});
  if (args.help_requested()) {
    std::printf("%s", args.usage(argv[0]).c_str());
    return 0;
  }
  std::printf(
      "Fig. 9 reproduction: energy per sample (uJ) by component.\n"
      "\"Comb\" = combinational logic (MACs + PE control), on-chip =\n"
      "Comb + Reg + SRAM (the synthesised design + buffer, as in the\n"
      "paper); DRAM is reported separately.\n\n");

  // The full workload zoo: the paper's six plus VGG-16 (which calibrates
  // like AlexNet). Paper-comparison aggregates below use the paper's six.
  const auto& workloads = workload::workload_zoo();

  core::SessionConfig scfg;
  const std::string store_dir = args.get("store", std::string());
  if (!store_dir.empty()) {
    scfg.store = std::make_shared<serve::ResultStore>(store_dir);
  }
  core::Session session(scfg);
  std::vector<core::Session::JobHandle> jobs;
  for (const auto& w : workloads) {
    const auto profile = workload::SparsityProfile::calibrated(
        w.net, workload::paper_act_density(w.family),
        workload::paper_table2_do_density(w.family, w.imagenet, 0.9),
        "table2-p90");
    jobs.push_back(session.submit(
        w.net, profile,
        {core::Session::kSparseBackend, core::Session::kDenseBackend}));
  }

  TextTable table({"workload", "arch", "Comb uJ", "Reg uJ", "SRAM uJ",
                   "on-chip uJ", "DRAM uJ", "SRAM share"});
  double log_eff_sum = 0.0;
  std::size_t paper_count = 0;
  double min_eff = 1e9, max_eff = 0.0;
  double min_sram_red = 1.0, max_sram_red = 0.0;
  double min_comb_red = 1.0, max_comb_red = 0.0;

  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const core::EvalResult& r = session.wait(jobs[i]);
    const auto& sparse = r.report(core::Session::kSparseBackend).energy;
    const auto& dense = r.report(core::Session::kDenseBackend).energy;

    auto add = [&](const char* arch, const sim::EnergyBreakdown& e) {
      table.add_row({r.net.name, arch, TextTable::num(e.comb_pj * 1e-6, 1),
                     TextTable::num(e.reg_pj * 1e-6, 1),
                     TextTable::num(e.sram_pj * 1e-6, 1),
                     TextTable::num(e.on_chip_pj() * 1e-6, 1),
                     TextTable::num(e.dram_pj * 1e-6, 1),
                     TextTable::pct(e.sram_pj / e.on_chip_pj(), 0)});
    };
    add("baseline", dense);
    add("SparseTrain", sparse);
    if (workloads[i].family == ModelFamily::VGG) continue;

    const double eff = r.energy_ratio(core::Session::kDenseBackend,
                                      core::Session::kSparseBackend);
    log_eff_sum += std::log(eff);
    ++paper_count;
    min_eff = std::min(min_eff, eff);
    max_eff = std::max(max_eff, eff);
    const double sram_red = 1.0 - sparse.sram_pj / dense.sram_pj;
    const double comb_red = 1.0 - sparse.comb_pj / dense.comb_pj;
    min_sram_red = std::min(min_sram_red, sram_red);
    max_sram_red = std::max(max_sram_red, sram_red);
    min_comb_red = std::min(min_comb_red, comb_red);
    max_comb_red = std::max(max_comb_red, comb_red);
  }
  std::printf("%s\n", table.to_string().c_str());

  const double geomean =
      std::exp(log_eff_sum / static_cast<double>(paper_count));
  std::printf("energy efficiency: %.2fx-%.2fx, geomean %.2fx "
              "(paper: 1.5x-2.8x, avg 2.2x)\n",
              min_eff, max_eff, geomean);
  std::printf("SRAM energy reduction: %.0f%%-%.0f%% (paper: 30%%-59%%)\n",
              min_sram_red * 100.0, max_sram_red * 100.0);
  std::printf("Comb energy reduction: %.0f%%-%.0f%% (paper: 53%%-88%%)\n",
              min_comb_red * 100.0, max_comb_red * 100.0);

  std::vector<core::EvalResult> results;
  for (const auto& job : jobs) results.push_back(session.wait(job));
  core::export_json(results, "fig9_energy.json");
  std::printf("per-backend JSON (with stage breakdowns) written to "
              "fig9_energy.json.\n");
  if (session.result_store()) {
    const serve::StoreStats s = session.result_store()->stats();
    std::printf(
        "result store (%s): %zu hits / %zu lookups, %zu entries\n",
        store_dir.c_str(), static_cast<std::size_t>(s.hits),
        static_cast<std::size_t>(s.lookups()),
        static_cast<std::size_t>(s.entries));
  }
  return 0;
}
