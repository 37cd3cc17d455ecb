// Reproduces Fig. 8: average training latency per sample for each
// model × dataset, on the dense Eyeriss-like baseline and on SparseTrain,
// plus the speedup, each stage's share of SparseTrain's cycles, and each
// stage's own speedup (dense ÷ sparse cycles of that stage), so one run
// shows which stage the speedup comes from. Densities come from the
// paper's published Table II operating points (p = 90%); a
// natural-sparsity-only row is included for AlexNet since the paper's
// abstract quotes that configuration.
//
// All seven jobs are submitted to the Session up front and evaluated in
// parallel on its thread pool; per-job seeding keeps the numbers
// identical whatever the worker count.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
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
      "Fig. 8 reproduction: training latency per sample (ms) and speedup.\n"
      "168 PEs / 386 KB buffer on both architectures; densities from the\n"
      "paper's Table II at p = 90%% (VGG-16 zoo rows calibrate like\n"
      "AlexNet and are excluded from the paper-comparison aggregates).\n\n");

  const auto& workloads = workload::workload_zoo();
  const std::vector<std::string> backends = {core::Session::kSparseBackend,
                                             core::Session::kDenseBackend};

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
    jobs.push_back(session.submit(w.net, profile, backends));
  }
  // The abstract's AlexNet-with-natural-sparsity configuration rides along.
  const auto alex = workload::alexnet_cifar();
  const auto natural = workload::SparsityProfile::natural(
      alex, workload::paper_act_density(ModelFamily::AlexNet));
  const auto natural_job = session.submit(alex, natural, backends);

  TextTable table({"workload", "baseline ms", "SparseTrain ms", "speedup",
                   "Fwd cyc%", "GTA cyc%", "GTW cyc%", "Fwd x", "GTA x",
                   "GTW x"});
  double log_speedup_sum = 0.0;
  std::size_t paper_count = 0;
  double max_speedup = 0.0;
  std::string max_name;

  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const core::EvalResult& r = session.wait(jobs[i]);
    const auto& sparse = r.report(core::Session::kSparseBackend);
    const auto& dense = r.report(core::Session::kDenseBackend);
    const double speedup =
        r.cycle_ratio(core::Session::kDenseBackend,
                      core::Session::kSparseBackend);
    if (workloads[i].family != ModelFamily::VGG) {
      log_speedup_sum += std::log(speedup);
      ++paper_count;
      if (speedup > max_speedup) {
        max_speedup = speedup;
        max_name = r.net.name;
      }
    }

    const auto total = static_cast<double>(sparse.total_cycles);
    auto pct = [&](isa::Stage s) {
      return TextTable::pct(
          static_cast<double>(sparse.stage_cycles(s)) / total, 0);
    };
    auto stage_speedup = [&](isa::Stage s) {
      const std::size_t cycles = sparse.stage_cycles(s);
      return cycles == 0 ? std::string("-")
                         : TextTable::times(
                               static_cast<double>(dense.stage_cycles(s)) /
                               static_cast<double>(cycles));
    };
    table.add_row({r.net.name, TextTable::num(dense.latency_ms(), 3),
                   TextTable::num(sparse.latency_ms(), 3),
                   TextTable::times(speedup), pct(isa::Stage::Forward),
                   pct(isa::Stage::GTA), pct(isa::Stage::GTW),
                   stage_speedup(isa::Stage::Forward),
                   stage_speedup(isa::Stage::GTA),
                   stage_speedup(isa::Stage::GTW)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const double geomean =
      std::exp(log_speedup_sum / static_cast<double>(paper_count));
  std::printf("geomean speedup: %.2fx (paper: ~2.7x average)\n", geomean);
  std::printf("max speedup: %.2fx on %s (paper: 4.5x max, on AlexNet)\n",
              max_speedup, max_name.c_str());

  const core::EvalResult& nat = session.wait(natural_job);
  std::printf(
      "\nAlexNet/CIFAR with natural sparsity only (no pruning): %.2fx "
      "speedup\n",
      nat.cycle_ratio(core::Session::kDenseBackend,
                      core::Session::kSparseBackend));

  std::vector<core::EvalResult> results;
  for (const auto& job : jobs) results.push_back(session.wait(job));
  results.push_back(nat);
  core::export_csv(results, "fig8_latency.csv");
  std::printf("per-backend CSV written to fig8_latency.csv.\n");
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
