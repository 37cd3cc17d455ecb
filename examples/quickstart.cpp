// Quickstart: evaluate a workload through the Session evaluation service.
//
// Build and run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/example_quickstart
#include <cstdio>

#include "core/session.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

int main() {
  using namespace sparsetrain;

  // 1. Pick a workload: the layer geometry of AlexNet at CIFAR input size.
  const workload::NetworkConfig net = workload::alexnet_cifar();

  // 2. Pick an operand sparsity profile. `pruned` stacks ReLU natural
  //    sparsity with the analytic effect of stochastic gradient pruning at
  //    rate p (here 90%).
  const auto profile = workload::SparsityProfile::pruned(net, /*p=*/0.9,
                                                         /*act_density=*/0.45);

  // 3. A Session comes with "sparsetrain" (168 PEs, 386 KB, sparse
  //    semantics) and "eyeriss-dense" (same budget, sparsity-blind)
  //    registered. Any ArchConfig variant can join the registry — here a
  //    half-array SparseTrain for scale comparison.
  core::Session session;
  sim::ArchConfig half = session.config().sparse_arch;
  half.name = "SparseTrain-28g";
  half.pe_groups = 28;
  session.backends().register_arch("sparsetrain-28g", half);

  // 4. Submit the workload against all three backends. The job runs on
  //    the session's thread pool; the compiler runs once per distinct
  //    (net, profile) — both sparse backends share one compiled program.
  const auto job = session.submit(
      net, profile, {"sparsetrain", "eyeriss-dense", "sparsetrain-28g"});
  const core::EvalResult& r = session.wait(job);

  std::printf("workload: %s  (profile: %s)\n", net.name.c_str(),
              profile.name().c_str());
  for (const auto& run : r.runs) {
    std::printf("  %-16s %8.3f ms/sample, %8.1f uJ on-chip, util %3.0f%%\n",
                run.backend.c_str(), run.report.latency_ms(),
                run.report.energy.on_chip_pj() * 1e-6,
                run.report.utilization() * 100.0);
  }
  std::printf("  speedup %.2fx, energy efficiency %.2fx\n",
              r.cycle_ratio("eyeriss-dense", "sparsetrain"),
              r.energy_ratio("eyeriss-dense", "sparsetrain"));

  // 5. The program cache compiled the sparse profile once for both
  //    sparse backends, and the dense profile once for the baseline.
  const auto stats = session.program_cache().stats();
  std::printf("\nprogram cache: %zu compiles for %zu program requests\n",
              stats.misses, stats.lookups());
  return 0;
}
