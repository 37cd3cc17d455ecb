// Byte-identity of the two-level exact execution model (tile kernels →
// streaming merge → whole-program stage graph) against the serial sweep.
//
// The determinism contract after the fused-kernel/stage-graph rewrite is
// unchanged from PR 3: every simulated number — per-stage cycles,
// activity counters, energy — is a pure function of (program, network,
// profile, seed), independent of worker count, tile size, and which
// thread ran which (layer, stage) unit. These tests pin that across the
// agreement-matrix geometry grid, the odd-geometry fuzz generator's
// degenerate shapes, and a mixed conv+FC network, for worker counts
// {1, 2, 7}.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "core/session.hpp"
#include "sim/exact_network.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain::sim {
namespace {

constexpr std::size_t kWorkerGrid[] = {2, 7};

void expect_identical_reports(const SimReport& a, const SimReport& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.activity.busy_cycles, b.activity.busy_cycles);
  EXPECT_EQ(a.activity.macs, b.activity.macs);
  EXPECT_EQ(a.activity.reg_accesses, b.activity.reg_accesses);
  // Energy is float arithmetic, but the assembly order is pinned to
  // program order for every worker count, so even the double sums must
  // be bit-equal.
  EXPECT_EQ(a.energy.on_chip_pj(), b.energy.on_chip_pj());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i));
    EXPECT_EQ(a.stages[i].layer_index, b.stages[i].layer_index);
    EXPECT_EQ(a.stages[i].stage, b.stages[i].stage);
    EXPECT_EQ(a.stages[i].cycles, b.stages[i].cycles);
    EXPECT_EQ(a.stages[i].activity.busy_cycles,
              b.stages[i].activity.busy_cycles);
    EXPECT_EQ(a.stages[i].activity.macs, b.stages[i].activity.macs);
    EXPECT_EQ(a.stages[i].activity.reg_accesses,
              b.stages[i].activity.reg_accesses);
  }
}

/// Serial reference vs stage-graph runs at every grid worker count (and
/// both adaptive and pinned tiles for the widest one).
void check_grid(const workload::NetworkConfig& net,
                const workload::SparsityProfile& profile,
                std::uint64_t seed, bool require_nonzero = true) {
  compiler::CompileOptions copts;
  copts.engine = isa::EngineKind::Exact;
  const auto prog = compiler::compile(net, profile, copts);

  ArchConfig cfg;
  cfg.pe_groups = 8;

  const SimReport serial =
      run_exact(cfg, prog, net, profile, seed, ExactOptions{});
  // Degenerate fuzz geometries (1×N inputs fully inside padding) may
  // legitimately schedule zero work; identity still must hold there.
  if (require_nonzero) {
    EXPECT_GT(serial.total_cycles, 0u);
  }

  for (const std::size_t workers : kWorkerGrid) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExactOptions wide;
    wide.workers = workers;
    expect_identical_reports(
        run_exact(cfg, prog, net, profile, seed, wide), serial);

    ExactOptions pinned = wide;
    pinned.tile_tasks = 3;
    expect_identical_reports(
        run_exact(cfg, prog, net, profile, seed, pinned), serial);
  }
}

/// The agreement-matrix probe: one mid-size conv layer (not first, so
/// GTA compiles too) at the matrix's stride/pad variants.
workload::NetworkConfig probe_net(std::size_t kernel, std::size_t stride,
                                  std::size_t padding) {
  workload::NetworkConfig net;
  net.name = "probe-k" + std::to_string(kernel) + "s" +
             std::to_string(stride) + "p" + std::to_string(padding);
  workload::LayerConfig l;
  l.name = "conv";
  l.in_channels = 8;
  l.in_h = 24;
  l.in_w = 24;
  l.out_channels = 16;
  l.kernel = kernel;
  l.stride = stride;
  l.padding = padding;
  net.layers = {l};
  return net;
}

TEST(ExactStageGraph, MatrixGeometriesAreByteIdenticalAcrossWorkers) {
  struct GeoCase {
    std::size_t kernel, stride, padding;
  };
  const std::vector<GeoCase> geos = {{3, 1, 1}, {3, 2, 1}, {5, 2, 2}};
  const std::vector<double> densities = {1.0, 0.5, 0.1};

  for (const auto& g : geos) {
    for (const double d : densities) {
      SCOPED_TRACE("k/s/p=" + std::to_string(g.kernel) + "/" +
                   std::to_string(g.stride) + "/" +
                   std::to_string(g.padding) + " d=" + std::to_string(d));
      const auto net = probe_net(g.kernel, g.stride, g.padding);
      std::vector<workload::LayerDensities> ld(1);
      ld[0].input_acts = d;
      ld[0].output_grads = d;
      ld[0].mask = d;
      check_grid(net, workload::SparsityProfile("d", ld), /*seed=*/99);
    }
  }
}

// The odd-geometry generator of tests/test_dataflow_fuzz.cpp: stride >
// kernel, padding == kernel, 1×N / N×1 inputs. The stage graph must stay
// byte-identical on shapes where most tasks schedule zero or one row op
// (the merge degenerates to near-empty tiles).
TEST(ExactStageGraph, OddGeometryFuzzSeedsAreByteIdenticalAcrossWorkers) {
  for (const std::uint64_t seed : {901u, 902u, 903u, 904u, 905u}) {
    Rng rng(seed);
    const std::size_t kernel = 1 + rng.uniform_index(3);
    const std::size_t stride = 1 + rng.uniform_index(4);
    const std::size_t padding = rng.uniform_index(kernel + 1);
    const std::size_t in_c = 1 + rng.uniform_index(3);
    const std::size_t out_c = 1 + rng.uniform_index(4);
    std::size_t h = 6 + rng.uniform_index(10);
    std::size_t w = 6 + rng.uniform_index(10);
    switch (rng.uniform_index(3)) {
      case 0: h = 1; break;
      case 1: w = 1; break;
      default: break;
    }
    if (h + 2 * padding < kernel || w + 2 * padding < kernel) continue;
    SCOPED_TRACE("seed=" + std::to_string(seed) + " k=" +
                 std::to_string(kernel) + " s=" + std::to_string(stride) +
                 " p=" + std::to_string(padding) + " h=" +
                 std::to_string(h) + " w=" + std::to_string(w));

    workload::NetworkConfig net;
    net.name = "odd-" + std::to_string(seed);
    workload::LayerConfig l;
    l.name = "conv";
    l.in_channels = in_c;
    l.in_h = h;
    l.in_w = w;
    l.out_channels = out_c;
    l.kernel = kernel;
    l.stride = stride;
    l.padding = padding;
    net.layers = {l};

    std::vector<workload::LayerDensities> ld(1);
    ld[0].input_acts = 0.1 + 0.8 * rng.uniform();
    ld[0].output_grads = 0.1 + 0.8 * rng.uniform();
    ld[0].mask = 0.5;
    check_grid(net, workload::SparsityProfile("odd", ld), seed,
               /*require_nonzero=*/false);
  }
}

// A deeper mixed program — several conv layers plus an FC head, all
// three stages each — exercises the stage graph's operand cache under
// real unit concurrency: Forward/GTA/GTW of one layer share tensors
// (synthesised exactly once via call_once) while other layers' units run
// concurrently, and FC units synthesise privately.
TEST(ExactStageGraph, MixedConvFcNetworkIsByteIdenticalAcrossWorkers) {
  workload::NetworkConfig net;
  net.name = "graph-probe";
  for (int i = 0; i < 3; ++i) {
    workload::LayerConfig l;
    l.name = "conv" + std::to_string(i);
    l.in_channels = 4 + 2 * i;
    l.in_h = 14;
    l.in_w = 14;
    l.out_channels = 6 + 2 * i;
    l.kernel = 3;
    l.stride = 1;
    l.padding = 1;
    l.first_layer = i == 0;
    net.layers.push_back(l);
  }
  workload::LayerConfig fc;
  fc.name = "fc";
  fc.in_channels = 64;
  fc.in_h = 1;
  fc.in_w = 1;
  fc.out_channels = 10;
  fc.kernel = 1;
  fc.stride = 1;
  fc.padding = 0;
  fc.is_fc = true;
  net.layers.push_back(fc);

  const auto profile =
      workload::SparsityProfile::calibrated(net, 0.5, 0.3, "probe");
  check_grid(net, profile, /*seed=*/7);
}

// Whole exact programs of the four CIFAR zoo entries, pruned at p = 0.9,
// through a default Session: the cross-commit pin of run_exact's operand
// synthesis (the input, dO, mask and FC streams) over 24 FC stages and 58
// masked GTA stages. Digest = mix64 chained from 0 over each stage's
// cycles, MACs, busy cycles and register accesses.
TEST(ExactStageGraph, CifarZooWholeProgramsArePinned) {
  struct Pin {
    const char* workload;
    std::size_t total_cycles;
    std::uint64_t digest;
  };
  static const Pin kPins[] = {
      {"AlexNet/CIFAR", 990092, 0x8d200a76440574c7ULL},
      {"VGG-16/CIFAR", 1899491, 0xad7a876abbd9d585ULL},
      {"ResNet-18/CIFAR", 244287, 0xf045c5d7538b20b5ULL},
      {"ResNet-34/CIFAR", 495086, 0x7e78bed5c763e130ULL},
  };

  core::Session session;
  core::Session::JobOptions exact;
  exact.sim.engine = isa::EngineKind::Exact;
  // On a mismatch the failure prints every row in kPins' own syntax,
  // marking the rows that moved.
  std::string table;
  bool same = true;
  for (const Pin& want : kPins) {
    const workload::NetworkConfig& net =
        workload::find_workload(want.workload).net;
    const core::EvalResult r = session.evaluate(
        net, workload::SparsityProfile::pruned(net, 0.9),
        {core::Session::kSparseBackend}, exact);
    const SimReport& report = r.report(core::Session::kSparseBackend);
    ASSERT_EQ(report.engine, isa::EngineKind::Exact);
    std::uint64_t digest = 0;
    for (const StageReport& s : report.stages) {
      digest = mix64(digest, s.cycles);
      digest = mix64(digest, s.activity.macs);
      digest = mix64(digest, s.activity.busy_cycles);
      digest = mix64(digest, s.activity.reg_accesses);
    }
    const bool match =
        report.total_cycles == want.total_cycles && digest == want.digest;
    same = same && match;
    char line[160];
    std::snprintf(line, sizeof line, "  {\"%s\", %zu, 0x%016llxULL},%s\n",
                  want.workload, report.total_cycles,
                  static_cast<unsigned long long>(digest),
                  match ? "" : "  // moved");
    table += line;
  }
  if (!same) {
    ADD_FAILURE() << "exact whole-program fields moved:\n" << table;
  }
}

}  // namespace
}  // namespace sparsetrain::sim
