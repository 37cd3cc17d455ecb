// Per-op oracle for the exact engine's forward, GTA and GTW stages.
//
// The engine folds only each op's cycles into its task's PE rounds —
// from a per-input-row cost table (forward), from counts (GTA), or for
// every channel of a GTW (n, f) in lockstep — and sums the row-op, busy,
// MAC and register counters once per stage or per task from count sums.
// This test re-derives every stage field the slow way: each task's row
// ops run through the view-based PeExact::run_src / run_msrc(BitMask) /
// run_osrc — one window intersection per nonzero — folded op by op by
// PeGroupReducer, and the per-task cycles go to an independent
// std::priority_queue least-loaded scheduler. All six ExactStageResult
// fields must match for serial and parallel engines (pinned and adaptive
// tiles), at every PE-group width, across kernel sizes, strides,
// paddings, widths on both sides of the 64-bit word edges, channel
// counts, batch sizes, masks and densities.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/conv_decompose.hpp"
#include "sim/exact_engine.hpp"
#include "tensor/bit_mask.hpp"
#include "util/rng.hpp"

namespace sparsetrain::sim {
namespace {

constexpr std::array<std::size_t, 5> kKernels = {1, 3, 5, 7, 11};
constexpr std::array<std::size_t, 7> kWidths = {1, 5, 13, 63, 64, 65, 129};
constexpr std::array<double, 5> kDensities = {0.0, 0.05, 0.3, 0.7, 1.0};

/// Least-loaded-group makespan with ties to the lowest group id, kept
/// apart from the engine's flat d-ary heap on purpose.
std::size_t makespan(const std::vector<std::size_t>& task_cycles,
                     std::size_t groups) {
  using Load = std::pair<std::size_t, std::size_t>;  // (load, group id)
  std::priority_queue<Load, std::vector<Load>, std::greater<>> heap;
  for (std::size_t g = 0; g < groups; ++g) heap.push({0, g});
  std::size_t span = 0;
  for (const std::size_t cycles : task_cycles) {
    const Load least = heap.top();
    heap.pop();
    const std::size_t load = least.first + cycles;
    span = std::max(span, load);
    heap.push({load, least.second});
  }
  return span;
}

/// Folds every task's ops (fed by `task(i, red)`) and schedules them.
template <typename Task>
ExactStageResult fold_tasks(const ArchConfig& cfg, std::size_t lanes,
                            std::size_t task_count, const Task& task) {
  PeGroupReducer red(cfg.pes_per_group, lanes);
  std::vector<std::size_t> cycles;
  for (std::size_t i = 0; i < task_count; ++i) {
    red.begin_task();
    task(i, red);
    cycles.push_back(red.end_task());
  }
  ExactStageResult r;
  r.tasks = task_count;
  r.row_ops = red.row_ops();
  r.activity.busy_cycles = red.busy();
  r.activity.macs = red.macs();
  r.activity.reg_accesses = red.reg();
  r.cycles = makespan(cycles, cfg.pe_groups);
  return r;
}

isa::RowBlock row_block(const dataflow::ConvGeometry& geo, isa::RowOpKind kind,
                        std::size_t in_len, std::size_t out_len) {
  isa::RowBlock b;
  b.kind = kind;
  b.in_len = in_len;
  b.out_len = out_len;
  b.kernel = static_cast<std::uint32_t>(geo.kernel);
  b.stride = static_cast<std::uint32_t>(geo.stride);
  b.padding = static_cast<std::uint32_t>(geo.padding);
  return b;
}

/// Forward: one task per output row (n, f, oy); op (c, ky) runs SRC over
/// input row (n, c, iy) with iy = oy·S + ky − P.
ExactStageResult forward_oracle(const ArchConfig& cfg,
                                const CompressedRows& input, const Shape& in,
                                const Shape& out,
                                const dataflow::ConvGeometry& geo) {
  const PeExact pe(cfg.timing);
  const isa::RowBlock b = row_block(geo, isa::RowOpKind::SRC, in.w, out.w);
  return fold_tasks(
      cfg, geo.kernel, in.n * geo.out_channels * out.h,
      [&](std::size_t i, PeGroupReducer& red) {
        const std::size_t oy = i % out.h;
        const std::size_t n = i / (out.h * geo.out_channels);
        for (std::size_t c = 0; c < geo.in_channels; ++c) {
          for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
            const auto iy = static_cast<std::int64_t>(oy * geo.stride + ky) -
                            static_cast<std::int64_t>(geo.padding);
            if (iy < 0 || iy >= static_cast<std::int64_t>(in.h)) continue;
            red.add(pe.run_src(
                input.row((n * in.c + c) * in.h + static_cast<std::size_t>(iy)),
                b));
          }
        }
      });
}

/// GTA: one task per dI row (n, c, iy); op (f, ky) scatters dO row
/// (n, f, oy) with oy·S + ky − P = iy through the row's mask.
ExactStageResult gta_oracle(const ArchConfig& cfg, const CompressedRows& go,
                            const Shape& out, const Shape& in,
                            const Tensor* mask,
                            const dataflow::ConvGeometry& geo) {
  const PeExact pe(cfg.timing);
  const isa::RowBlock b =
      row_block(geo, isa::RowOpKind::MSRC, out.w, in.w);
  const BitMask all_pass = bitmask_all(static_cast<std::uint32_t>(in.w));
  return fold_tasks(
      cfg, geo.kernel, out.n * geo.in_channels * in.h,
      [&](std::size_t i, PeGroupReducer& red) {
        const std::size_t iy = i % in.h;
        const std::size_t c = (i / in.h) % geo.in_channels;
        const std::size_t n = i / (in.h * geo.in_channels);
        const BitMask row_mask = mask == nullptr
                                     ? all_pass
                                     : bitmask_from_dense(mask->row(n, c, iy));
        for (std::size_t f = 0; f < geo.out_channels; ++f) {
          for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
            const auto num = static_cast<std::int64_t>(iy + geo.padding) -
                             static_cast<std::int64_t>(ky);
            if (num < 0 || num % static_cast<std::int64_t>(geo.stride) != 0)
              continue;
            const auto oy = static_cast<std::size_t>(num) / geo.stride;
            if (oy >= out.h) continue;
            red.add(pe.run_msrc(go.row((n * out.c + f) * out.h + oy),
                                row_mask, b));
          }
        }
      });
}

/// GTW: one task per (n, f, c) slice; op (oy, ky) correlates dO row
/// (n, f, oy) with I row iy = oy·S + ky − P (empty dO rows schedule
/// nothing).
ExactStageResult gtw_oracle(const ArchConfig& cfg, const CompressedRows& go,
                            const Shape& out, const CompressedRows& input,
                            const Shape& in,
                            const dataflow::ConvGeometry& geo) {
  const PeExact pe(cfg.timing);
  isa::RowBlock b = row_block(geo, isa::RowOpKind::OSRC, out.w, geo.kernel);
  b.second_len = in.w;
  return fold_tasks(
      cfg, geo.kernel, out.n * geo.out_channels * geo.in_channels,
      [&](std::size_t i, PeGroupReducer& red) {
        const std::size_t c = i % geo.in_channels;
        const std::size_t f = (i / geo.in_channels) % geo.out_channels;
        const std::size_t n = i / (geo.in_channels * geo.out_channels);
        for (std::size_t oy = 0; oy < out.h; ++oy) {
          const SparseRowView go_row = go.row((n * out.c + f) * out.h + oy);
          if (go_row.empty()) continue;
          for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
            const auto iy = static_cast<std::int64_t>(oy * geo.stride + ky) -
                            static_cast<std::int64_t>(geo.padding);
            if (iy < 0 || iy >= static_cast<std::int64_t>(in.h)) continue;
            red.add(pe.run_osrc(
                input.row((n * in.c + c) * in.h + static_cast<std::size_t>(iy)),
                go_row, b));
          }
        }
      });
}

void expect_same(const ExactStageResult& got, const ExactStageResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.tasks, want.tasks) << what;
  EXPECT_EQ(got.row_ops, want.row_ops) << what;
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.activity.busy_cycles, want.activity.busy_cycles) << what;
  EXPECT_EQ(got.activity.macs, want.activity.macs) << what;
  EXPECT_EQ(got.activity.reg_accesses, want.activity.reg_accesses) << what;
}

Tensor sparse_tensor(Rng& rng, const Shape& shape, double density) {
  Tensor t(shape);
  t.fill_sparse_normal(rng, density);
  return t;
}

/// One GTA geometry on random operands: dO density `rho_go`, mask density
/// `rho_mask` (negative: the all-pass mask), against both engines.
void run_gta_case(const ExactEngine& serial, const ExactEngine& parallel,
                  Rng& rng, const dataflow::ConvGeometry& geo, const Shape& in,
                  double rho_go, double rho_mask) {
  const Shape out = dataflow::conv_output_shape(geo, in);
  const CompressedRows go_rows =
      compress_tensor(sparse_tensor(rng, out, rho_go));
  Tensor mask = sparse_tensor(rng, in, std::max(rho_mask, 0.0));
  for (float& v : mask.flat())
    if (v != 0.0f) v = 1.0f;
  const Tensor* mask_ptr = rho_mask < 0.0 ? nullptr : &mask;
  const CompressedRows mask_rows = compress_tensor(mask);
  const CompressedRows* mask_rows_ptr = mask_ptr != nullptr ? &mask_rows
                                                            : nullptr;
  const ExactStageResult want =
      gta_oracle(serial.config(), go_rows, out, in, mask_ptr, geo);
  const std::string what =
      "PEs/group=" + std::to_string(serial.config().pes_per_group) +
      " K=" + std::to_string(geo.kernel) + " S=" + std::to_string(geo.stride) +
      " P=" + std::to_string(geo.padding) + " N=" + std::to_string(in.n) +
      " C=" + std::to_string(in.c) + " F=" + std::to_string(out.c) +
      " H=" + std::to_string(in.h) + " W=" + std::to_string(in.w) +
      " rho_go=" + std::to_string(rho_go) +
      (mask_ptr != nullptr ? " rho_mask=" + std::to_string(rho_mask)
                           : " unmasked");
  expect_same(serial.run_gta(go_rows, out, in, mask_rows_ptr, geo), want,
              what + " serial gta");
  expect_same(parallel.run_gta(go_rows, out, in, mask_rows_ptr, geo), want,
              what + " parallel gta");
}

/// PEs per group: 1 (one op per round), the DSE grid's {2, 3, 4}, and 7
/// (rounds longer than most tasks' op runs).
class ExactOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExactOracle, ConvStagesMatchPerOpEvaluation) {
  ArchConfig cfg;
  cfg.pe_groups = 5;  // few groups: every makespan depends on the order
  cfg.pes_per_group = GetParam();
  const ExactEngine serial(cfg);
  // Tiles of 1–3 units (a forward task, a GTW (n, f) channel run or a
  // GTA (n, iy) set each; pinned GTA tiles straddle samples) and
  // adaptive (0) ones.
  std::vector<std::unique_ptr<ExactEngine>> parallel;
  for (std::size_t tile = 0; tile <= 3; ++tile) {
    ExactOptions opts;
    opts.workers = 3;
    opts.tile_tasks = tile;
    parallel.push_back(std::make_unique<ExactEngine>(cfg, opts));
  }

  Rng rng(0x5eed0c1e);
  constexpr std::size_t kCases = 300;
  for (std::size_t i = 0; i < kCases; ++i) {
    dataflow::ConvGeometry geo;
    geo.kernel = kKernels[i % kKernels.size()];
    geo.stride = 1 + (i / kKernels.size()) % 4;
    geo.in_channels = 1 + rng.uniform_index(9);
    geo.out_channels = 1 + rng.uniform_index(4);
    const std::size_t w = kWidths[i % kWidths.size()];
    const std::size_t h = 1 + rng.uniform_index(6);
    // Any P < K that leaves at least one output position on both axes.
    const std::size_t short_side = std::min(w, h);
    const std::size_t p_min =
        short_side >= geo.kernel ? 0 : (geo.kernel - short_side + 1) / 2;
    geo.padding = p_min + rng.uniform_index(geo.kernel - p_min);
    const Shape in{1 + (i / 35) % 2, geo.in_channels, h, w};
    const Shape out = dataflow::conv_output_shape(geo, in);
    const bool masked = i % 2 == 1;
    const double rho_in = kDensities[rng.uniform_index(kDensities.size())];
    const double rho_go = kDensities[rng.uniform_index(kDensities.size())];
    const double rho_mask = kDensities[rng.uniform_index(kDensities.size())];

    const Tensor input = sparse_tensor(rng, in, rho_in);
    const Tensor grad = sparse_tensor(rng, out, rho_go);
    Tensor mask = sparse_tensor(rng, in, rho_mask);
    for (float& v : mask.flat())
      if (v != 0.0f) v = 1.0f;
    const Tensor* mask_ptr = masked ? &mask : nullptr;

    const CompressedRows in_rows = compress_tensor(input);
    const CompressedRows go_rows = compress_tensor(grad);
    const CompressedRows mask_rows = compress_tensor(mask);
    const CompressedRows* mask_rows_ptr = masked ? &mask_rows : nullptr;
    const ExactStageResult fwd_want =
        forward_oracle(cfg, in_rows, in, out, geo);
    const ExactStageResult gta_want =
        gta_oracle(cfg, go_rows, out, in, mask_ptr, geo);
    const ExactStageResult gtw_want =
        gtw_oracle(cfg, go_rows, out, in_rows, in, geo);

    const std::string what =
        "case " + std::to_string(i) + ": PEs/group=" +
        std::to_string(cfg.pes_per_group) + " K=" + std::to_string(geo.kernel) +
        " S=" + std::to_string(geo.stride) +
        " P=" + std::to_string(geo.padding) + " N=" + std::to_string(in.n) +
        " C=" + std::to_string(in.c) + " F=" + std::to_string(out.c) +
        " H=" + std::to_string(h) + " W=" + std::to_string(w) +
        " rho_in=" + std::to_string(rho_in) +
        " rho_go=" + std::to_string(rho_go) +
        (masked ? " rho_mask=" + std::to_string(rho_mask) : " unmasked");
    const ExactEngine& par = *parallel[i % parallel.size()];
    for (const ExactEngine* engine : {&serial, &par}) {
      const std::string who =
          what + (engine == &serial ? " serial" : " parallel");
      expect_same(engine->run_forward(in_rows, in, geo), fwd_want,
                  who + " forward");
      expect_same(engine->run_gta(go_rows, out, in, mask_rows_ptr, geo),
                  gta_want, who + " gta");
      expect_same(engine->run_gtw(go_rows, out, in_rows, in, geo), gtw_want,
                  who + " gtw");
    }
    if (HasFailure()) return;  // one case's report is enough to debug
  }
}

// GTA evaluates the C tasks (n, ·, iy) in lockstep, one lane per
// channel, so channel counts that are no multiple of a vector width
// exercise its remainder lanes, and a dense dO row wider than 255
// positions needs counts wider than a byte.
TEST_P(ExactOracle, GtaWideChannelLockstepMatchesPerOpEvaluation) {
  ArchConfig cfg;
  cfg.pe_groups = 5;
  cfg.pes_per_group = GetParam();
  const ExactEngine serial(cfg);
  ExactOptions opts;
  opts.workers = 3;
  const ExactEngine parallel(cfg, opts);

  constexpr std::array<std::size_t, 4> kChannels = {16, 17, 40, 97};
  Rng rng(0x1a9e5);
  std::size_t i = 0;
  for (const std::size_t c : kChannels) {
    for (const std::size_t n : {1, 3}) {
      for (const bool masked : {false, true}) {
        dataflow::ConvGeometry geo;
        geo.kernel = kKernels[i % 3];  // 1, 3, 5
        geo.stride = 1 + i % 2;
        geo.padding = geo.kernel / 2;
        geo.in_channels = c;
        geo.out_channels = 8 + i % 5;
        const Shape in{n, c, 2 + i % 3, kWidths[2 + i % 5]};
        const double rho_go = kDensities[2 + i % 3];
        const double rho_mask = kDensities[1 + (i / 2) % 4];
        run_gta_case(serial, parallel, rng, geo, in, rho_go,
                     masked ? rho_mask : -1.0);
        ++i;
        if (HasFailure()) return;
      }
    }
  }
  // Dense dO rows of 300 positions: every op ingests up to 300 nonzeros,
  // and under a 0.7-dense mask a few of them are blocked.
  dataflow::ConvGeometry geo;
  geo.kernel = 3;
  geo.padding = 1;
  geo.in_channels = 17;
  geo.out_channels = 8;
  run_gta_case(serial, parallel, rng, geo, Shape{1, 17, 2, 300}, 1.0, 0.7);
  run_gta_case(serial, parallel, rng, geo, Shape{1, 17, 2, 300}, 1.0, -1.0);
}

INSTANTIATE_TEST_SUITE_P(PeWidths, ExactOracle,
                         ::testing::Values(1, 2, 3, 4, 7));

}  // namespace
}  // namespace sparsetrain::sim
