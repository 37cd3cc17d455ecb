// Exact-engine tests, including the cross-validation of the statistical
// accelerator model against exact tensor-driven cycle counts — the test
// that grounds every Fig. 8/9 number this repository produces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "compiler/compiler.hpp"
#include "sim/accelerator.hpp"
#include "sim/exact_engine.hpp"
#include "tensor/sparse_row.hpp"
#include "util/rng.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain::sim {
namespace {

dataflow::ConvGeometry geo_3x3(std::size_t c, std::size_t f) {
  dataflow::ConvGeometry geo;
  geo.in_channels = c;
  geo.out_channels = f;
  return geo;
}

void expect_identical(const ExactStageResult& a, const ExactStageResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.row_ops, b.row_ops);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.activity.busy_cycles, b.activity.busy_cycles);
  EXPECT_EQ(a.activity.macs, b.activity.macs);
  EXPECT_EQ(a.activity.reg_accesses, b.activity.reg_accesses);
}

TEST(ExactEngine, RequiresSparseMode) {
  ArchConfig cfg;
  cfg.sparse = false;
  EXPECT_THROW(ExactEngine{cfg}, ContractError);
}

TEST(ExactEngine, ValidatesArchitectureOnConstruction) {
  // weight_load divides by the port width.
  ArchConfig no_port;
  no_port.timing.weight_port_width = 0;
  EXPECT_THROW(ExactEngine{no_port}, ContractError);
  ArchConfig no_samples;
  no_samples.max_sched_samples = 0;
  EXPECT_THROW(ExactEngine{no_samples}, ContractError);
}

TEST(ExactEngine, ForwardCountsMatchHandComputation) {
  // 1 group, 1 PE per group → makespan = sum of all op cycles.
  ArchConfig cfg;
  cfg.pe_groups = 1;
  cfg.pes_per_group = 1;
  ExactEngine engine(cfg);

  Tensor input(Shape{1, 1, 3, 4});
  // Row nnz: 2, 0, 1.
  input.at(0, 0, 0, 0) = 1.0f;
  input.at(0, 0, 0, 2) = 2.0f;
  input.at(0, 0, 2, 3) = 3.0f;

  const auto r = engine.run_forward(input, geo_3x3(1, 1));
  // Tasks: 3 output rows; row ops with valid iy: oy0→ky1,2; oy1→ky0,1,2;
  // oy2→ky0,1 ⇒ 7 ops. Cycles per op: wload(2) + nnz + drain(2).
  EXPECT_EQ(r.tasks, 3u);
  EXPECT_EQ(r.row_ops, 7u);
  // nnz per input row: row0=2 (used by ops with iy=0: oy0/ky1? iy=oy+ky-1)
  // ops touching iy0: (oy0,ky1),(oy1,ky0) → 2 ops × 2 nnz
  // iy1 (nnz 0): (oy0,ky2),(oy1,ky1),(oy2,ky0) → 3 ops × 0
  // iy2 (nnz 1): (oy1,ky2),(oy2,ky1) → 2 ops × 1 nnz
  const std::size_t expected_busy = 7 * 4 + 2 * 2 + 2 * 1;
  EXPECT_EQ(r.activity.busy_cycles, expected_busy);
  EXPECT_EQ(r.cycles, expected_busy);  // single PE: serial
}

TEST(ExactEngine, ZeroGradRowsScheduleNoGtwOps) {
  ArchConfig cfg;
  cfg.pe_groups = 2;
  ExactEngine engine(cfg);
  Rng rng(7);
  Tensor input(Shape{1, 2, 6, 6});
  input.fill_sparse_normal(rng, 0.5);
  Tensor grad(Shape{1, 2, 6, 6});  // all zero
  const auto r = engine.run_gtw(grad, input, geo_3x3(2, 2));
  EXPECT_EQ(r.row_ops, 0u);
  EXPECT_EQ(r.activity.macs, 0u);
}

TEST(ExactEngine, MaskReducesGtaWork) {
  ArchConfig cfg;
  ExactEngine engine(cfg);
  Rng rng(8);
  const Shape in_shape{1, 2, 8, 8};
  Tensor grad(Shape{1, 2, 8, 8});
  grad.fill_sparse_normal(rng, 0.5);
  Tensor mask(in_shape);
  mask.fill_sparse_normal(rng, 0.3);
  for (float& v : mask.flat())
    if (v != 0.0f) v = 1.0f;

  const auto full = engine.run_gta(grad, in_shape, nullptr, geo_3x3(2, 2));
  const auto masked = engine.run_gta(grad, in_shape, &mask, geo_3x3(2, 2));
  EXPECT_LT(masked.activity.macs, full.activity.macs);
  EXPECT_LE(masked.activity.busy_cycles, full.activity.busy_cycles);

  // The mask is read row by row over the input's width: a narrower one
  // is a contract error, not an out-of-bounds read.
  const Tensor narrow(Shape{1, 2, 8, 7});
  EXPECT_THROW(engine.run_gta(grad, in_shape, &narrow, geo_3x3(2, 2)),
               ContractError);
}

// Every RowSet overload sizes its stage tables from the rows and indexes
// them from the shape passed alongside, so a mismatch — rows or width
// off, or a dO shape that is not the input's conv output — must throw
// instead of reading past a table.
TEST(ExactEngine, RowSetOverloadsRejectMismatchedShapes) {
  ArchConfig cfg;
  ExactEngine engine(cfg);
  Rng rng(5);
  const dataflow::ConvGeometry geo = geo_3x3(4, 2);
  const Shape in{1, 4, 6, 6};
  const Shape out = dataflow::conv_output_shape(geo, in);
  auto rows_of = [&](const Shape& shape) {
    Tensor t(shape);
    t.fill_sparse_normal(rng, 0.5);
    return compress_tensor(t);
  };
  const auto in_rows = rows_of(in);
  const auto go_rows = rows_of(out);
  EXPECT_GT(engine.run_forward(in_rows, in, geo).cycles, 0u);
  EXPECT_GT(engine.run_gta(go_rows, out, in, nullptr, geo).cycles, 0u);
  EXPECT_GT(engine.run_gta(go_rows, out, in, &in_rows, geo).cycles, 0u);
  EXPECT_GT(engine.run_gtw(go_rows, out, in_rows, in, geo).cycles, 0u);

  const auto two_channels = rows_of(Shape{1, 2, 6, 6});  // passed as 4
  const auto narrow_in = rows_of(Shape{1, 4, 6, 5});
  const auto one_filter = rows_of(Shape{1, 1, out.h, out.w});
  const auto narrow_go = rows_of(Shape{1, 2, out.h, out.w - 1});
  const Shape short_out{1, 2, out.h - 1, out.w};
  const auto short_go = rows_of(short_out);

  EXPECT_THROW(engine.run_forward(two_channels, in, geo), ContractError);
  EXPECT_THROW(engine.run_forward(narrow_in, in, geo), ContractError);

  EXPECT_THROW(engine.run_gta(one_filter, out, in, nullptr, geo),
               ContractError);
  EXPECT_THROW(engine.run_gta(narrow_go, out, in, nullptr, geo),
               ContractError);
  EXPECT_THROW(engine.run_gta(short_go, short_out, in, nullptr, geo),
               ContractError);
  // The mask's rows are the input's: wrong channel count, wrong width.
  EXPECT_THROW(engine.run_gta(go_rows, out, in, &two_channels, geo),
               ContractError);
  EXPECT_THROW(engine.run_gta(go_rows, out, in, &narrow_in, geo),
               ContractError);

  EXPECT_THROW(engine.run_gtw(one_filter, out, in_rows, in, geo),
               ContractError);
  EXPECT_THROW(engine.run_gtw(narrow_go, out, in_rows, in, geo),
               ContractError);
  EXPECT_THROW(engine.run_gtw(go_rows, out, two_channels, in, geo),
               ContractError);
  EXPECT_THROW(engine.run_gtw(go_rows, out, narrow_in, in, geo),
               ContractError);
  EXPECT_THROW(engine.run_gtw(short_go, short_out, in_rows, in, geo),
               ContractError);
}

// GTA counts an op's ingested nonzeros in 16-bit lanes, so run_gta admits
// dO rows of up to 65,535 positions and rejects wider ones.
TEST(ExactEngine, GtaCountsFitTheWidestAdmittedRow) {
  ArchConfig cfg;
  ExactEngine engine(cfg);
  dataflow::ConvGeometry geo;
  geo.kernel = 1;
  geo.padding = 0;
  geo.in_channels = 1;
  geo.out_channels = 1;
  const auto one_row = [&](std::size_t w) {
    Tensor t(Shape{1, 1, 1, w});
    t.fill(1.0f);
    return t;
  };

  constexpr std::size_t kWidest = 65535;
  const Tensor grad = one_row(kWidest);
  Tensor mask = one_row(kWidest);
  mask.at(0, 0, 0, 0) = 0.0f;
  const Shape in = grad.shape();
  // One op, one round: wl + the ingested nonzeros + drain.
  const PeExact pe(cfg.timing);
  isa::RowBlock block;
  block.kernel = 1;
  const std::size_t wl = pe.weight_load(block);
  EXPECT_EQ(engine.run_gta(grad, in, nullptr, geo).cycles,
            pe.msrc_cost(kWidest, 0, wl).cycles);
  EXPECT_EQ(engine.run_gta(grad, in, &mask, geo).cycles,
            pe.msrc_cost(kWidest - 1, 0, wl).cycles);

  const Tensor wider = one_row(kWidest + 1);
  EXPECT_THROW(engine.run_gta(wider, wider.shape(), nullptr, geo),
               ContractError);
}

TEST(ExactEngine, GtwRoundsFitTheWidestAdmittedGeometry) {
  // GTW prices ops and rounds in 32-bit lanes. With K = 1 a dense W-wide
  // dO row is W chunks over a dense W-wide I row: W·(wl + W) + drain
  // cycles, which fits at W = 65,535 and not at 65,536.
  ArchConfig cfg;
  ExactEngine engine(cfg);
  dataflow::ConvGeometry geo;
  geo.kernel = 1;
  geo.padding = 0;
  geo.in_channels = 1;
  geo.out_channels = 1;
  const auto one_row = [](std::size_t w) {
    Tensor t(Shape{1, 1, 1, w});
    t.fill(1.0f);
    return t;
  };

  constexpr std::size_t kWidest = 65535;
  const Tensor row = one_row(kWidest);
  const PeExact pe(cfg.timing);
  isa::RowBlock block;
  block.kernel = 1;
  const std::size_t wl = pe.weight_load(block);
  const std::size_t widest = pe.osrc_cost(kWidest, kWidest, 0, wl).cycles;
  ASSERT_GT(widest, std::size_t{std::numeric_limits<std::uint16_t>::max()});
  ASSERT_LE(widest, std::size_t{std::numeric_limits<std::uint32_t>::max()});
  EXPECT_EQ(engine.run_gtw(row, row, geo).cycles, widest);

  const Tensor wider = one_row(kWidest + 1);
  EXPECT_THROW(engine.run_gtw(wider, wider, geo), ContractError);
}

TEST(ExactEngine, ForwardRowCostsFitTheWidestAdmittedRow) {
  // Forward keeps each input row's op cycles in a 16-bit lane: with K = 1
  // a dense W-wide row costs wl + W + drain, 65,535 at W = 65,532.
  ArchConfig cfg;
  ExactEngine engine(cfg);
  dataflow::ConvGeometry geo;
  geo.kernel = 1;
  geo.padding = 0;
  geo.in_channels = 1;
  geo.out_channels = 1;
  const auto one_row = [](std::size_t w) {
    Tensor t(Shape{1, 1, 1, w});
    t.fill(1.0f);
    return t;
  };

  constexpr std::size_t kWidest = 65532;
  const PeExact pe(cfg.timing);
  isa::RowBlock block;
  block.kernel = 1;
  block.out_len = kWidest;
  const Tensor row = one_row(kWidest);
  const std::size_t cycles = pe.run_src(compress_row(row.flat()), block).cycles;
  ASSERT_EQ(cycles, std::size_t{std::numeric_limits<std::uint16_t>::max()});
  EXPECT_EQ(engine.run_forward(row, geo).cycles, cycles);

  const Tensor wider = one_row(kWidest + 1);
  EXPECT_THROW(engine.run_forward(wider, geo), ContractError);
}

TEST(ExactEngine, MoreGroupsShortenMakespan) {
  Rng rng(9);
  Tensor input(Shape{1, 4, 12, 12});
  input.fill_sparse_normal(rng, 0.5);
  ArchConfig small;
  small.pe_groups = 2;
  ArchConfig large;
  large.pe_groups = 16;
  const auto rs = ExactEngine(small).run_forward(input, geo_3x3(4, 8));
  const auto rl = ExactEngine(large).run_forward(input, geo_3x3(4, 8));
  EXPECT_GT(rs.cycles, rl.cycles);
  // Same total work either way.
  EXPECT_EQ(rs.activity.busy_cycles, rl.activity.busy_cycles);
  EXPECT_EQ(rs.activity.macs, rl.activity.macs);
}

// Regression for the empty-stage edge cases: a stage with zero scheduled
// row ops must report utilization 0, never NaN or a division by zero.
TEST(ExactEngine, EmptyStageUtilizationIsZeroNotNaN) {
  const ExactStageResult empty;
  EXPECT_EQ(empty.utilization(168), 0.0);
  EXPECT_EQ(empty.utilization(0), 0.0);

  ArchConfig cfg;
  ExactEngine engine(cfg);
  Rng rng(12);
  Tensor input(Shape{1, 2, 6, 6});
  input.fill_sparse_normal(rng, 0.5);
  Tensor zero_grad(Shape{1, 2, 6, 6});  // all zero → no GTW row ops
  const auto r = engine.run_gtw(zero_grad, input, geo_3x3(2, 2));
  EXPECT_EQ(r.row_ops, 0u);
  EXPECT_EQ(r.cycles, 0u);
  const double u = r.utilization(cfg.pe_groups * cfg.pes_per_group);
  EXPECT_FALSE(std::isnan(u));
  EXPECT_EQ(u, 0.0);

  // Busy stages still report sane utilization against any PE count.
  const auto f = engine.run_forward(input, geo_3x3(2, 2));
  EXPECT_GT(f.cycles, 0u);
  EXPECT_EQ(f.utilization(0), 0.0);
  EXPECT_GT(f.utilization(1), 0.0);
}

// The parallel tiling contract: results are byte-identical to the serial
// path for any worker count and any tile size, on all three stages.
TEST(ExactEngineParallel, IdenticalForAnyWorkersAndTileSize) {
  Rng rng(21);
  const auto geo = [] {
    auto g = geo_3x3(6, 12);
    g.kernel = 3;
    g.stride = 2;
    g.padding = 1;
    return g;
  }();
  Tensor input(Shape{2, 6, 24, 24});
  input.fill_sparse_normal(rng, 0.4);
  const Shape out_shape = dataflow::conv_output_shape(geo, input.shape());
  Tensor grad(out_shape);
  grad.fill_sparse_normal(rng, 0.3);
  Tensor mask(input.shape());
  mask.fill_sparse_normal(rng, 0.5);
  for (float& v : mask.flat())
    if (v != 0.0f) v = 1.0f;

  ArchConfig cfg;
  const ExactEngine serial(cfg);  // workers = 1: no pool at all
  const auto fwd = serial.run_forward(input, geo);
  const auto gta = serial.run_gta(grad, input.shape(), &mask, geo);
  const auto gtw = serial.run_gtw(grad, input, geo);
  EXPECT_GT(fwd.cycles, 0u);
  EXPECT_GT(gta.cycles, 0u);
  EXPECT_GT(gtw.cycles, 0u);

  for (const std::size_t workers :
       {std::size_t{2}, std::size_t{7}, std::size_t{8}}) {
    // tile 0 = adaptive sizing; 1000000 = one tile for the whole stage.
    for (const std::size_t tile :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
          std::size_t{1000000}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " tile=" + std::to_string(tile));
      ExactOptions opts;
      opts.workers = workers;
      opts.tile_tasks = tile;
      const ExactEngine parallel(cfg, opts);
      expect_identical(parallel.run_forward(input, geo), fwd);
      expect_identical(parallel.run_gta(grad, input.shape(), &mask, geo),
                       gta);
      expect_identical(parallel.run_gtw(grad, input, geo), gtw);
    }
  }
}

// Acceptance: a full-size AlexNet CONV layer (conv2 at ImageNet scale,
// 96→256 channels over 27×27, 5×5 kernel — the workload zoo geometry)
// simulates exactly with 4 workers, byte-identical to the serial path.
TEST(ExactEngineParallel, FullSizeAlexNetConvLayerMatchesSerial) {
  const workload::LayerConfig& l =
      workload::find_layer("AlexNet/ImageNet", "conv2");
  const dataflow::ConvGeometry geo = dataflow::layer_geometry(l);

  Rng rng(31);
  Tensor input(Shape{1, l.in_channels, l.in_h, l.in_w});
  input.fill_sparse_normal(rng, 0.35);
  Tensor grad(Shape{1, l.out_channels, l.out_h(), l.out_w()});
  grad.fill_sparse_normal(rng, 0.1);

  ArchConfig cfg;
  ExactOptions quad;
  quad.workers = 4;
  const ExactEngine serial(cfg);
  const ExactEngine parallel(cfg, quad);

  const auto fwd_s = serial.run_forward(input, geo);
  const auto fwd_p = parallel.run_forward(input, geo);
  EXPECT_GT(fwd_s.cycles, 0u);
  EXPECT_EQ(fwd_s.tasks,
            static_cast<std::size_t>(l.out_channels) * l.out_h());
  expect_identical(fwd_p, fwd_s);

  expect_identical(parallel.run_gtw(grad, input, geo),
                   serial.run_gtw(grad, input, geo));
}

// The cross-validation: statistical engine vs exact engine on matched
// workloads. The statistical model samples binomial nonzero counts from
// the measured densities, so stage cycles must agree within a few percent.
class StatVsExact : public ::testing::TestWithParam<double> {};

TEST_P(StatVsExact, ForwardCyclesAgree) {
  const double density = GetParam();
  Rng rng(42);
  const std::size_t C = 8, F = 16, H = 20, W = 20;
  Tensor input(Shape{1, C, H, W});
  input.fill_sparse_normal(rng, density);

  // Exact.
  ArchConfig cfg;
  const auto exact = ExactEngine(cfg).run_forward(input, [&] {
    dataflow::ConvGeometry g;
    g.in_channels = C;
    g.out_channels = F;
    return g;
  }());

  // Statistical: a one-layer workload with the measured density.
  workload::NetworkConfig net;
  net.name = "probe";
  workload::LayerConfig l;
  l.name = "conv";
  l.in_channels = C;
  l.in_h = H;
  l.in_w = W;
  l.out_channels = F;
  l.first_layer = true;
  net.layers = {l};
  std::vector<workload::LayerDensities> densities(1);
  densities[0].input_acts = input.density();
  const workload::SparsityProfile profile("measured", densities);
  compiler::CompileOptions opts;
  opts.gta = false;
  opts.gtw = false;
  const auto prog = compiler::compile(net, profile, opts);
  const auto stat = Accelerator(cfg).run(prog, net, profile);

  EXPECT_NEAR(static_cast<double>(stat.total_cycles),
              static_cast<double>(exact.cycles),
              0.08 * static_cast<double>(exact.cycles))
      << "density " << density;
  EXPECT_NEAR(static_cast<double>(stat.activity.macs),
              static_cast<double>(exact.activity.macs),
              0.10 * static_cast<double>(exact.activity.macs) + 100.0);
}

INSTANTIATE_TEST_SUITE_P(Densities, StatVsExact,
                         ::testing::Values(0.15, 0.35, 0.6, 0.9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "d" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

TEST(StatVsExactGtw, CyclesAgreeOnSparseSparse) {
  Rng rng(43);
  const std::size_t C = 6, F = 8, H = 16, W = 16;
  Tensor input(Shape{1, C, H, W});
  input.fill_sparse_normal(rng, 0.5);
  Tensor grad(Shape{1, F, H, W});
  grad.fill_sparse_normal(rng, 0.3);

  ArchConfig cfg;
  dataflow::ConvGeometry g;
  g.in_channels = C;
  g.out_channels = F;
  const auto exact = ExactEngine(cfg).run_gtw(grad, input, g);

  workload::NetworkConfig net;
  net.name = "probe";
  workload::LayerConfig l;
  l.name = "conv";
  l.in_channels = C;
  l.in_h = H;
  l.in_w = W;
  l.out_channels = F;
  l.first_layer = true;
  net.layers = {l};
  std::vector<workload::LayerDensities> densities(1);
  densities[0].input_acts = input.density();
  densities[0].output_grads = grad.density();
  const workload::SparsityProfile profile("measured", densities);
  compiler::CompileOptions opts;
  opts.forward = false;
  opts.gta = false;
  const auto prog = compiler::compile(net, profile, opts);
  const auto stat = Accelerator(cfg).run(prog, net, profile);

  // GTW's chunked cost is harder to approximate; 20% band.
  EXPECT_NEAR(static_cast<double>(stat.total_cycles),
              static_cast<double>(exact.cycles),
              0.20 * static_cast<double>(exact.cycles));
}

}  // namespace
}  // namespace sparsetrain::sim
