// Randomised equivalence fuzzing: the 1-D row decomposition must match the
// dense Conv2D layer for random geometries, shapes and sparsity patterns.
// This is the strongest correctness guarantee behind the simulator's work
// counting, so it gets dedicated property-style coverage beyond the fixed
// parameterised geometries in test_dataflow.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "compiler/compiler.hpp"
#include "dataflow/conv_decompose.hpp"
#include "nn/conv2d.hpp"
#include "sim/accelerator.hpp"
#include "sim/exact_engine.hpp"
#include "util/rng.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain::dataflow {
namespace {

struct FuzzCase {
  std::uint64_t seed;
};

class DataflowFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DataflowFuzz, AllThreeStagesMatchDense) {
  Rng rng(GetParam().seed);

  // Random geometry within simulator-realistic ranges.
  const std::size_t kernel = 1 + 2 * rng.uniform_index(3);     // 1, 3, 5
  const std::size_t stride = 1 + rng.uniform_index(2);         // 1, 2
  const std::size_t padding = rng.uniform_index(kernel);       // < K
  const std::size_t in_c = 1 + rng.uniform_index(3);
  const std::size_t out_c = 1 + rng.uniform_index(4);
  const std::size_t h = kernel + rng.uniform_index(8);
  const std::size_t w = kernel + rng.uniform_index(10);
  const std::size_t n = 1 + rng.uniform_index(2);
  const double in_density = 0.1 + 0.9 * rng.uniform();
  const double grad_density = 0.1 + 0.9 * rng.uniform();

  if (h + 2 * padding < kernel || w + 2 * padding < kernel) GTEST_SKIP();

  nn::Conv2DConfig cfg;
  cfg.in_channels = in_c;
  cfg.out_channels = out_c;
  cfg.kernel = kernel;
  cfg.stride = stride;
  cfg.padding = padding;
  cfg.bias = rng.bernoulli(0.5);
  nn::Conv2D conv(cfg);
  for (auto* p : conv.params()) p->value.fill_normal(rng, 0.0f, 0.4f);

  ConvGeometry geo;
  geo.in_channels = in_c;
  geo.out_channels = out_c;
  geo.kernel = kernel;
  geo.stride = stride;
  geo.padding = padding;

  Tensor input(Shape{n, in_c, h, w});
  input.fill_sparse_normal(rng, in_density);

  // Forward.
  const Tensor dense_out = conv.forward(input, true);
  const Tensor row_out =
      forward_by_rows(input, conv.weight().value,
                      cfg.bias ? &conv.bias_param().value : nullptr, geo);
  ASSERT_EQ(dense_out.shape(), row_out.shape());
  EXPECT_LT(max_abs_diff(dense_out, row_out), 1e-3f)
      << "k=" << kernel << " s=" << stride << " p=" << padding;

  // Backward operand.
  Tensor grad_out(dense_out.shape());
  grad_out.fill_sparse_normal(rng, grad_density);

  const Tensor dense_dI = conv.backward(grad_out);
  const Tensor row_dI = gta_by_rows(grad_out, conv.weight().value,
                                    input.shape(), nullptr, geo);
  EXPECT_LT(max_abs_diff(dense_dI, row_dI), 1e-3f);

  Tensor dbias(Shape::vec(out_c));
  const Tensor row_dW = gtw_by_rows(grad_out, input, &dbias, geo);
  EXPECT_LT(max_abs_diff(conv.weight().grad, row_dW), 1e-3f);
  if (cfg.bias) {
    EXPECT_LT(max_abs_diff(conv.bias_param().grad, dbias), 1e-3f);
  }
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t s = 1; s <= 24; ++s) cases.push_back({s * 7919});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowFuzz,
                         ::testing::ValuesIn(fuzz_cases()),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// Odd-geometry fuzz: randomized degenerate geometries — stride > kernel,
// padding == kernel, 1×N and N×1 spatial inputs, 1×1 kernels — run
// through BOTH engines. The functional row decomposition must still match
// the dense conv; the exact engine must be byte-identical serial vs
// parallel and agree with the dataflow work counters; the statistical
// engine must stay finite/sane on geometries its closed forms were never
// tuned for. Each case logs its seed for reproduction.
class OddGeometryFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(OddGeometryFuzz, BothEnginesSurviveDegenerateGeometries) {
  const std::uint64_t seed = GetParam().seed;
  Rng rng(seed);

  const std::size_t kernel = 1 + rng.uniform_index(3);       // 1..3
  const std::size_t stride = 1 + rng.uniform_index(4);       // 1..4 (> K!)
  const std::size_t padding = rng.uniform_index(kernel + 1); // 0..K (== K!)
  const std::size_t in_c = 1 + rng.uniform_index(3);
  const std::size_t out_c = 1 + rng.uniform_index(4);
  std::size_t h = 6 + rng.uniform_index(10);
  std::size_t w = 6 + rng.uniform_index(10);
  switch (rng.uniform_index(3)) {
    case 0: h = 1; break;  // 1×N input rows
    case 1: w = 1; break;  // N×1 input rows
    default: break;
  }
  const double in_density = 0.1 + 0.8 * rng.uniform();
  const double grad_density = 0.1 + 0.8 * rng.uniform();

  if (h + 2 * padding < kernel || w + 2 * padding < kernel) GTEST_SKIP();

  SCOPED_TRACE("seed=" + std::to_string(seed) + " k=" +
               std::to_string(kernel) + " s=" + std::to_string(stride) +
               " p=" + std::to_string(padding) + " c=" +
               std::to_string(in_c) + " f=" + std::to_string(out_c) +
               " h=" + std::to_string(h) + " w=" + std::to_string(w));

  workload::LayerConfig layer;
  layer.name = "conv";
  layer.in_channels = in_c;
  layer.in_h = h;
  layer.in_w = w;
  layer.out_channels = out_c;
  layer.kernel = kernel;
  layer.stride = stride;
  layer.padding = padding;
  const ConvGeometry geo = layer_geometry(layer);

  Tensor input(Shape{1, in_c, h, w});
  input.fill_sparse_normal(rng, in_density);

  // 1) Functional: the row decomposition still matches the dense conv.
  nn::Conv2DConfig ccfg;
  ccfg.in_channels = in_c;
  ccfg.out_channels = out_c;
  ccfg.kernel = kernel;
  ccfg.stride = stride;
  ccfg.padding = padding;
  ccfg.bias = false;
  nn::Conv2D conv(ccfg);
  for (auto* p : conv.params()) p->value.fill_normal(rng, 0.0f, 0.4f);

  const Tensor dense_out = conv.forward(input, true);
  const Tensor row_out =
      forward_by_rows(input, conv.weight().value, nullptr, geo);
  ASSERT_EQ(dense_out.shape(), row_out.shape());
  EXPECT_LT(max_abs_diff(dense_out, row_out), 1e-3f);

  Tensor grad(dense_out.shape());
  grad.fill_sparse_normal(rng, grad_density);
  const Tensor dense_dI = conv.backward(grad);
  const Tensor row_dI =
      gta_by_rows(grad, conv.weight().value, input.shape(), nullptr, geo);
  EXPECT_LT(max_abs_diff(dense_dI, row_dI), 1e-3f);
  const Tensor row_dW = gtw_by_rows(grad, input, nullptr, geo);
  EXPECT_LT(max_abs_diff(conv.weight().grad, row_dW), 1e-3f);

  // 2) Exact engine: parallel tiles byte-identical to serial, and the
  // stepped MAC counts equal the dataflow ground-truth work.
  sim::ArchConfig acfg;
  acfg.pe_groups = 4;
  const sim::ExactEngine serial(acfg);
  sim::ExactOptions popts;
  popts.workers = 3;
  popts.tile_tasks = 2;
  const sim::ExactEngine parallel(acfg, popts);

  const auto fwd = serial.run_forward(input, geo);
  const auto gta = serial.run_gta(grad, input.shape(), nullptr, geo);
  const auto gtw = serial.run_gtw(grad, input, geo);
  const auto fwd_p = parallel.run_forward(input, geo);
  const auto gta_p = parallel.run_gta(grad, input.shape(), nullptr, geo);
  const auto gtw_p = parallel.run_gtw(grad, input, geo);
  EXPECT_EQ(fwd.cycles, fwd_p.cycles);
  EXPECT_EQ(fwd.activity.busy_cycles, fwd_p.activity.busy_cycles);
  EXPECT_EQ(gta.cycles, gta_p.cycles);
  EXPECT_EQ(gta.activity.busy_cycles, gta_p.activity.busy_cycles);
  EXPECT_EQ(gtw.cycles, gtw_p.cycles);
  EXPECT_EQ(gtw.activity.busy_cycles, gtw_p.activity.busy_cycles);

  EXPECT_EQ(fwd.activity.macs, forward_work(input, geo).work.macs);
  EXPECT_EQ(gta.activity.macs,
            gta_work(grad, input.shape(), nullptr, geo).work.macs);
  EXPECT_EQ(gtw.activity.macs, gtw_work(grad, input, geo).work.macs);

  // Masked GTA: the engine's stage-wide MAC table must count what the
  // per-op mask windows of gta_work count.
  const double mask_density = 0.1 + 0.8 * rng.uniform();
  Tensor mask(input.shape());
  mask.fill_sparse_normal(rng, mask_density);
  for (float& v : mask.flat())
    if (v != 0.0f) v = 1.0f;
  const auto gta_m = serial.run_gta(grad, input.shape(), &mask, geo);
  const auto gta_mp = parallel.run_gta(grad, input.shape(), &mask, geo);
  EXPECT_EQ(gta_m.cycles, gta_mp.cycles);
  EXPECT_EQ(gta_m.activity.busy_cycles, gta_mp.activity.busy_cycles);
  EXPECT_EQ(gta_m.activity.macs,
            gta_work(grad, input.shape(), &mask, geo).work.macs);

  // 3) Statistical engine: compiles and runs sanely on the same geometry
  // with the measured densities (no NaN, bounded utilization, and within
  // a coarse band of the exact ground truth — degenerate padding can
  // legitimately skew its homogeneous-block approximation).
  workload::NetworkConfig net;
  net.name = "fuzz-probe";
  net.layers = {layer};
  std::vector<workload::LayerDensities> densities(1);
  densities[0].input_acts = input.density();
  densities[0].output_grads = grad.density();
  const workload::SparsityProfile profile("measured", densities);
  const auto prog = compiler::compile(net, profile, {});
  const auto stat = sim::Accelerator(acfg).run(prog, net, profile, seed);

  const double stat_cycles = static_cast<double>(stat.total_cycles);
  const double exact_cycles =
      static_cast<double>(fwd.cycles + gta.cycles + gtw.cycles);
  EXPECT_TRUE(std::isfinite(stat_cycles));
  EXPECT_GT(stat.total_cycles, 0u);
  EXPECT_GE(stat.utilization(), 0.0);
  EXPECT_LE(stat.utilization(), 1.0);
  EXPECT_LE(stat_cycles, 4.0 * exact_cycles + 500.0);
  EXPECT_GE(stat_cycles, exact_cycles / 4.0 - 500.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OddGeometryFuzz,
                         ::testing::ValuesIn([] {
                           std::vector<FuzzCase> cases;
                           for (std::uint64_t s = 1; s <= 20; ++s)
                             cases.push_back({s * 15485863});
                           return cases;
                         }()),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// Sparse-row representation round-trip fuzz.
class SparseRowFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SparseRowFuzz, RoundTripAndInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::size_t len = rng.uniform_index(200);
  std::vector<float> dense(len, 0.0f);
  const double density = rng.uniform();
  for (auto& x : dense)
    if (rng.bernoulli(density)) x = static_cast<float>(rng.normal());

  const SparseRow row = compress_row(dense);
  EXPECT_TRUE(row.valid());
  EXPECT_EQ(decompress_row(row), dense);
  EXPECT_EQ(row.length, len);
  // Bytes are monotone in nnz and bounded below by the descriptor+bitmap.
  EXPECT_GE(row.encoded_bytes(), 2 + (len + 7) / 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRowFuzz, ::testing::Range(1, 21));

}  // namespace
}  // namespace sparsetrain::dataflow
