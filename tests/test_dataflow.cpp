// Dataflow tests: the SRC/MSRC/OSRC row ops and the proof that the 1-D
// decomposition reproduces the dense conv layer's Forward/GTA/GTW results.
#include <gtest/gtest.h>

#include "dataflow/conv_decompose.hpp"
#include "dataflow/row_ops.hpp"
#include "nn/conv2d.hpp"
#include "nn/relu.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace sparsetrain::dataflow {
namespace {

SparseRow sparse_from(const std::vector<float>& dense) {
  return compress_row(dense);
}

TEST(SrcRowConv, DenseEquivalence) {
  // in = [1 0 2 0 3], K=3, S=1, P=1: out[ox] = Σ ker[k]·in[ox+k−1].
  const std::vector<float> in = {1, 0, 2, 0, 3};
  const std::vector<float> ker = {0.5f, 1.0f, -1.0f};
  RowGeometry geo{3, 1, 1};
  std::vector<float> out(5, 0.0f);
  src_row_conv(sparse_from(in), ker, geo, out);
  for (std::size_t ox = 0; ox < 5; ++ox) {
    float expect = 0.0f;
    for (std::size_t k = 0; k < 3; ++k) {
      const std::int64_t ip = static_cast<std::int64_t>(ox + k) - 1;
      if (ip >= 0 && ip < 5) expect += ker[k] * in[static_cast<size_t>(ip)];
    }
    EXPECT_FLOAT_EQ(out[ox], expect) << "ox=" << ox;
  }
}

TEST(SrcRowConv, StridedMapping) {
  const std::vector<float> in = {1, 2, 3, 4, 5, 6};
  const std::vector<float> ker = {1.0f, 1.0f, 1.0f};
  RowGeometry geo{3, 2, 0};
  std::vector<float> out(2, 0.0f);  // floor((6-3)/2)+1 = 2
  src_row_conv(sparse_from(in), ker, geo, out);
  EXPECT_FLOAT_EQ(out[0], 1 + 2 + 3);
  EXPECT_FLOAT_EQ(out[1], 3 + 4 + 5);
}

TEST(SrcRowConv, SkipsZeros) {
  // Work counting: only nonzeros contribute cycles.
  const std::vector<float> in = {0, 0, 5, 0, 0, 0, 7, 0};
  RowGeometry geo{3, 1, 1};
  const RowOpWork w = src_work(sparse_from(in), geo, 8);
  EXPECT_EQ(w.active_inputs, 2u);
  EXPECT_EQ(w.macs, 6u);  // each nonzero touches K=3 outputs (interior)
}

TEST(SrcRowConv, RejectsWrongKernelLength) {
  RowGeometry geo{3, 1, 1};
  std::vector<float> out(4, 0.0f);
  const std::vector<float> ker = {1.0f};
  EXPECT_THROW(src_row_conv(sparse_from({1, 2, 3, 4}), ker, geo, out),
               ContractError);
}

TEST(MsrcRowConv, MaskSkipsForcedZeros) {
  const std::vector<float> in = {1, 0, 2, 0};
  const std::vector<float> ker = {1.0f, 1.0f, 1.0f};
  RowGeometry geo{3, 1, 1};

  // Full mask: plain scatter.
  std::vector<float> out_full(4, 0.0f);
  msrc_row_conv(sparse_from(in), ker, bitmask_all(4), geo, out_full);

  // Restricted mask: only position 1 allowed.
  std::vector<float> out_masked(4, 0.0f);
  const BitMask restricted = bitmask_from_dense(std::vector<float>{0, 1, 0, 0});
  msrc_row_conv(sparse_from(in), ker, restricted, geo, out_masked);

  EXPECT_FLOAT_EQ(out_masked[1], out_full[1]);
  EXPECT_FLOAT_EQ(out_masked[0], 0.0f);
  EXPECT_FLOAT_EQ(out_masked[2], 0.0f);
  EXPECT_FLOAT_EQ(out_masked[3], 0.0f);
}

TEST(MsrcRowConv, WorkCountsLookAheadSkips) {
  // An input whose entire output window is masked costs zero cycles.
  const std::vector<float> in = {1, 0, 0, 0, 0, 0, 0, 2};
  RowGeometry geo{3, 1, 1};
  // Only the tail is allowed.
  const BitMask mask =
      bitmask_from_dense(std::vector<float>{0, 0, 0, 0, 0, 0, 1, 1});
  const RowOpWork w = msrc_work(sparse_from(in), mask, geo, 8);
  EXPECT_EQ(w.skipped_inputs, 1u);  // position 0's window {0,1} all masked
  EXPECT_EQ(w.active_inputs, 1u);   // position 7 writes 6,7(,8 oob)
  EXPECT_EQ(w.macs, 2u);
}

TEST(MsrcRowConv, MaskLengthChecked) {
  RowGeometry geo{3, 1, 1};
  const BitMask mask = bitmask_all(3);
  std::vector<float> out(4, 0.0f);
  const std::vector<float> ker = {1.0f, 1.0f, 1.0f};
  EXPECT_THROW(msrc_row_conv(sparse_from({1, 0, 0, 0}), ker, mask, geo, out),
               ContractError);
}

TEST(OsrcRowConv, ComputesKernelCorrelation) {
  // dw[k] = Σ_ox dO[ox] · I[ox + k − 1] with S=1, P=1.
  const std::vector<float> I = {1, 2, 3, 4, 5};
  const std::vector<float> dO = {0, 1, 0, 2, 0};
  RowGeometry geo{3, 1, 1};
  std::vector<float> dw(3, 0.0f);
  osrc_row_conv(sparse_from(I), sparse_from(dO), geo, dw);
  // dw[k] = dO[1]·I[k] + dO[3]·I[2+k]
  EXPECT_FLOAT_EQ(dw[0], 1 * 1 + 2 * 3);
  EXPECT_FLOAT_EQ(dw[1], 1 * 2 + 2 * 4);
  EXPECT_FLOAT_EQ(dw[2], 1 * 3 + 2 * 5);
}

TEST(OsrcRowConv, SparseSparseProductWork) {
  // Work scales with pairs of overlapping nonzeros, not row length.
  std::vector<float> I(100, 0.0f), dO(100, 0.0f);
  I[10] = 1.0f;
  I[50] = 2.0f;
  dO[10] = 3.0f;  // only dO[10] overlaps I[10]'s window (K=3,P=1)
  RowGeometry geo{3, 1, 1};
  const RowOpWork w = osrc_work(sparse_from(I), sparse_from(dO), geo);
  EXPECT_EQ(w.active_inputs, 1u);
  EXPECT_EQ(w.macs, 1u);  // I[10] aligns with dO[10] at k=1 only
}

TEST(OsrcRowConv, EmptyOperandsNoWork) {
  RowGeometry geo{3, 1, 1};
  std::vector<float> dw(3, 0.0f);
  osrc_row_conv(sparse_from({0, 0, 0}), sparse_from({0, 0, 0}), geo, dw);
  EXPECT_FLOAT_EQ(dw[0] + dw[1] + dw[2], 0.0f);
  const RowOpWork w = osrc_work(sparse_from({0, 0, 0}), sparse_from({0, 0, 0}),
                                geo);
  EXPECT_EQ(w.macs, 0u);
}

// ---------------------------------------------------------------------------
// Stage-level equivalence against the dense Conv2D layer, parameterized
// over geometry (kernel, stride, padding).

struct GeoParam {
  std::size_t kernel, stride, padding;
};

class DecomposeEquivalence : public ::testing::TestWithParam<GeoParam> {};

nn::Conv2DConfig to_nn_cfg(const GeoParam& p, std::size_t in_c,
                           std::size_t out_c) {
  nn::Conv2DConfig cfg;
  cfg.in_channels = in_c;
  cfg.out_channels = out_c;
  cfg.kernel = p.kernel;
  cfg.stride = p.stride;
  cfg.padding = p.padding;
  cfg.bias = true;
  return cfg;
}

ConvGeometry to_geo(const GeoParam& p, std::size_t in_c, std::size_t out_c) {
  ConvGeometry geo;
  geo.in_channels = in_c;
  geo.out_channels = out_c;
  geo.kernel = p.kernel;
  geo.stride = p.stride;
  geo.padding = p.padding;
  return geo;
}

TEST_P(DecomposeEquivalence, ForwardMatchesDenseConv) {
  const GeoParam p = GetParam();
  Rng rng(91);
  nn::Conv2D conv(to_nn_cfg(p, 2, 3));
  for (auto* param : conv.params()) param->value.fill_normal(rng, 0.0f, 0.5f);

  Tensor in(Shape{2, 2, 7, 7});
  in.fill_sparse_normal(rng, 0.5);  // exercise the sparse path
  const Tensor dense_out = conv.forward(in, false);
  const Tensor row_out = forward_by_rows(in, conv.weight().value,
                                         &conv.bias_param().value,
                                         to_geo(p, 2, 3));
  EXPECT_LT(max_abs_diff(dense_out, row_out), 1e-4f);
}

TEST_P(DecomposeEquivalence, GtaMatchesDenseConv) {
  const GeoParam p = GetParam();
  Rng rng(92);
  nn::Conv2D conv(to_nn_cfg(p, 2, 3));
  for (auto* param : conv.params()) param->value.fill_normal(rng, 0.0f, 0.5f);

  Tensor in(Shape{1, 2, 7, 7});
  in.fill_normal(rng, 0.0f, 1.0f);
  (void)conv.forward(in, true);
  Tensor grad_out(conv.output_shape(in.shape()));
  grad_out.fill_sparse_normal(rng, 0.4);

  const Tensor dense_dI = conv.backward(grad_out);
  const Tensor row_dI = gta_by_rows(grad_out, conv.weight().value, in.shape(),
                                    /*prev_mask=*/nullptr, to_geo(p, 2, 3));
  EXPECT_LT(max_abs_diff(dense_dI, row_dI), 1e-4f);
}

TEST_P(DecomposeEquivalence, GtwMatchesDenseConv) {
  const GeoParam p = GetParam();
  Rng rng(93);
  nn::Conv2D conv(to_nn_cfg(p, 2, 3));
  for (auto* param : conv.params()) param->value.fill_normal(rng, 0.0f, 0.5f);

  Tensor in(Shape{1, 2, 7, 7});
  in.fill_sparse_normal(rng, 0.6);
  (void)conv.forward(in, true);
  Tensor grad_out(conv.output_shape(in.shape()));
  grad_out.fill_sparse_normal(rng, 0.4);
  (void)conv.backward(grad_out);  // accumulates conv.weight().grad

  Tensor dbias(Shape::vec(3));
  const Tensor row_dW =
      gtw_by_rows(grad_out, in, &dbias, to_geo(p, 2, 3));
  EXPECT_LT(max_abs_diff(conv.weight().grad, row_dW), 1e-4f);
  EXPECT_LT(max_abs_diff(conv.bias_param().grad, dbias), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DecomposeEquivalence,
    ::testing::Values(GeoParam{3, 1, 1}, GeoParam{3, 2, 1}, GeoParam{1, 1, 0},
                      GeoParam{5, 1, 2}, GeoParam{3, 1, 0}, GeoParam{1, 2, 0}),
    [](const ::testing::TestParamInfo<GeoParam>& info) {
      const GeoParam& p = info.param;
      return "k" + std::to_string(p.kernel) + "s" + std::to_string(p.stride) +
             "p" + std::to_string(p.padding);
    });

TEST(GtaMasked, MaskedPositionsAreZeroAndOthersMatch) {
  // GTA with the previous layer's ReLU mask: allowed positions match the
  // unmasked result; disallowed positions are exactly zero (their values
  // would be discarded by the mask anyway).
  Rng rng(94);
  ConvGeometry geo;
  geo.in_channels = 2;
  geo.out_channels = 3;
  Tensor weights(Shape{3, 2, 3, 3});
  weights.fill_normal(rng, 0.0f, 0.5f);

  const Shape in_shape{1, 2, 6, 6};
  Tensor grad_out(Shape{1, 3, 6, 6});
  grad_out.fill_sparse_normal(rng, 0.5);
  Tensor mask(in_shape);
  mask.fill_sparse_normal(rng, 0.5);
  for (float& v : mask.flat())
    if (v != 0.0f) v = 1.0f;

  const Tensor unmasked =
      gta_by_rows(grad_out, weights, in_shape, nullptr, geo);
  const Tensor masked = gta_by_rows(grad_out, weights, in_shape, &mask, geo);

  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (mask[i] != 0.0f) {
      EXPECT_NEAR(masked[i], unmasked[i], 1e-5f);
    } else {
      EXPECT_EQ(masked[i], 0.0f);
    }
  }
}

TEST(GtaMasked, MatchesConvThenReluBackward) {
  // End-to-end check of the paper's GTA optimisation: computing the conv
  // backward only at mask-allowed positions equals computing it densely
  // and then applying the ReLU mask of the *previous* layer.
  Rng rng(95);
  nn::Conv2DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  nn::Conv2D conv(cfg);
  for (auto* p : conv.params()) p->value.fill_normal(rng, 0.0f, 0.5f);
  nn::ReLU prev_relu;

  Tensor pre_act(Shape{1, 2, 6, 6});
  pre_act.fill_normal(rng, 0.0f, 1.0f);
  const Tensor acts = prev_relu.forward(pre_act, true);
  (void)conv.forward(acts, true);
  Tensor grad_out(conv.output_shape(acts.shape()));
  grad_out.fill_sparse_normal(rng, 0.5);

  // Dense path: conv backward then ReLU backward.
  const Tensor dI_dense = conv.backward(grad_out);
  const Tensor d_pre_dense = prev_relu.backward(dI_dense);

  // Masked row path then the (now free) mask multiply.
  ConvGeometry geo;
  geo.in_channels = 2;
  geo.out_channels = 2;
  const Tensor mask = prev_relu.mask();
  const Tensor dI_masked =
      gta_by_rows(grad_out, conv.weight().value, acts.shape(), &mask, geo);
  const Tensor d_pre_masked = prev_relu.backward(dI_masked);
  EXPECT_LT(max_abs_diff(d_pre_dense, d_pre_masked), 1e-4f);
}

TEST(StageWorkCounts, SparserInputMeansLessWork) {
  Rng rng(96);
  ConvGeometry geo;
  geo.in_channels = 2;
  geo.out_channels = 2;

  Tensor dense_in(Shape{1, 2, 8, 8});
  dense_in.fill_normal(rng, 0.0f, 1.0f);
  Tensor sparse_in(Shape{1, 2, 8, 8});
  sparse_in.fill_sparse_normal(rng, 0.3);

  const StageWork wd = forward_work(dense_in, geo);
  const StageWork ws = forward_work(sparse_in, geo);
  EXPECT_EQ(wd.row_ops, ws.row_ops);  // same schedule, less work
  EXPECT_GT(wd.work.macs, ws.work.macs);
  EXPECT_GT(wd.work.active_inputs, ws.work.active_inputs);
}

TEST(StageWorkCounts, GtwWorkScalesWithBothDensities) {
  Rng rng(97);
  ConvGeometry geo;
  geo.in_channels = 1;
  geo.out_channels = 1;
  Tensor in_dense(Shape{1, 1, 10, 10});
  in_dense.fill_normal(rng, 0.0f, 1.0f);
  Tensor in_sparse(Shape{1, 1, 10, 10});
  in_sparse.fill_sparse_normal(rng, 0.3);
  Tensor go_dense(Shape{1, 1, 10, 10});
  go_dense.fill_normal(rng, 0.0f, 1.0f);
  Tensor go_sparse(Shape{1, 1, 10, 10});
  go_sparse.fill_sparse_normal(rng, 0.3);

  const auto w_dd = gtw_work(go_dense, in_dense, geo).work.macs;
  const auto w_sd = gtw_work(go_sparse, in_dense, geo).work.macs;
  const auto w_ss = gtw_work(go_sparse, in_sparse, geo).work.macs;
  EXPECT_GT(w_dd, w_sd);
  EXPECT_GT(w_sd, w_ss);  // the sparse×sparse product effect
}

}  // namespace
}  // namespace sparsetrain::dataflow
