// Tests for the classic-AlexNet extras: LRN, Dropout and the classic
// model builder.
#include <gtest/gtest.h>

#include "nn/dropout.hpp"
#include "nn/lrn.hpp"
#include "nn/models/model_builder.hpp"
#include "nn/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/init.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace sparsetrain::nn {
namespace {

float weighted_sum(const Tensor& out, const Tensor& coeffs) {
  float s = 0.0f;
  for (std::size_t i = 0; i < out.size(); ++i) s += out[i] * coeffs[i];
  return s;
}

TEST(LrnLayer, UnitWindowMatchesFormula) {
  LrnConfig cfg;
  cfg.size = 1;
  cfg.alpha = 1.0f;
  cfg.beta = 1.0f;
  cfg.k = 1.0f;
  Lrn lrn(cfg);
  Tensor in(Shape{1, 1, 1, 1}, {2.0f});
  const Tensor out = lrn.forward(in, false);
  // b = a / (k + α·a²) = 2 / (1 + 4) = 0.4
  EXPECT_NEAR(out[0], 0.4f, 1e-6f);
}

TEST(LrnLayer, NormalisesAcrossChannelsOnly) {
  Lrn lrn;
  Rng rng(61);
  Tensor in(Shape{1, 4, 2, 2});
  in.fill_normal(rng, 0.0f, 1.0f);
  const Tensor out = lrn.forward(in, false);
  EXPECT_EQ(out.shape(), in.shape());
  // Output magnitude never exceeds input magnitude (denominator ≥ k = 2 > 1
  // raised to β > 0 keeps |b| < |a|).
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_LE(std::abs(out[i]), std::abs(in[i]) + 1e-6f);
}

TEST(LrnLayer, GradientsMatchFiniteDifference) {
  Lrn lrn;
  Rng rng(62);
  Tensor in(Shape{1, 3, 3, 3});
  in.fill_normal(rng, 0.0f, 1.0f);
  const Tensor out = lrn.forward(in, true);
  Tensor coeffs(out.shape());
  coeffs.fill_normal(rng, 0.0f, 1.0f);
  const Tensor grad = lrn.backward(coeffs);

  const float eps = 1e-2f;
  for (std::size_t i = 0; i < in.size(); i += 3) {
    Tensor plus = in, minus = in;
    plus[i] += eps;
    minus[i] -= eps;
    const float fp = weighted_sum(lrn.forward(plus, true), coeffs);
    const float fm = weighted_sum(lrn.forward(minus, true), coeffs);
    EXPECT_NEAR(grad[i], (fp - fm) / (2 * eps), 2e-2f) << "index " << i;
  }
}

TEST(DropoutLayer, EvalModeIsIdentity) {
  Dropout drop(0.5f, Rng(63));
  Rng rng(64);
  Tensor in(Shape::vec(100));
  in.fill_normal(rng, 0.0f, 1.0f);
  const Tensor out = drop.forward(in, false);
  EXPECT_TRUE(allclose(out, in));
}

TEST(DropoutLayer, TrainingDropsAtConfiguredRate) {
  Dropout drop(0.3f, Rng(65));
  Tensor in(Shape::vec(20000));
  in.fill(1.0f);
  const Tensor out = drop.forward(in, true);
  const double kept =
      static_cast<double>(out.nnz()) / static_cast<double>(out.size());
  EXPECT_NEAR(kept, 0.7, 0.02);
  // Survivors are scaled to preserve the expectation.
  double sum = 0.0;
  for (float x : out.flat()) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(out.size()), 1.0, 0.05);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  Dropout drop(0.5f, Rng(66));
  Tensor in(Shape::vec(1000));
  in.fill(1.0f);
  const Tensor out = drop.forward(in, true);
  Tensor g(Shape::vec(1000));
  g.fill(1.0f);
  const Tensor gi = drop.backward(g);
  // Gradient flows exactly where activations survived.
  for (std::size_t i = 0; i < 1000; ++i)
    EXPECT_FLOAT_EQ(gi[i], out[i]);
}

TEST(DropoutLayer, RejectsInvalidRate) {
  EXPECT_THROW(Dropout(1.0f, Rng(1)), ContractError);
  EXPECT_THROW(Dropout(-0.1f, Rng(1)), ContractError);
}

TEST(ClassicAlexNet, BuildsAndTrains) {
  data::SyntheticConfig dcfg;
  dcfg.classes = 3;
  dcfg.samples = 72;
  dcfg.height = 16;
  dcfg.width = 16;
  dcfg.seed = 67;
  const data::SyntheticDataset train(dcfg);

  models::ModelInput mi{dcfg.channels, dcfg.height, dcfg.width, dcfg.classes};
  auto net = models::alexnet_s_classic(mi, 6);
  Rng rng(68);
  kaiming_init(*net, rng);

  TrainConfig tcfg;
  tcfg.batch_size = 12;
  tcfg.epochs = 4;
  tcfg.sgd.learning_rate = 0.03f;
  Trainer trainer(*net, tcfg);
  const TrainResult r = trainer.fit(train, train);
  EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
}

TEST(ClassicAlexNet, StructureWalkerStillFindsConvReLU) {
  // LRN sits between conv and pool, but conv is still not followed by BN →
  // the dI pruning position applies.
  auto net = models::alexnet_s_classic(models::ModelInput{}, 6);
  std::size_t convs = 0, with_bn = 0;
  net->for_each_conv_structure([&](Conv2D&, bool bn) {
    ++convs;
    if (bn) ++with_bn;
  });
  EXPECT_EQ(convs, 3u);
  EXPECT_EQ(with_bn, 0u);
}

}  // namespace
}  // namespace sparsetrain::nn
