// Integration tests: pruners attached to real networks during training —
// correct positions, sparsity actually produced, accuracy preserved.
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling_misc.hpp"
#include "nn/relu.hpp"
#include "nn/sequential.hpp"
#include "nn/init.hpp"
#include "nn/models/model_builder.hpp"
#include "nn/trainer.hpp"
#include "pruning/attach.hpp"
#include "pruning/sparsity_meter.hpp"
#include "util/rng.hpp"

namespace sparsetrain::pruning {
namespace {

using nn::models::ModelInput;

TEST(Attach, AlexNetUsesInputGradPosition) {
  // AlexNet has no BN → every attached pruner sits at the CONV-ReLU (dI)
  // position. Verify via the structure walker directly.
  auto net = nn::models::alexnet_s(ModelInput{}, 8);
  std::size_t convs = 0, with_bn = 0;
  net->for_each_conv_structure([&](nn::Conv2D&, bool bn) {
    ++convs;
    if (bn) ++with_bn;
  });
  EXPECT_EQ(convs, 4u);
  EXPECT_EQ(with_bn, 0u);
}

TEST(Attach, ResNetUsesOutputGradPosition) {
  auto net = nn::models::resnet_s(ModelInput{}, 1, 4);
  std::size_t convs = 0, with_bn = 0;
  net->for_each_conv_structure([&](nn::Conv2D&, bool bn) {
    ++convs;
    if (bn) ++with_bn;
  });
  EXPECT_EQ(convs, 9u);
  EXPECT_EQ(with_bn, 9u);  // every ResNet conv is followed by BN
}

TEST(Attach, SkipsFirstConvByDefault) {
  auto net = nn::models::alexnet_s(ModelInput{}, 8);
  Rng rng(71);
  const AttachedPruners attached =
      attach_gradient_pruners(*net, PruningConfig{}, rng);
  EXPECT_EQ(attached.pruners.size(), 3u);  // 4 convs − skipped first

  Rng rng2(71);
  auto net2 = nn::models::alexnet_s(ModelInput{}, 8);
  const AttachedPruners all =
      attach_gradient_pruners(*net2, PruningConfig{}, rng2,
                              /*skip_first_conv=*/false);
  EXPECT_EQ(all.pruners.size(), 4u);
}

TEST(Attach, TrainingProducesSparseGradients) {
  data::SyntheticConfig dcfg;
  dcfg.classes = 4;
  dcfg.samples = 96;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.seed = 73;
  const data::SyntheticDataset train(dcfg);

  ModelInput mi{dcfg.channels, dcfg.height, dcfg.width, dcfg.classes};
  auto net = nn::models::tiny_cnn(mi, 6);
  Rng rng(74);
  nn::kaiming_init(*net, rng);

  PruningConfig pcfg;
  pcfg.target_sparsity = 0.9;
  pcfg.fifo_depth = 2;
  const AttachedPruners attached = attach_gradient_pruners(*net, pcfg, rng);
  ASSERT_EQ(attached.pruners.size(), 1u);

  nn::TrainConfig tcfg;
  tcfg.batch_size = 12;
  tcfg.epochs = 4;
  tcfg.sgd.learning_rate = 0.05f;
  nn::Trainer trainer(*net, tcfg);
  (void)trainer.fit(train, train);

  // After warm-up the pruner must be active and producing sparsity.
  EXPECT_GT(attached.pruners[0]->batches(), pcfg.fifo_depth);
  EXPECT_GT(attached.pruners[0]->last_predicted_threshold(), 0.0);
  EXPECT_LT(attached.mean_last_density(), 0.6);
}

TEST(Attach, PrunedTrainingMatchesBaselineAccuracy) {
  // The paper's central algorithmic claim at miniature scale: training with
  // p = 0.9 gradient pruning reaches (approximately) baseline accuracy.
  data::SyntheticConfig dcfg;
  dcfg.classes = 4;
  dcfg.samples = 160;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.noise = 0.3f;
  dcfg.seed = 75;
  const data::SyntheticDataset train(dcfg);
  const data::SyntheticDataset test = train.held_out(80, 76);
  const ModelInput mi{dcfg.channels, dcfg.height, dcfg.width, dcfg.classes};

  auto run = [&](bool prune) {
    auto net = nn::models::tiny_cnn(mi, 6);
    Rng rng(77);
    nn::kaiming_init(*net, rng);
    AttachedPruners attached;
    if (prune) {
      PruningConfig pcfg;
      pcfg.target_sparsity = 0.9;
      pcfg.fifo_depth = 2;
      attached = attach_gradient_pruners(*net, pcfg, rng);
    }
    nn::TrainConfig tcfg;
    tcfg.batch_size = 16;
    tcfg.epochs = 6;
    tcfg.sgd.learning_rate = 0.05f;
    nn::Trainer trainer(*net, tcfg);
    return trainer.fit(train, test).test_accuracy;
  };

  const double base_acc = run(false);
  const double pruned_acc = run(true);
  EXPECT_GT(base_acc, 0.7);
  // Within a few points of baseline (generous band for the tiny setup).
  EXPECT_GT(pruned_acc, base_acc - 0.15);
}

TEST(SparsityMeterTest, RecordsSixDensities) {
  SparsityMeter meter;
  nn::ConvStepDensities d;
  d.weights = 1.0;
  d.weight_grads = 0.9;
  d.input_acts = 0.4;
  d.input_grads = 0.8;
  d.output_acts = 1.0;
  d.output_grads = 0.3;
  meter.record("conv1", d);
  meter.record("conv1", d);
  meter.record("conv2", d);

  const auto sums = meter.summaries();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0].layer, "conv1");
  EXPECT_EQ(sums[0].steps, 2u);
  EXPECT_DOUBLE_EQ(sums[0].input_acts, 0.4);
  EXPECT_DOUBLE_EQ(sums[0].output_grads, 0.3);

  const auto overall = meter.overall();
  EXPECT_EQ(overall.steps, 3u);
  EXPECT_DOUBLE_EQ(overall.weights, 1.0);
}

TEST(SparsityMeterTest, ObservesNaturalSparsityDuringTraining) {
  // Without pruning: I is sparse (ReLU/pool upstream), W is dense, dO of
  // the conv after a ReLU is sparse — the paper's Table I pattern.
  data::SyntheticConfig dcfg;
  dcfg.classes = 3;
  dcfg.samples = 48;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.seed = 79;
  const data::SyntheticDataset train(dcfg);

  // Conv directly after ReLU (no pooling in between) so the natural
  // sparsity of I is visible: conv1 → relu → conv2 → relu → head.
  nn::Sequential net("probe-net");
  nn::Conv2DConfig c1;
  c1.in_channels = dcfg.channels;
  c1.out_channels = 6;
  net.emplace<nn::Conv2D>(c1, "conv1");
  net.emplace<nn::ReLU>();
  nn::Conv2DConfig c2;
  c2.in_channels = 6;
  c2.out_channels = 6;
  net.emplace<nn::Conv2D>(c2, "conv2");
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(6 * dcfg.height * dcfg.width, dcfg.classes);

  Rng rng(80);
  nn::kaiming_init(net, rng);
  auto meter = std::make_shared<SparsityMeter>();
  SparsityMeter::attach(net, meter);

  nn::TrainConfig tcfg;
  tcfg.batch_size = 12;
  tcfg.epochs = 2;
  nn::Trainer trainer(net, tcfg);
  (void)trainer.fit(train, train);

  const auto sums = meter->summaries();
  ASSERT_EQ(sums.size(), 2u);
  // Summaries are in first-recorded order and backward runs layers in
  // reverse, so conv2 comes first; find by name to be explicit.
  auto find = [&](const std::string& name) {
    for (const auto& s : sums)
      if (s.layer == name) return s;
    ADD_FAILURE() << "layer not found: " << name;
    return LayerSparsitySummary{};
  };
  const auto conv1 = find("conv1");
  const auto conv2 = find("conv2");
  // conv2's input is a ReLU output → roughly half zeros.
  EXPECT_LT(conv2.input_acts, 0.8);
  // Weights stay dense.
  EXPECT_GT(conv1.weights, 0.99);
  // conv2's dO passed through a ReLU mask → sparse.
  EXPECT_LT(conv2.output_grads, 0.8);
}

}  // namespace
}  // namespace sparsetrain::pruning
