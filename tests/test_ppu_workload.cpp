// Workload geometry and paper-density profile tests.
#include <gtest/gtest.h>

#include "util/require.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain {
namespace {

// ---------------------------------------------------------------------------
// Workload geometry details.

TEST(WorkloadGeometry, AlexNetImagenetClassicDims) {
  const auto net = workload::alexnet_imagenet();
  // conv1: 227x227 k11 s4 -> 55x55.
  EXPECT_EQ(net.layers[0].out_h(), 55u);
  EXPECT_EQ(net.layers[0].out_w(), 55u);
  // conv2 operates on the pooled 27x27 maps.
  EXPECT_EQ(net.layers[1].in_h, 27u);
  EXPECT_EQ(net.layers[1].out_h(), 27u);
  // fc8 classifies into 1000.
  EXPECT_EQ(net.layers.back().out_channels, 1000u);
  EXPECT_TRUE(net.layers.back().is_fc);
}

TEST(WorkloadGeometry, Resnet18ImagenetStages) {
  const auto net = workload::resnet18_imagenet();
  // Stem: 224 k7 s2 -> 112.
  EXPECT_EQ(net.layers[0].out_h(), 112u);
  // Last conv stage works on 7x7 maps with 512 channels.
  const auto& last_conv = net.layers[net.layers.size() - 2];
  EXPECT_EQ(last_conv.out_channels, 512u);
  EXPECT_EQ(last_conv.out_h(), 7u);
}

TEST(WorkloadGeometry, ProjectionConvsPresentOnDownsample) {
  const auto net = workload::resnet18_cifar();
  std::size_t projections = 0;
  for (const auto& l : net.layers)
    if (l.name.find("proj") != std::string::npos) ++projections;
  EXPECT_EQ(projections, 2u);  // stage 2 and stage 3 transitions
}

TEST(WorkloadGeometry, FirstLayerFlagSetOnce) {
  for (const auto& net : workload::paper_workloads()) {
    std::size_t firsts = 0;
    for (const auto& l : net.layers)
      if (l.first_layer) ++firsts;
    EXPECT_EQ(firsts, 1u) << net.name;
    EXPECT_TRUE(net.layers[0].first_layer) << net.name;
  }
}

TEST(WorkloadGeometry, ForwardMacsMatchKnownFormula) {
  workload::LayerConfig l;
  l.in_channels = 3;
  l.in_h = 8;
  l.in_w = 8;
  l.out_channels = 4;
  l.kernel = 3;
  l.stride = 1;
  l.padding = 1;
  EXPECT_EQ(l.forward_macs(), 4u * 8u * 8u * 3u * 3u * 3u);
}

// Table II lookup behaviour.
TEST(PaperDensities, BaselineAndInterpolation) {
  using workload::ModelFamily;
  using workload::paper_table2_do_density;
  // Baselines: ResNet dense (BN), AlexNet already sparse from ReLU.
  EXPECT_EQ(paper_table2_do_density(ModelFamily::ResNet, false, 0.0), 1.0);
  EXPECT_NEAR(paper_table2_do_density(ModelFamily::AlexNet, false, 0.0), 0.09,
              1e-12);
  // Published points.
  EXPECT_NEAR(paper_table2_do_density(ModelFamily::ResNet, false, 0.9), 0.34,
              1e-12);
  EXPECT_NEAR(paper_table2_do_density(ModelFamily::ResNet, true, 0.7), 0.41,
              1e-12);
  // Interpolation lands between neighbours.
  const double mid = paper_table2_do_density(ModelFamily::ResNet, false, 0.75);
  EXPECT_LT(mid, 0.36);
  EXPECT_GT(mid, 0.35);
  // Monotone non-increasing in p.
  double prev = 1.1;
  for (double p : {0.0, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    const double rho = paper_table2_do_density(ModelFamily::ResNet, true, p);
    EXPECT_LE(rho, prev);
    prev = rho;
  }
}

TEST(PaperDensities, ActDensityByFamily) {
  EXPECT_LT(workload::paper_act_density(workload::ModelFamily::AlexNet),
            workload::paper_act_density(workload::ModelFamily::ResNet));
}

TEST(CalibratedProfile, FirstLayerStaysDense) {
  const auto net = workload::resnet18_cifar();
  const auto p = workload::SparsityProfile::calibrated(net, 0.4, 0.3);
  EXPECT_EQ(p.layer(0).input_acts, 1.0);
  EXPECT_NEAR(p.layer(1).input_acts, 0.4, 1e-12);
  EXPECT_NEAR(p.layer(1).output_grads, 0.3, 1e-12);
}

TEST(CalibratedProfile, RejectsBadDensities) {
  const auto net = workload::tiny_workload();
  EXPECT_THROW(workload::SparsityProfile::calibrated(net, 0.0, 0.5),
               ContractError);
  EXPECT_THROW(workload::SparsityProfile::calibrated(net, 0.5, 1.5),
               ContractError);
}

}  // namespace
}  // namespace sparsetrain
