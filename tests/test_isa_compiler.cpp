// ISA and compiler coverage: instruction stream structure, FC lowering,
// store densities, and headline end-to-end simulator properties.
#include <gtest/gtest.h>

#include "compiler/compiler.hpp"
#include "core/session.hpp"
#include "isa/instruction.hpp"
#include "util/require.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain {
namespace {

using isa::Opcode;
using isa::RowOpKind;
using isa::Stage;

isa::Program tiny_program() {
  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::natural(net);
  return compiler::compile(net, profile);
}

TEST(IsaNames, StageAndOpNames) {
  EXPECT_STREQ(isa::stage_name(Stage::Forward), "Forward");
  EXPECT_STREQ(isa::stage_name(Stage::GTA), "GTA");
  EXPECT_STREQ(isa::stage_name(Stage::GTW), "GTW");
  EXPECT_STREQ(isa::row_op_name(RowOpKind::SRC), "SRC");
  EXPECT_STREQ(isa::row_op_name(RowOpKind::MSRC), "MSRC");
  EXPECT_STREQ(isa::row_op_name(RowOpKind::OSRC), "OSRC");
  EXPECT_STREQ(isa::row_op_name(RowOpKind::FC), "FC");
}

TEST(CompilerStream, StagesAreConfigRunStoreBarrierSequences) {
  const isa::Program prog = tiny_program();
  // Walk the stream: every stage segment must start with ConfigLayer and
  // end with Barrier, with exactly one Run in between.
  std::size_t i = 0;
  const auto& ins = prog.instructions;
  while (i < ins.size()) {
    ASSERT_EQ(ins[i].op, Opcode::ConfigLayer) << "at " << i;
    const Stage stage = ins[i].stage;
    const std::size_t layer = ins[i].layer_index;
    ++i;
    std::size_t runs = 0;
    while (i < ins.size() && ins[i].op != Opcode::Barrier) {
      EXPECT_EQ(ins[i].stage, stage);
      EXPECT_EQ(ins[i].layer_index, layer);
      if (ins[i].op == Opcode::Run) ++runs;
      ++i;
    }
    ASSERT_LT(i, ins.size()) << "unterminated stage";
    EXPECT_EQ(runs, 1u);
    ++i;  // consume Barrier
  }
}

TEST(CompilerStream, RowOpKindsMatchStages) {
  const isa::Program prog = tiny_program();
  for (const auto& inst : prog.instructions) {
    if (inst.op != Opcode::Run) continue;
    switch (inst.stage) {
      case Stage::Forward:
        EXPECT_EQ(inst.block.kind, RowOpKind::SRC);
        break;
      case Stage::GTA:
        EXPECT_EQ(inst.block.kind, RowOpKind::MSRC);
        break;
      case Stage::GTW:
        EXPECT_EQ(inst.block.kind, RowOpKind::OSRC);
        break;
    }
  }
}

TEST(CompilerStream, BatchOutsideItsRangeIsRefused) {
  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::natural(net);
  compiler::CompileOptions o;
  o.batch = compiler::kMaxBatch;
  EXPECT_NO_THROW(compiler::compile(net, profile, o));
  o.batch = compiler::kMaxBatch + 1;
  EXPECT_THROW(compiler::compile(net, profile, o), ContractError);
  o.batch = 0;
  EXPECT_THROW(compiler::compile(net, profile, o), ContractError);
}

TEST(CompilerStream, TaskCountsMatchGeometry) {
  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::natural(net);
  const isa::Program prog = compiler::compile(net, profile);
  const auto& l0 = net.layers[0];
  for (const auto& inst : prog.instructions) {
    if (inst.op != Opcode::Run || inst.layer_index != 0) continue;
    if (inst.stage == Stage::Forward) {
      EXPECT_EQ(inst.block.tasks, l0.out_channels * l0.out_h());
      EXPECT_EQ(inst.block.ops_per_task, l0.in_channels * l0.kernel);
      EXPECT_EQ(inst.block.in_len, l0.in_w);
    }
    if (inst.stage == Stage::GTW) {
      EXPECT_EQ(inst.block.tasks, l0.out_channels * l0.in_channels);
      EXPECT_EQ(inst.block.ops_per_task, l0.out_h() * l0.kernel);
      EXPECT_EQ(inst.block.second_len, l0.in_w);
    }
  }
}

TEST(CompilerStream, GtaDensitiesComeFromProfile) {
  const auto net = workload::resnet18_cifar();
  const auto profile = workload::SparsityProfile::calibrated(net, 0.41, 0.27);
  const isa::Program prog = compiler::compile(net, profile);
  for (const auto& inst : prog.instructions) {
    if (inst.op != Opcode::Run || inst.stage != Stage::GTA) continue;
    // FC layers encode the mask in their task count (lane packing), not in
    // density_mask.
    if (net.layers[inst.layer_index].is_fc) continue;
    EXPECT_NEAR(inst.block.density_in, 0.27, 1e-12);
    EXPECT_NEAR(inst.block.density_mask, 0.41, 1e-12);
  }
}

TEST(CompilerFc, LowersToFcKind) {
  const auto net = workload::alexnet_cifar();
  const auto profile = workload::SparsityProfile::natural(net);
  const isa::Program prog = compiler::compile(net, profile);
  std::size_t fc_runs = 0;
  for (const auto& inst : prog.instructions) {
    if (inst.op != Opcode::Run) continue;
    if (net.layers[inst.layer_index].is_fc) {
      EXPECT_EQ(inst.block.kind, RowOpKind::FC);
      EXPECT_EQ(inst.block.ops_per_task, 1u);
      EXPECT_GT(inst.block.fc_lanes, 0u);
      ++fc_runs;
    } else {
      EXPECT_NE(inst.block.kind, RowOpKind::FC);
    }
  }
  // 3 FC layers × 3 stages (fc6 gets GTA since it is not the first layer).
  EXPECT_EQ(fc_runs, 9u);
}

TEST(CompilerFc, ForwardTaskCountPacksLanes) {
  const auto net = workload::alexnet_cifar();
  const auto profile = workload::SparsityProfile::natural(net);
  const isa::Program prog = compiler::compile(net, profile);
  const std::size_t fc8 = net.layers.size() - 1;  // 4096 -> 10 classifier
  for (const auto& inst : prog.instructions) {
    if (inst.op != Opcode::Run || inst.layer_index != fc8 ||
        inst.stage != Stage::Forward)
      continue;
    // ceil(10 outputs / fc_lanes).
    EXPECT_EQ(inst.block.tasks,
              (10 + inst.block.fc_lanes - 1) / inst.block.fc_lanes);
    EXPECT_EQ(inst.block.in_len, 4096u);
  }
}

TEST(CompilerFc, GtwTasksScaleWithGradDensity) {
  const auto net = workload::alexnet_cifar();
  const auto sparse = workload::SparsityProfile::calibrated(net, 0.35, 0.10);
  const auto dense = workload::SparsityProfile::dense(net);
  const auto ps = compiler::compile(net, sparse);
  const auto pd = compiler::compile(net, dense);
  auto gtw_tasks = [&](const isa::Program& p, std::size_t layer) {
    for (const auto& inst : p.instructions)
      if (inst.op == Opcode::Run && inst.stage == Stage::GTW &&
          inst.layer_index == layer)
        return inst.block.tasks;
    return std::size_t{0};
  };
  const std::size_t fc7 = net.layers.size() - 2;
  EXPECT_LT(gtw_tasks(ps, fc7), gtw_tasks(pd, fc7) / 5);  // ~10% density
}

TEST(CompilerStream, StoreDensityReflectsReluAndMask) {
  const auto net = workload::alexnet_cifar();
  const auto profile = workload::SparsityProfile::calibrated(net, 0.35, 0.1);
  const isa::Program prog = compiler::compile(net, profile);
  for (const auto& inst : prog.instructions) {
    if (inst.op != Opcode::StoreOutputs) continue;
    const auto& l = net.layers[inst.layer_index];
    if (inst.stage == Stage::Forward && l.relu_after && !l.first_layer) {
      EXPECT_NEAR(inst.store_density, 0.35, 1e-12) << l.name;
    }
    if (inst.stage == Stage::GTW) {
      EXPECT_EQ(inst.store_density, 1.0) << l.name;  // dW is dense
    }
  }
}

TEST(Headline, AlexNetNaturalSparsityNearPaperAverage) {
  // The abstract's configuration: AlexNet with natural sparsity only
  // reaches about 2.7x speedup and 2.2x energy efficiency. Lock a band
  // around our calibration so regressions are caught.
  core::Session session;
  const auto net = workload::alexnet_cifar();
  const auto profile = workload::SparsityProfile::natural(
      net, workload::paper_act_density(workload::ModelFamily::AlexNet));
  const core::EvalResult r = session.evaluate(
      net, profile,
      {core::Session::kSparseBackend, core::Session::kDenseBackend});
  const double speedup = r.cycle_ratio(core::Session::kDenseBackend,
                                       core::Session::kSparseBackend);
  const double efficiency = r.energy_ratio(core::Session::kDenseBackend,
                                           core::Session::kSparseBackend);
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 3.5);
  EXPECT_GT(efficiency, 1.5);
  EXPECT_LT(efficiency, 3.2);
}

TEST(Headline, SpeedupOrderingAcrossPruningLevels) {
  core::Session session;
  const auto net = workload::resnet18_cifar();
  double prev = 1.0;
  for (double p : {0.0, 0.7, 0.9, 0.99}) {
    const auto profile = workload::SparsityProfile::pruned(net, p, 0.45);
    const core::EvalResult r = session.evaluate(
        net, profile,
        {core::Session::kSparseBackend, core::Session::kDenseBackend});
    const double s = r.cycle_ratio(core::Session::kDenseBackend,
                                   core::Session::kSparseBackend);
    EXPECT_GE(s, prev * 0.98) << "p=" << p;  // monotone up to sim noise
    prev = s;
  }
}

}  // namespace
}  // namespace sparsetrain
