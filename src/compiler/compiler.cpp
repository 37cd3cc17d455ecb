#include "compiler/compiler.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace sparsetrain::compiler {

using isa::Instruction;
using isa::Opcode;
using isa::Program;
using isa::RowBlock;
using isa::RowOpKind;
using isa::Stage;
using workload::LayerConfig;

namespace {

Instruction config(std::size_t layer, Stage stage) {
  Instruction inst;
  inst.op = Opcode::ConfigLayer;
  inst.layer_index = layer;
  inst.stage = stage;
  return inst;
}

Instruction load_weights(std::size_t layer, Stage stage,
                         const LayerConfig& l) {
  Instruction inst;
  inst.op = Opcode::LoadWeights;
  inst.layer_index = layer;
  inst.stage = stage;
  inst.elements = l.out_channels * l.in_channels * l.kernel * l.kernel;
  return inst;
}

Instruction barrier(std::size_t layer, Stage stage) {
  Instruction inst;
  inst.op = Opcode::Barrier;
  inst.layer_index = layer;
  inst.stage = stage;
  return inst;
}

Instruction store(std::size_t layer, Stage stage, std::size_t elements,
                  double density) {
  Instruction inst;
  inst.op = Opcode::StoreOutputs;
  inst.layer_index = layer;
  inst.stage = stage;
  inst.elements = elements;
  inst.store_density = density;
  return inst;
}

/// Lanes per PE for the FC dot-product mapping (Reg-2 accumulator width).
constexpr std::size_t kFcLanes = 4;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Emits the three stages of a fully-connected layer using the FC
/// dot-product row op. Each task streams the compressed operand vector
/// once and feeds `kFcLanes` output accumulators; task counts already
/// reflect lane packing of the useful outputs (masked dI and zero dO
/// lanes are never scheduled).
void emit_fc(Program& prog, std::size_t li, const LayerConfig& l,
             const workload::LayerDensities& d, const CompileOptions& o) {
  const std::size_t C = l.in_channels;
  const std::size_t F = l.out_channels;

  auto run = [&](Stage stage, std::size_t tasks, std::size_t in_len,
                 double density_in) {
    Instruction inst;
    inst.op = Opcode::Run;
    inst.layer_index = li;
    inst.stage = stage;
    RowBlock& b = inst.block;
    b.kind = RowOpKind::FC;
    b.tasks = std::max<std::size_t>(1, tasks);
    b.ops_per_task = 1;
    b.in_len = in_len;
    b.out_len = kFcLanes;
    b.kernel = 1;
    b.density_in = density_in;
    b.fc_lanes = kFcLanes;
    prog.instructions.push_back(inst);
  };

  if (o.forward) {
    prog.instructions.push_back(config(li, Stage::Forward));
    prog.instructions.push_back(load_weights(li, Stage::Forward, l));
    run(Stage::Forward, o.batch * ceil_div(F, kFcLanes), C, d.input_acts);
    prog.instructions.push_back(store(li, Stage::Forward, o.batch * F,
                                      l.relu_after ? d.mask : 1.0));
    prog.instructions.push_back(barrier(li, Stage::Forward));
  }
  if (o.gta && !l.first_layer) {
    prog.instructions.push_back(config(li, Stage::GTA));
    prog.instructions.push_back(load_weights(li, Stage::GTA, l));
    // Only mask-allowed dI outputs are computed (lane packing).
    const auto useful = static_cast<std::size_t>(
        static_cast<double>(C) * d.mask + 0.5);
    run(Stage::GTA, o.batch * ceil_div(std::max<std::size_t>(1, useful),
                                       kFcLanes),
        F, d.output_grads);
    prog.instructions.push_back(store(li, Stage::GTA, o.batch * C, d.mask));
    prog.instructions.push_back(barrier(li, Stage::GTA));
  }
  if (o.gtw) {
    prog.instructions.push_back(config(li, Stage::GTW));
    // Outer product dW = dO·Iᵀ: lanes are packed with nonzero dO entries,
    // each task streams the compressed I vector once.
    const auto nnz_do = static_cast<std::size_t>(
        static_cast<double>(F) * d.output_grads + 0.5);
    run(Stage::GTW, o.batch * ceil_div(std::max<std::size_t>(1, nnz_do),
                                       kFcLanes),
        C, d.input_acts);
    prog.instructions.push_back(store(li, Stage::GTW, F * C, 1.0));
    prog.instructions.push_back(barrier(li, Stage::GTW));
  }
}

}  // namespace

Program compile(const workload::NetworkConfig& net,
                const workload::SparsityProfile& profile,
                const CompileOptions& options) {
  ST_REQUIRE(profile.size() == net.layers.size(),
             "profile/layer count mismatch for " + net.name);
  ST_REQUIRE(options.batch > 0 && options.batch <= kMaxBatch,
             "batch must be in [1, " + std::to_string(kMaxBatch) + "]");

  Program prog;
  prog.name = net.name + " [" + profile.name() + "]";
  prog.engine = options.engine;
  prog.batch = options.batch;

  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const LayerConfig& l = net.layers[li];
    const workload::LayerDensities& d = profile.layer(li);
    const std::size_t oh = l.out_h();
    const std::size_t ow = l.out_w();

    if (l.is_fc) {
      emit_fc(prog, li, l, d, options);
      continue;
    }

    if (options.forward) {
      prog.instructions.push_back(config(li, Stage::Forward));
      prog.instructions.push_back(load_weights(li, Stage::Forward, l));
      Instruction run;
      run.op = Opcode::Run;
      run.layer_index = li;
      run.stage = Stage::Forward;
      RowBlock& b = run.block;
      b.kind = RowOpKind::SRC;
      b.tasks = options.batch * l.out_channels * oh;
      b.ops_per_task = l.in_channels * l.kernel;
      b.in_len = l.in_w;
      b.out_len = ow;
      b.kernel = static_cast<std::uint32_t>(l.kernel);
      b.stride = static_cast<std::uint32_t>(l.stride);
      b.padding = static_cast<std::uint32_t>(l.padding);
      b.density_in = d.input_acts;
      prog.instructions.push_back(run);
      // Output activations: stored compressed at the post-ReLU density,
      // which is the mask density of this layer (its own input pattern is
      // the best stand-in for the activation density constant).
      prog.instructions.push_back(
          store(li, Stage::Forward, options.batch * l.out_channels * oh * ow,
                l.relu_after ? d.mask : 1.0));
      prog.instructions.push_back(barrier(li, Stage::Forward));
    }

    if (options.gta && !l.first_layer) {
      prog.instructions.push_back(config(li, Stage::GTA));
      prog.instructions.push_back(load_weights(li, Stage::GTA, l));
      Instruction run;
      run.op = Opcode::Run;
      run.layer_index = li;
      run.stage = Stage::GTA;
      RowBlock& b = run.block;
      b.kind = RowOpKind::MSRC;
      // One task per dI row; each consumes the dO rows that scatter into
      // it. Only the (oy, ky) pairs with oy·S + ky − P = iy land on a
      // given dI row — K·OH/H (≈ K/S) of the K taps on average, so the
      // expected op count, not F·K, keeps strided GTA from overcounting
      // row ops by ~S× (the exact engine is the ground truth here; see
      // tests/test_exact_agreement_matrix.cpp).
      b.tasks = options.batch * l.in_channels * l.in_h;
      b.ops_per_task = std::max<std::size_t>(
          1, (l.out_channels * l.kernel * oh + l.in_h / 2) / l.in_h);
      b.in_len = ow;        // the streamed operand is a dO row
      b.out_len = l.in_w;   // scattered into a dI row
      b.kernel = static_cast<std::uint32_t>(l.kernel);
      b.stride = static_cast<std::uint32_t>(l.stride);
      b.padding = static_cast<std::uint32_t>(l.padding);
      b.density_in = d.output_grads;
      b.density_mask = d.mask;  // forced zeros of the upstream ReLU
      prog.instructions.push_back(run);
      // dI leaves compressed at (at most) the mask density.
      prog.instructions.push_back(
          store(li, Stage::GTA, options.batch * l.in_channels * l.in_h * l.in_w,
                d.mask));
      prog.instructions.push_back(barrier(li, Stage::GTA));
    }

    if (options.gtw) {
      prog.instructions.push_back(config(li, Stage::GTW));
      Instruction run;
      run.op = Opcode::Run;
      run.layer_index = li;
      run.stage = Stage::GTW;
      RowBlock& b = run.block;
      b.kind = RowOpKind::OSRC;
      // One task per (f, c) kernel slice; each correlates the OH dO rows
      // of filter f with the matching I rows of channel c.
      b.tasks = options.batch * l.out_channels * l.in_channels;
      b.ops_per_task = oh * l.kernel;
      b.in_len = ow;  // streamed dO row
      b.out_len = l.kernel;
      b.second_len = l.in_w;  // the paired I row
      b.kernel = static_cast<std::uint32_t>(l.kernel);
      b.stride = static_cast<std::uint32_t>(l.stride);
      b.padding = static_cast<std::uint32_t>(l.padding);
      b.density_in = d.output_grads;
      b.density_second = d.input_acts;
      prog.instructions.push_back(run);
      // dW is dense and small (K²·C·F).
      prog.instructions.push_back(
          store(li, Stage::GTW,
                l.out_channels * l.in_channels * l.kernel * l.kernel, 1.0));
      prog.instructions.push_back(barrier(li, Stage::GTW));
    }
  }
  return prog;
}

}  // namespace sparsetrain::compiler
