// Compiler: network description + sparsity profile → instruction program.
//
// This plays the role of the paper's Python compiler that converted PyTorch
// models into the accelerator's internal instructions. For every conv (or
// FC-as-conv) layer it emits the three training stages:
//   Forward  — SRC blocks over the input activations,
//   GTA      — MSRC blocks over dO with the layer's input-side ReLU mask
//              (skipped for the first layer, which needs no dI), and
//   GTW      — OSRC blocks pairing dO with I.
#pragma once

#include "isa/instruction.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain::compiler {

/// Largest batch compile() accepts. It keeps batch × any layer's
/// per-sample task and element counts far below 2^64, and sits well above
/// the batches the benches sweep (1–16).
inline constexpr std::size_t kMaxBatch = 1024;

struct CompileOptions {
  std::size_t batch = 1;       ///< samples per iteration, in [1, kMaxBatch]
  bool forward = true;
  bool gta = true;
  bool gtw = true;
  /// Engine the program targets. The instruction stream is identical
  /// either way; the choice is recorded as Program metadata (and keys the
  /// ProgramCache) so backends dispatch statistical vs exact execution
  /// from the program alone.
  isa::EngineKind engine = isa::EngineKind::Statistical;
};

/// Lowers `net` with operand densities from `profile` (must have one entry
/// per layer) into an executable Program.
isa::Program compile(const workload::NetworkConfig& net,
                     const workload::SparsityProfile& profile,
                     const CompileOptions& options = {});

}  // namespace sparsetrain::compiler
