// Dense training baseline (paper §VI: "we modify the architecture of
// Eyeriss to support the dense training process", 168 PEs, same buffer).
//
// The baseline shares the PE array geometry and buffer budget with
// SparseTrain but is sparsity-blind: every row element costs a cycle and a
// MAC whether it is zero or not, operands move uncompressed, and the GTA
// step computes every dI value including the ones the ReLU mask will
// discard. That is exactly the `sparse = false` mode of the simulation
// engine; this module packages it with the paper's baseline parameters.
#pragma once

#include "sim/accelerator.hpp"

namespace sparsetrain::baseline {

/// Architecture parameters of the dense baseline (same compute/buffer
/// budget as the SparseTrain configuration it is compared against).
sim::ArchConfig eyeriss_like_config();

}  // namespace sparsetrain::baseline
