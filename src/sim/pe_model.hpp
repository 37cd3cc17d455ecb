// PE cost models.
//
// Two views of the same microarchitecture (paper Fig. 7c):
//
//  * PeExact — the exact cost of one row op on real compressed rows. It
//    IS the definition of the PE's timing behaviour (1 nonzero ingested
//    per cycle, K-wide MAC into Reg-2, mask look-ahead skipping, OSRC
//    chunk reloads); the exact engine prices every row op through it.
//  * row_op_cost() — closed-form mean/variance of the same cost as a
//    function of row length and operand densities, used for ImageNet-scale
//    blocks where stepping every element would be pointless. Tests assert
//    the closed form matches PeExact in expectation.
#pragma once

#include <algorithm>
#include <cstddef>

#include "dataflow/row_ops.hpp"
#include "isa/instruction.hpp"
#include "tensor/bit_mask.hpp"
#include "tensor/sparse_row.hpp"
#include "util/rng.hpp"

namespace sparsetrain::sim {

/// Fixed microarchitecture timing parameters.
struct PeTiming {
  std::size_t weight_port_width = 2;  ///< weights loaded per cycle (Port-2)
  std::size_t pipeline_drain = 2;     ///< MAC pipeline flush at row end
};

/// Cycle/work outcome of one row op on one PE.
struct PeCost {
  std::size_t cycles = 0;  ///< occupancy of the PE
  std::size_t macs = 0;    ///< useful multiplies performed
  std::size_t ingested = 0;  ///< operand elements that cost a cycle
};

/// Exact PE cost model: each call prices one full row op. Operands
/// are lightweight views (an owning SparseRow converts implicitly), so
/// the exact engine can stream rows straight out of a CompressedRows
/// arena without touching the heap. The bodies are inline for the
/// same reason the work counters are: they execute once per row op, and
/// fusing them into the engine's task loops is worth more than a tidy TU
/// boundary.
class PeExact {
 public:
  explicit PeExact(PeTiming timing = {}) : timing_(timing) {}

  /// Weight-buffer preload cycles for `geo`'s kernel row. Constant per
  /// stage (it depends only on the block), so the engine's tile kernels
  /// hoist it out of their op loops and feed it back through the
  /// `wl`-taking members below — the same arithmetic, folded once per
  /// stage instead of paying an integer division on every row op.
  std::size_t weight_load(const isa::RowBlock& geo) const {
    return (geo.kernel + timing_.weight_port_width - 1) /
           timing_.weight_port_width;
  }

  /// SRC: sparse input row against a K-length kernel row.
  PeCost run_src(SparseRowView input, const isa::RowBlock& geo) const {
    return run_src(input, geo, weight_load(geo));
  }

  /// SRC with the stage-constant weight-load cycles precomputed.
  PeCost run_src(SparseRowView input, const isa::RowBlock& geo,
                 std::size_t wl) const {
    const dataflow::RowOpWork w =
        dataflow::src_work(input, row_geometry(geo), geo.out_len);
    PeCost cost;
    cost.ingested = w.active_inputs;
    cost.macs = w.macs;
    cost.cycles = row_cycles(w.active_inputs, wl);
    return cost;
  }

  /// The cycles of an SRC or MSRC op that ingests `active` operand
  /// elements: the weight load, one cycle per element, the drain.
  std::size_t row_cycles(std::size_t active, std::size_t wl) const {
    return wl + active + timing_.pipeline_drain;
  }

  /// MSRC: sparse dO row scattered under an output mask; inputs whose whole
  /// window is masked are skipped by look-ahead (zero cycles).
  PeCost run_msrc(SparseRowView input, const BitMask& mask,
                  const isa::RowBlock& geo) const {
    const dataflow::RowOpWork w =
        dataflow::msrc_work(input, mask, row_geometry(geo), geo.out_len);
    return msrc_cost(w.active_inputs, w.macs, weight_load(geo));
  }

  /// OSRC: dO nonzeros are cached in Reg-1 in chunks of K; every I nonzero
  /// is streamed once per chunk.
  PeCost run_osrc(SparseRowView input_acts, SparseRowView grad_out,
                  const isa::RowBlock& geo) const {
    const dataflow::RowOpWork w =
        dataflow::osrc_work(input_acts, grad_out, row_geometry(geo));
    return osrc_cost(input_acts.nnz(), osrc_chunks(grad_out.nnz(), geo.kernel),
                     w.macs, weight_load(geo));
  }

  // Count-form cost of MSRC and OSRC: the PE's timing depends on a row
  // op's operands only through these counts. run_msrc/run_osrc derive the
  // counts from the rows; the exact engine's GTA/GTW kernels derive them
  // from per-row nonzero counts and occupancy bits, and count MACs once
  // per stage instead of per op.

  /// MSRC with `active` dO nonzeros whose output window survives the mask
  /// (look-ahead makes the others free) and `macs` useful multiplies.
  PeCost msrc_cost(std::size_t active, std::size_t macs,
                   std::size_t wl) const {
    PeCost cost;
    cost.ingested = active;
    cost.macs = macs;
    cost.cycles = row_cycles(active, wl);
    return cost;
  }

  /// Reg-1 loads of an OSRC op whose dO row holds `nnz_do` nonzeros, K
  /// at a time (0 for an empty row).
  static std::size_t osrc_chunks(std::size_t nnz_do, std::size_t kernel) {
    return (nnz_do + kernel - 1) / kernel;
  }

  /// OSRC streaming `nnz_i` I nonzeros once per dO chunk, with `macs`
  /// useful multiplies.
  PeCost osrc_cost(std::size_t nnz_i, std::size_t chunks, std::size_t macs,
                   std::size_t wl) const {
    PeCost cost;
    cost.macs = macs;
    cost.ingested = chunks * nnz_i;
    cost.cycles = osrc_cycles(nnz_i, chunks, wl);
    return cost;
  }

  /// osrc_cost's cycles in the unsigned type `T`, which the caller has
  /// checked holds them: the exact engine's GTW kernel prices ops in
  /// 32-bit lanes.
  template <typename T>
  T osrc_cycles(T nnz_i, T chunks, T wl) const {
    return chunks * (wl + nnz_i) + static_cast<T>(timing_.pipeline_drain);
  }

 private:
  static dataflow::RowGeometry row_geometry(const isa::RowBlock& block) {
    dataflow::RowGeometry geo;
    geo.kernel = block.kernel;
    geo.stride = block.stride;
    geo.padding = block.padding;
    return geo;
  }

  PeTiming timing_;
};

/// The reference fold of one group task's row-op costs into the group's
/// parallel-round timing (paper Fig. 7a): a group's PEs take the task's
/// ops `width` at a time and each round lasts as long as its slowest op.
/// Ops are fed one at a time and the task's cycle count is read back from
/// end_task(); the busy/MAC/register counters accumulate across every
/// task fed since construction. This is the definition the exact engine
/// is checked against (tests/test_exact_oracle.cpp folds every op through
/// it), not the engine's inner loop: the engine's kernels fold only each
/// op's cycles into the round maximum and sum the counters from per-row
/// counts once per stage or task.
class PeGroupReducer {
 public:
  PeGroupReducer(std::size_t width, std::size_t lanes)
      : width_(width), lanes_(lanes) {}

  void begin_task() {
    task_cycles_ = 0;
    round_max_ = 0;
    in_round_ = 0;
  }

  void add(const PeCost& op) {
    ++row_ops_;
    busy_ += op.cycles;
    macs_ += op.macs;
    reg_ += op.ingested * 2 * lanes_ + lanes_;
    round_max_ = std::max(round_max_, op.cycles);
    if (++in_round_ == width_) {
      task_cycles_ += round_max_;
      round_max_ = 0;
      in_round_ = 0;
    }
  }

  /// Closes the task's partial round and returns its cycle count.
  std::size_t end_task() {
    if (in_round_ != 0) {
      task_cycles_ += round_max_;
      round_max_ = 0;
      in_round_ = 0;
    }
    return task_cycles_;
  }

  std::size_t row_ops() const { return row_ops_; }
  std::size_t busy() const { return busy_; }
  std::size_t macs() const { return macs_; }
  std::size_t reg() const { return reg_; }

 private:
  std::size_t width_;
  std::size_t lanes_;
  std::size_t task_cycles_ = 0;
  std::size_t round_max_ = 0;
  std::size_t in_round_ = 0;
  std::size_t row_ops_ = 0;
  std::size_t busy_ = 0;
  std::size_t macs_ = 0;
  std::size_t reg_ = 0;
};

/// Closed-form statistics of one row op's PE cost. Means are per
/// *scheduled* op: ops the controller never dispatches (OSRC with an
/// empty dO row) are excluded, and `sched_fraction` tells the scheduler
/// what fraction of a block's nominal ops is dispatched at all.
struct PeCostStats {
  double mean_cycles = 0.0;
  double var_cycles = 0.0;
  double mean_macs = 0.0;
  double sched_fraction = 1.0;  ///< P[the op is scheduled] (OSRC: dO ≠ 0)
};

/// Mean/variance of the PE cost for a row op drawn from `block`'s operand
/// distributions (binomial nonzero counts). `sparse_mode` false models the
/// dense baseline: every element costs a cycle and a MAC regardless of
/// value, and masks are ignored.
PeCostStats row_op_cost(const isa::RowBlock& block, const PeTiming& timing,
                        bool sparse_mode);

}  // namespace sparsetrain::sim
