// Exact (tensor-driven) simulation mode.
//
// The statistical engine in accelerator.cpp samples row-op costs from the
// operand *densities*; this engine instead takes the actual tensors of a
// layer, prices every individual row op with the PeExact cost model, and
// schedules the resulting task times onto the PE groups. It is the ground
// truth the statistical engine is validated against (tests assert
// few-percent agreement), and it is what "cycle-accurate" means in this
// reproduction: per-element PE timing semantics, not density
// approximations.
//
// Execution model (three fused layers):
//
//  * Tile kernels — each stage is one statically-dispatched kernel struct
//    (ForwardKernel/GtaKernel/GtwKernel/FcKernel, see the .cpp) run by a
//    run_tasks template. A kernel takes a range of units — the tasks it
//    evaluates together — and writes each of their tasks' cycle counts in
//    place; per op it folds only what the schedule needs, the PE-round
//    maximum (a group's PEs take a task's ops `pes_per_group` at a time,
//    and a round lasts as long as its slowest op). The engine works from
//    counts alone, and its hot loops run in narrow integer lanes with no
//    per-op branch. Forward prices every input row once into a
//    channel-minor table of 16-bit lanes and folds a task a whole round
//    at a time: each step takes the ops left in the round or the taps
//    left in the channel, whichever are fewer, and when the taps equal
//    the PE width each channel is one round, so the task is Σ_c of the
//    max over its taps, swept eight channels per vector. GTW prices an
//    OSRC op from two flat tables, nnz per I row (channel-minor) and
//    ⌈nnz/K⌉ per dO row; its unit is the C tasks of one (n, f), which
//    share the dO row and every ky range, so one pass over (oy, ky)
//    updates every channel's round in 32-bit lanes. GTA's unit is one
//    (n, iy) dI-row set, the C tasks (n, ·, iy), IH apart in task order:
//    they share every op and round boundary and differ only in the
//    positions their mask rows block, so a unit prices every channel's
//    MSRC ops at once from a position-major table of 16-bit blocked
//    lanes, one sweep over the lanes per op; a unit no mask blocks folds
//    whole rounds once for all C tasks. Each lane width is a contract:
//    run_forward admits input rows whose op fits 16 bits (and channel
//    counts whose sums of those fit 32), run_gta dO rows of at most
//    65,535 positions, run_gtw geometries whose widest op, about
//    ⌈W_out/K⌉·(wl + W_in) + drain cycles, fits 32 bits; each throws
//    ContractError otherwise. Task totals stay 64-bit.
//  * Counters from count sums — row ops, busy cycles, MACs and register
//    accesses leave the op loop. Forward's depend only on (n, oy) and
//    GTW's separate the same way, so each stage sums them once from its
//    tables (forward: F × the per-(n, oy) window sums of the row costs;
//    GTW: Σ_f ⌈nnz/K⌉ and Σ_c nnz(I row) per (n, oy)). GTA's depend on
//    the mask rows, so each unit sums them from its counts: C × the
//    all-pass counts minus the blocking-channel counts of the nonzeros.
//    GTA and GTW MACs — the only field that needs the window
//    intersections — are K×K box sums over a summed-area table of
//    channel-summed occupancy. No per-op cost record is materialised,
//    and every RowSet overload checks its rows against the shapes it is
//    given once, at entry, so the tables need no per-op bounds check.
//  * In-order merge — tiles, deterministic contiguous unit ranges (about
//    four per thread unless ExactOptions::tile_tasks pins the units per
//    tile), are claimed by util::parallel_for, the calling thread
//    included. Once every tile is done, the per-task cycles feed the
//    least-loaded-group scheduler (LeastLoaded, shared with the
//    statistical engine) strictly in task order, in the one loop the
//    serial path runs too. Cycle loads pack with their group into one
//    64-bit key, so each tree level of an assign is one load, one min
//    and one store. Neither tiling nor worker count ever changes any
//    simulated number: results are byte-identical to the serial path
//    for any ExactOptions.
//
// The serial hot path is allocation-free in steady state: operand
// tensors live in CompressedRows arenas, each worker thread reuses a
// scratch buffer (a GTA unit's mask prefix counts, blocked lanes,
// blocking-channel counts, one op's blocking lane rows, round maxima and
// totals; GTW's open rounds), the tile body handed to util::parallel_for
// fits std::function's small buffer, and the per-task cycles, per-tile
// totals, the scheduler's tree and stage-wide tables (forward's row-cost
// lanes and sums, GTA's clipped windows and all-pass counts, GTW's count
// tables, the summed-area tables) live in a pooled arena reused across
// stages (tests/test_exact_alloc.cpp counts allocations;
// tests/test_exact_oracle.cpp re-derives every stage op by op through
// PeGroupReducer, at every PE-group width the DSE grid uses).
// Whole networks run through sim::run_exact, which schedules independent
// (layer, stage) units concurrently on the same pool — see
// exact_network.hpp.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dataflow/conv_decompose.hpp"
#include "sim/accelerator.hpp"
#include "tensor/compressed_rows.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace sparsetrain::sim {

class ExactProfiler;

/// Parallelism knobs of the exact engine. No field changes any simulated
/// number — only wall-clock time.
struct ExactOptions {
  /// Worker threads stepping PE tiles. 1 = serial (no pool is created);
  /// 0 = hardware concurrency. Ignored when `shared_pool` is set.
  std::size_t workers = 1;
  /// Units per tile; 0 = about four tiles per thread. A unit is the
  /// tasks a stage kernel evaluates together: one forward or FC task,
  /// the C channel tasks of one GTW (n, f), or the C channel tasks of one
  /// GTA (n, iy) dI-row set.
  std::size_t tile_tasks = 0;
  /// Borrowed worker pool (not owned — must outlive the engine). When
  /// set the engine spawns no threads of its own: tile evaluation and
  /// the exact_network stage graph draw from this pool instead.
  /// core::Session shares its job pool this way, so program-level jobs
  /// and engine tiles form one two-level schedule on one set of threads.
  util::ThreadPool* shared_pool = nullptr;
  /// Per-stage profiling hook (not owned — must outlive the engine; see
  /// sim/profile_hook.hpp). Null = no timestamps are taken at all; set
  /// or not, simulated results are byte-identical.
  ExactProfiler* profiler = nullptr;
};

/// Outcome of one exactly-simulated layer stage.
struct ExactStageResult {
  std::size_t cycles = 0;       ///< makespan across PE groups
  ActivityCounts activity;
  std::size_t row_ops = 0;
  std::size_t tasks = 0;

  /// busy PE-cycles / (makespan × PE count); 0 (never NaN) for empty
  /// stages or a zero PE count.
  double utilization(std::size_t total_pes) const;
};

class ExactEngine {
 public:
  explicit ExactEngine(ArchConfig cfg, ExactOptions opts = {});
  ~ExactEngine();

  ExactEngine(const ExactEngine&) = delete;
  ExactEngine& operator=(const ExactEngine&) = delete;

  const ArchConfig& config() const { return cfg_; }
  const ExactOptions& options() const { return opts_; }

  /// The pool stage tiles (and the exact_network stage graph) run on:
  /// the shared pool when one was borrowed, the engine's own pool when
  /// workers != 1, else nullptr (serial).
  util::ThreadPool* worker_pool() const {
    return opts_.shared_pool != nullptr ? opts_.shared_pool : pool_.get();
  }

  /// A tensor's rows in the accelerator's compressed on-wire format: one
  /// arena-backed CSR structure whose flat row (n·C + c)·H + y is tensor
  /// row (n, c, y). The engine reads every operand as these rows — only
  /// the positions, never a value — so a mask's rows are the positions it
  /// lets through. The arena holds each distinct row once, so a caller
  /// running several stages over the same tensor (Forward + GTW share I,
  /// GTA + GTW share dO) should compress_tensor() it once and pass the
  /// rows to the row-set overloads below; the Tensor overloads compress
  /// their operands on every call. Each overload throws ContractError
  /// unless every RowSet holds exactly the N·C·H rows of width W of the
  /// shape passed with it, and a dO shape is the conv output of the
  /// input's.
  using RowSet = CompressedRows;

  /// Forward stage: SRC ops over the real input activations.
  ExactStageResult run_forward(const Tensor& input,
                               const dataflow::ConvGeometry& geo) const;
  ExactStageResult run_forward(const RowSet& input_rows,
                               const Shape& input_shape,
                               const dataflow::ConvGeometry& geo) const;

  /// GTA stage: MSRC ops over the real dO with the real upstream mask,
  /// which has `input_shape` (pass nullptr for an all-pass mask).
  ExactStageResult run_gta(const Tensor& grad_output,
                           const Shape& input_shape, const Tensor* prev_mask,
                           const dataflow::ConvGeometry& geo) const;
  ExactStageResult run_gta(const RowSet& go_rows, const Shape& out_shape,
                           const Shape& input_shape, const RowSet* mask_rows,
                           const dataflow::ConvGeometry& geo) const;

  /// GTW stage: OSRC ops pairing real dO rows with real I rows.
  ExactStageResult run_gtw(const Tensor& grad_output, const Tensor& input,
                           const dataflow::ConvGeometry& geo) const;
  ExactStageResult run_gtw(const RowSet& go_rows, const Shape& out_shape,
                           const RowSet& in_rows, const Shape& in_shape,
                           const dataflow::ConvGeometry& geo) const;

  /// FC stage (dot-product mapping): every task streams one sample's
  /// compressed operand vector once into `lanes` output accumulators.
  /// `rows` holds one operand row per sample (the vectors of an
  /// {N, 1, 1, L} tensor); `groups_per_sample` is the number of
  /// lane-groups scheduled per sample (ceil(outputs / lanes) after any
  /// mask/zero-lane packing).
  ExactStageResult run_fc(const RowSet& rows,
                          std::size_t groups_per_sample,
                          std::size_t lanes) const;

 private:
  /// Per-stage working storage — the per-task cycles, the scheduler and
  /// the stage-wide tables — pooled on the engine so repeated stages
  /// re-use grown buffers instead of allocating (concurrent stages each
  /// lease their own arena). Defined in the .cpp.
  struct StageArena;

  /// RAII lease of one arena from the engine's pool.
  struct ArenaLease {
    const ExactEngine* engine = nullptr;
    std::unique_ptr<StageArena> arena;
    ArenaLease(const ExactEngine* e, std::unique_ptr<StageArena> a);
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;
    ~ArenaLease();
  };

  ArenaLease acquire_arena() const;
  void release_arena(std::unique_ptr<StageArena> arena) const;

  /// Adaptive tile size in units for a stage of `unit_count` units:
  /// about four tiles per thread (affects wall-clock only).
  std::size_t tile_for(std::size_t unit_count) const;

  /// Builds the stage's kernel with make_kernel(arena) — stage-wide
  /// tables go into the leased arena — then evaluates its `unit_count`
  /// units one tile (unit range) at a time with util::parallel_for and
  /// merges the per-task cycle stream into the least-loaded-group
  /// scheduler in task order. Kernel is a statically-dispatched stage
  /// struct exposing `stage` (the counters summed once for the whole
  /// stage) and `operator()(first, last, cycles) -> OpTotals`, which
  /// writes the cycles of every task of units [first, last) in place, to
  /// cycles[task index], and returns whatever counters the stage sum
  /// leaves to the units. Tiles hold ExactOptions::tile_tasks units each,
  /// or adaptive ones. Byte-identical for any workers/tile_tasks. Defined
  /// in the .cpp (every instantiation lives there).
  template <typename MakeKernel>
  ExactStageResult run_tasks(std::size_t task_count, std::size_t unit_count,
                             const MakeKernel& make_kernel) const;

  ArchConfig cfg_;
  ExactOptions opts_;
  PeExact pe_;
  /// Created only when opts_.workers != 1 and no pool was borrowed;
  /// shared by all run_* calls (parallel_for claims each stage's tiles
  /// from a counter of its own, so concurrent stages on one engine are
  /// safe).
  std::unique_ptr<util::ThreadPool> pool_;
  mutable std::mutex arenas_mu_;
  mutable std::vector<std::unique_ptr<StageArena>> free_arenas_;
};

}  // namespace sparsetrain::sim
