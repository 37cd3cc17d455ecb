#include "sim/exact_engine.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <type_traits>

#include "sim/least_loaded.hpp"
#include "sim/profile_hook.hpp"
#include "util/require.hpp"

namespace sparsetrain::sim {

namespace {

/// The contiguous ky range of output row oy whose input rows
/// iy = oy·S + ky − P exist (are not padding), plus the iy of the first
/// valid ky. iy is monotone in ky, so validity is one interval — the
/// per-(channel, tap) padding test of the stage kernels collapses to a
/// per-task range computation.
struct KyRange {
  std::size_t lo;   ///< first valid ky
  std::size_t hi;   ///< one past the last valid ky (hi ≤ lo: none)
  std::size_t iy0;  ///< input row of ky == lo (iy of ky k is iy0 + k − lo)
};

KyRange valid_ky_range(std::size_t oy, const dataflow::ConvGeometry& geo,
                       std::size_t in_h) {
  const std::int64_t base = static_cast<std::int64_t>(oy * geo.stride) -
                            static_cast<std::int64_t>(geo.padding);
  const std::int64_t lo = base < 0 ? -base : 0;
  std::int64_t hi = static_cast<std::int64_t>(in_h) - base;
  if (hi > static_cast<std::int64_t>(geo.kernel))
    hi = static_cast<std::int64_t>(geo.kernel);
  if (hi < lo) hi = lo;
  return KyRange{static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
                 static_cast<std::size_t>(base + lo)};
}

isa::RowBlock block_from(const dataflow::ConvGeometry& geo,
                         std::size_t in_len, std::size_t out_len,
                         isa::RowOpKind kind) {
  isa::RowBlock b;
  b.kind = kind;
  b.in_len = in_len;
  b.out_len = out_len;
  b.kernel = static_cast<std::uint32_t>(geo.kernel);
  b.stride = static_cast<std::uint32_t>(geo.stride);
  b.padding = static_cast<std::uint32_t>(geo.padding);
  return b;
}

/// A RowSet must hold exactly the rows of `shape`: the stage tables are
/// sized from the rows and indexed from the shape.
void require_rows(const CompressedRows& rows, const Shape& shape,
                  const char* what) {
  ST_REQUIRE(rows.rows() == shape.n * shape.c * shape.h &&
                 rows.row_length() == shape.w,
             std::string(what) + " rows do not match shape " +
                 shape.to_string());
}

/// A 16-bit lane: one channel's value in a channel-minor table. Forward
/// stores each input row's op cycles in one (run_forward admits rows whose
/// op fits), GTA a channel's blocked flag or ingested count (an op ingests
/// at most its dO row's nonzeros, so run_gta admits dO rows of at most
/// 65,535 positions).
using Lane = std::uint16_t;

/// Eight lanes as one 16-byte vector (a GCC/Clang vector extension: the
/// compiler picks the target's instructions), and the same bytes as four
/// 32-bit lanes.
using LaneVec = Lane __attribute__((vector_size(16)));
using LaneVec32 = std::uint32_t __attribute__((vector_size(16)));
constexpr std::size_t kVecLanes = sizeof(LaneVec) / sizeof(Lane);

LaneVec load_lanes(const Lane* p) {
  LaneVec v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

LaneVec max_lanes(LaneVec a, LaneVec b) { return a > b ? a : b; }

/// `lanes` rounded up to whole vectors of `block` lanes: the pitch of a
/// channel-minor table whose pad lanes stay zero.
std::size_t lane_pitch(std::size_t lanes, std::size_t block) {
  return (lanes + block - 1) / block * block;
}

/// A GTA op sweeps its channel lanes this many at a time.
constexpr std::size_t kGtaBlock = 32;

/// A GTW channel's open round max: run_gtw admits only geometries whose
/// largest op fits.
using GtwLane = std::uint32_t;

/// Per-worker-thread scratch. Capacities grow to the stage's steady state
/// within the first few units, after which evaluating one performs no
/// heap allocation at all (the zero-alloc contract of the hot path).
struct TaskScratch {
  std::vector<std::uint32_t> gta_allowed;  ///< GTA: mask prefix counts
  std::vector<Lane> gta_lanes;  ///< GTA: blocked lanes at p·pitch + c
  std::vector<std::uint32_t> gta_blockers;  ///< GTA: channels blocking p
  std::vector<const Lane*> gta_rows;  ///< GTA: one op's blocking rows
  std::vector<Lane> gta_round;        ///< GTA: open round max per lane
  std::vector<std::size_t> gta_total;    ///< GTA: round maxima per lane
  std::vector<GtwLane> gtw_round;  ///< GTW: open round max per channel
};

TaskScratch& task_scratch() {
  thread_local TaskScratch scratch;
  return scratch;
}

/// Row-op activity summed over a tile or a whole stage (integer sums, so
/// the order they are added in never changes a value).
struct OpTotals {
  std::size_t row_ops = 0;
  std::size_t busy = 0;
  std::size_t macs = 0;
  std::size_t reg = 0;

  OpTotals& operator+=(const OpTotals& o) {
    row_ops += o.row_ops;
    busy += o.busy;
    macs += o.macs;
    reg += o.reg;
    return *this;
  }
};

/// The totals of `ops` row ops that keep PEs busy for `busy` cycles in
/// all, ingest `ingested` operand elements and perform `macs` multiplies.
/// Every ingested element reads and writes each of the `lanes`
/// accumulators and every op drains them once: summed, the register
/// count PeGroupReducer accumulates op by op.
OpTotals op_totals(std::size_t ops, std::size_t busy, std::size_t ingested,
                   std::size_t macs, std::size_t lanes) {
  return OpTotals{ops, busy, macs, ingested * 2 * lanes + ops * lanes};
}

void accumulate(PeCost& sum, const PeCost& cost) {
  sum.cycles += cost.cycles;
  sum.macs += cost.macs;
  sum.ingested += cost.ingested;
}

/// One task's group-round fold (paper Fig. 7a): the group's PEs take the
/// task's ops `width` at a time, in task order, and each round lasts as
/// long as its slowest op. The ops come as `runs` runs of `len` ops each,
/// op j of run r costing op(r, j), and each step folds a whole stretch of
/// one run: the ops left in the round or the ops left in the run,
/// whichever are fewer. Returns the sum of the round maxima, the partial
/// last round's included. PeGroupReducer's fold without its counters —
/// the stage kernels take those from count sums instead.
template <typename Op>
std::size_t fold_rounds(std::size_t runs, std::size_t len, std::size_t width,
                        const Op& op) {
  std::size_t total = 0;
  std::size_t round = 0;
  std::size_t room = width;  // ops the open round still takes
  for (std::size_t r = 0; r < runs; ++r) {
    for (std::size_t j = 0; j < len;) {
      const std::size_t end = j + std::min(room, len - j);
      room -= end - j;
      for (; j < end; ++j) round = std::max<std::size_t>(round, op(r, j));
      if (room == 0) {
        total += round;
        round = 0;
        room = width;
      }
    }
  }
  return total + round;
}

/// The positions [lo, hi) of a K-wide window starting at o·S − P on an
/// axis of length len, clipped to the axis (empty: hi == lo).
struct Interval {
  std::size_t lo;
  std::size_t hi;
};

Interval clipped_window(std::size_t o, const dataflow::ConvGeometry& geo,
                    std::size_t len) {
  const KyRange r = valid_ky_range(o, geo, len);
  return r.hi == r.lo ? Interval{0, 0}
                      : Interval{r.iy0, r.iy0 + (r.hi - r.lo)};
}

/// Layout of the per-sample summed-area tables the GTA/GTW MAC totals
/// read. Entry (y, x) of sample n counts the occupied positions
/// (c, y' < y, x' < x) summed over every channel, so the occupancy of
/// any box of the H×W plane is four loads.
struct BoxLayout {
  std::size_t h;
  std::size_t w;
  std::size_t pitch() const { return w + 1; }
  std::size_t plane() const { return (h + 1) * (w + 1); }
  /// The slot that counts position (y, x) itself before integrate().
  std::size_t cell(std::size_t n, std::size_t y, std::size_t x) const {
    return n * plane() + (y + 1) * pitch() + x + 1;
  }
};

/// Turns `samples` planes of per-position counts into summed-area tables
/// in place (row 0 and column 0 stay zero).
void integrate(std::size_t* table, std::size_t samples, BoxLayout l) {
  for (std::size_t n = 0; n < samples; ++n) {
    std::size_t* t = table + n * l.plane();
    for (std::size_t y = 1; y <= l.h; ++y) {
      std::size_t* row = t + y * l.pitch();
      const std::size_t* above = row - l.pitch();
      std::size_t run = 0;
      for (std::size_t x = 1; x <= l.w; ++x) {
        run += row[x];
        row[x] = above[x] + run;
      }
    }
  }
}

/// MACs of a whole GTA or GTW stage. Every dO nonzero (n, f, oy, ox)
/// multiplies once against each occupied position of its K×K window —
/// rows [oy·S − P, +K) and columns [ox·S − P, +K) clipped to the plane —
/// in every channel: the I rows it pairs with in OSRC, the mask positions
/// it survives in MSRC. So the total is one box query per nonzero, and
/// the kernels' ops carry no MACs.
std::size_t box_macs(const CompressedRows& go_rows, const Shape& out,
                     const dataflow::ConvGeometry& geo,
                     const std::size_t* table, BoxLayout l) {
  std::size_t macs = 0;
  for (std::size_t n = 0; n < out.n; ++n) {
    const std::size_t* sat = table + n * l.plane();
    for (std::size_t f = 0; f < geo.out_channels; ++f) {
      for (std::size_t oy = 0; oy < out.h; ++oy) {
        const SparseRowView go = go_rows.row((n * out.c + f) * out.h + oy);
        const Interval rows = clipped_window(oy, geo, l.h);
        if (go.empty() || rows.hi == rows.lo) continue;
        const std::size_t* top = sat + rows.lo * l.pitch();
        const std::size_t* bottom = sat + rows.hi * l.pitch();
        for (const std::uint32_t ox : go.offsets) {
          const Interval cols = clipped_window(ox, geo, l.w);
          macs += bottom[cols.hi] - top[cols.hi] - bottom[cols.lo] +
                  top[cols.lo];
        }
      }
    }
  }
  return macs;
}

}  // namespace

struct ExactEngine::StageArena {
  std::vector<std::size_t> cycles;       ///< per-task cycles
  std::vector<OpTotals> tile_totals;     ///< per-tile activity (parallel)
  LeastLoaded<std::size_t> sched;        ///< least-loaded group merge
  std::vector<Lane> src_lanes;           ///< forward: cycles per input row
  std::vector<PeCost> src_sums;          ///< forward: channel sums per (n, iy)
  std::vector<Interval> gta_windows;     ///< GTA: clipped window per dO position
  std::vector<Lane> go_active;        ///< GTA: all-pass count per dO row
  std::vector<std::uint32_t> go_chunks;  ///< GTW: ⌈nnz/K⌉ per dO row
  std::vector<std::uint32_t> in_nnz;     ///< GTW: nnz per I row, over c
  std::vector<std::size_t> box_table;    ///< GTA/GTW: summed-area tables
};

double ExactStageResult::utilization(std::size_t total_pes) const {
  if (cycles == 0 || total_pes == 0) return 0.0;
  return static_cast<double>(activity.busy_cycles) /
         (static_cast<double>(cycles) * static_cast<double>(total_pes));
}

ExactEngine::ExactEngine(ArchConfig cfg, ExactOptions opts)
    : cfg_(std::move(cfg)), opts_(opts), pe_(cfg_.timing) {
  cfg_.validate();
  ST_REQUIRE(cfg_.sparse, "the exact engine models the sparse architecture");
  if (opts_.shared_pool == nullptr && opts_.workers != 1) {
    pool_ = std::make_unique<util::ThreadPool>(opts_.workers);
  }
}

ExactEngine::~ExactEngine() = default;

ExactEngine::ArenaLease::ArenaLease(const ExactEngine* e,
                                    std::unique_ptr<StageArena> a)
    : engine(e), arena(std::move(a)) {}

ExactEngine::ArenaLease::~ArenaLease() {
  if (engine != nullptr && arena != nullptr) {
    engine->release_arena(std::move(arena));
  }
}

ExactEngine::ArenaLease ExactEngine::acquire_arena() const {
  std::unique_lock lock(arenas_mu_);
  if (!free_arenas_.empty()) {
    auto arena = std::move(free_arenas_.back());
    free_arenas_.pop_back();
    return ArenaLease(this, std::move(arena));
  }
  lock.unlock();
  return ArenaLease(this, std::make_unique<StageArena>());
}

void ExactEngine::release_arena(std::unique_ptr<StageArena> arena) const {
  std::lock_guard lock(arenas_mu_);
  free_arenas_.push_back(std::move(arena));
}

std::size_t ExactEngine::tile_for(std::size_t unit_count) const {
  // About four tiles per thread, so the stage still spreads over the pool
  // with slack for load balance. Tile size affects wall-clock only, never
  // results (the merge consumes tasks in index order regardless).
  const util::ThreadPool* pool = worker_pool();
  const std::size_t threads =
      (pool != nullptr ? pool->worker_count() : 0) + 1;
  return std::max<std::size_t>(1, unit_count / (4 * threads));
}

template <typename MakeKernel>
ExactStageResult ExactEngine::run_tasks(std::size_t task_count,
                                        std::size_t unit_count,
                                        const MakeKernel& make_kernel) const {
  using Kernel = std::invoke_result_t<const MakeKernel&, StageArena&>;
  ExactStageResult result;
  result.tasks = task_count;

  // The profiler is the only source of timing in the engine: when it is
  // null (the default) no clock is read anywhere on this path.
  const StageTimer timer(opts_.profiler, Kernel::kStage);

  ArenaLease lease = acquire_arena();
  StageArena& arena = *lease.arena;

  LeastLoaded<std::size_t>& sched = arena.sched;
  sched.reset(cfg_.pe_groups);

  if (task_count == 0) {
    timer.record(result.tasks, result.row_ops, 0);
    return result;
  }
  // Stage-wide tables are part of the stage: built inside the profiled
  // span, into the leased arena the tiles then read.
  const Kernel kernel = make_kernel(arena);

  util::ThreadPool* pool = worker_pool();
  const std::size_t tile =
      opts_.tile_tasks != 0 ? opts_.tile_tasks : tile_for(unit_count);
  const std::size_t tiles = (unit_count + tile - 1) / tile;
  arena.cycles.resize(task_count);
  arena.tile_totals.assign(tiles, OpTotals{});
  std::size_t* cycles = arena.cycles.data();

  // parallel_for calls eval once per tile, or once for the whole range
  // when it runs inline (no pool, or a single tile): first / tile is the
  // tile's index either way.
  const auto eval = [&](std::size_t first, std::size_t last) {
    // Each tile reads its own copy of the kernel: the original sits on
    // the calling thread's stack next to data that thread writes while
    // it evaluates tiles, and sharing that cache line across threads made
    // parallel GTA slower than serial.
    const Kernel k = kernel;
    arena.tile_totals[first / tile] = k(first, last, cycles);
  };
  // One captured reference fits std::function's small buffer, so the
  // serial path allocates nothing.
  util::parallel_for(pool, unit_count, tile,
                     [&eval](std::size_t first, std::size_t last) {
                       eval(first, last);
                     });

  // Merge in task order: the same deterministic stream for any tiling.
  OpTotals totals = kernel.stage;
  for (const OpTotals& t : arena.tile_totals) totals += t;
  for (std::size_t i = 0; i < task_count; ++i) sched.assign(cycles[i]);

  result.row_ops = totals.row_ops;
  result.activity.busy_cycles = totals.busy;
  result.activity.macs = totals.macs;
  result.activity.reg_accesses = totals.reg;
  result.cycles = sched.max_load();
  timer.record(result.tasks, result.row_ops,
               pool == nullptr || tiles <= 1 ? 1 : tiles);
  return result;
}

namespace {

/// Forward stage kernel: one task per output row (n, f, oy), C·K SRC ops.
///
/// The SRC cost of an op is a pure function of (input row, block) — it
/// does not depend on the task's output channel f at all — so run_forward
/// prices every physical input row once, into a channel-minor table of
/// 16-bit lanes (`row_lanes`: (n, iy) rows of `pitch` lanes, the pad lanes
/// zero), and a task folds table entries, in the reference order (c-major,
/// ky ascending), into its PE rounds, a whole round's worth of a channel's
/// taps per step. When the taps equal the PE width, each channel is one
/// round and the task is Σ_c of the max over its taps, swept eight
/// channels at a time. The counters depend only on (n, oy), so the stage
/// sums them once (`stage`).
struct ForwardKernel {
  static constexpr const char* kStage = "forward";
  const Lane* row_lanes;
  std::size_t pitch;  ///< lanes per (n, iy) row of row_lanes
  const dataflow::ConvGeometry& geo;
  Shape in_shape;
  Shape out_shape;
  std::size_t width;  ///< PEs per group
  OpTotals stage;

  OpTotals operator()(std::size_t first, std::size_t last,
                      std::size_t* cycles) const {
    for (std::size_t i = first; i < last; ++i) {
      const std::size_t oy = i % out_shape.h;
      const std::size_t n = i / (out_shape.h * geo.out_channels);
      // iy = oy·S + ky − P is monotone in ky, so the valid taps form one
      // contiguous ky range — resolved once per task.
      const auto [ky_lo, ky_hi, iy0] = valid_ky_range(oy, geo, in_shape.h);
      const std::size_t taps = ky_hi - ky_lo;
      const Lane* rows = row_lanes + (n * in_shape.h + iy0) * pitch;
      if (taps == width) {
        cycles[i] = channel_maxima(rows, taps);
      } else {
        const std::size_t p = pitch;
        cycles[i] = fold_rounds(
            geo.in_channels, taps, width,
            [rows, p](std::size_t c, std::size_t t) { return rows[t * p + c]; });
      }
    }
    return {};
  }

  /// Σ over the lanes of each lane's max over `taps` consecutive rows.
  /// Lane sums are 32-bit (run_forward admits only channel counts whose
  /// sums fit); the two halves of each 32-bit lane add up separately.
  std::size_t channel_maxima(const Lane* rows, std::size_t taps) const {
    LaneVec32 low{};
    LaneVec32 high{};
    for (std::size_t c = 0; c < pitch; c += kVecLanes) {
      LaneVec m = load_lanes(rows + c);
      for (std::size_t t = 1; t < taps; ++t) {
        m = max_lanes(m, load_lanes(rows + t * pitch + c));
      }
      LaneVec32 pairs;
      __builtin_memcpy(&pairs, &m, sizeof pairs);
      low += pairs & 0xFFFF;
      high += pairs >> 16;
    }
    std::size_t total = 0;
    for (std::size_t l = 0; l < kVecLanes / 2; ++l) {
      total += std::size_t{low[l]} + high[l];
    }
    return total;
  }
};

/// GTA stage kernel: one task per dI row (n, c, iy), F·K MSRC ops
/// scattering into it, evaluated one (n, iy) unit at a time.
///
/// An MSRC op costs wl + drain + the dO nonzeros the mask look-ahead
/// ingests. The C tasks (n, ·, iy) run the same ops over the same dO rows,
/// so they share every op's all-pass count (built once per stage, per dO
/// row) and every round boundary; they differ only in the positions their
/// mask rows block. A unit lowers every channel's mask row — the positions
/// it lets through, as prefix counts — once into a position-major table of
/// blocked lanes, one per channel, plus a count per position of the
/// channels blocking it. Each (f, ky) op then sweeps the lanes once: every
/// channel's count is the all-pass count minus the blocked lanes of the dO
/// row's nonzeros, folded straight into that channel's round max; a round
/// costs wl + drain + its largest count. The same counts give the unit's
/// busy and register counters (their blocked total is the sum of the
/// per-position counts); MACs are counted once per stage (box_macs). A
/// unit whose masks block nothing folds whole rounds once for all C tasks.
struct GtaKernel {
  static constexpr const char* kStage = "gta";
  const CompressedRows& go_rows;
  const Lane* go_active;  ///< all-pass count per dO row
  const Interval* windows;   ///< per dO position: its clipped dI window
  const dataflow::ConvGeometry& geo;
  Shape out;
  Shape in;
  const CompressedRows* mask_rows;  ///< null: the all-pass mask
  std::size_t op_cycles;  ///< an op's cycles when it ingests nothing
  std::size_t width;      ///< PEs per group
  OpTotals stage;

  OpTotals operator()(std::size_t first, std::size_t last,
                      std::size_t* cycles) const {
    std::size_t ops = 0;
    std::size_t ingested = 0;
    for (std::size_t u = first; u < last; ++u) {
      unit(u / in.h, u % in.h, cycles, ops, ingested);
    }
    // An op that ingests a nonzeros is busy for op_cycles + a.
    return op_totals(ops, ops * op_cycles + ingested, ingested, 0,
                     geo.kernel);
  }

  /// Writes the cycles of tasks (n, c, iy) for every c; adds their op and
  /// ingested counts.
  void unit(std::size_t n, std::size_t iy, std::size_t* cycles,
            std::size_t& ops, std::size_t& ingested) const {
    const std::size_t cs = in.c;
    const std::size_t fs = out.c;
    TaskScratch& scratch = task_scratch();
    // oy·S + ky − P = iy: the dO rows writing this dI row, in ky order,
    // are oy_first, oy_first − 1, … (one per ky ≡ iy + P mod S, clipped
    // to the plane), `len` of them.
    std::size_t len = 0;
    std::size_t oy_first = 0;
    for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
      const std::int64_t num = static_cast<std::int64_t>(iy) +
                               static_cast<std::int64_t>(geo.padding) -
                               static_cast<std::int64_t>(ky);
      if (num < 0 || num % static_cast<std::int64_t>(geo.stride) != 0)
        continue;
      const auto oy = static_cast<std::size_t>(
          num / static_cast<std::int64_t>(geo.stride));
      if (oy < out.h && len++ == 0) oy_first = oy;
    }
    const std::size_t op_count = fs * len;
    const std::size_t round_count = (op_count + width - 1) / width;
    ops += cs * op_count;
    // Task (n, c, iy) sits at task0[c · IH]; op (f, j) reads dO row
    // row0 + f · OH − j.
    std::size_t* task0 = cycles + n * cs * in.h + iy;
    const std::size_t row0 = n * fs * out.h + oy_first;
    const std::size_t oh = out.h;
    std::size_t sum = 0;
    for (std::size_t f = 0; f < fs; ++f) {
      for (std::size_t j = 0; j < len; ++j) sum += go_active[row0 + f * oh - j];
    }
    ingested += cs * sum;

    // Every channel's blocked lanes: position p is blocked when its
    // window is not empty (the all-pass mask ingests p) but holds no
    // position the channel's mask row allows. Only the lanes of positions
    // some channel blocks are ever read.
    const std::size_t pitch = lane_pitch(cs, kGtaBlock);
    bool any_blocked = false;
    if (mask_rows != nullptr) {
      scratch.gta_allowed.resize(in.w + 1);
      scratch.gta_lanes.resize(out.w * pitch);
      scratch.gta_blockers.assign(out.w, 0);
      std::uint32_t* allowed = scratch.gta_allowed.data();
      Lane* lanes = scratch.gta_lanes.data();
      std::uint32_t* blockers = scratch.gta_blockers.data();
      for (std::size_t c = 0; c < cs; ++c) {
        // allowed[x]: how many of the mask row's positions lie below x
        // (a branch-free scatter and prefix sum: a loop per offset
        // mispredicts on every random gap).
        std::fill(allowed, allowed + in.w + 1, 0);
        for (const std::uint32_t o :
             mask_rows->row((n * cs + c) * in.h + iy).offsets) {
          allowed[o + 1] = 1;
        }
        for (std::size_t x = 0; x < in.w; ++x) allowed[x + 1] += allowed[x];
        for (std::size_t p = 0; p < out.w; ++p) {
          const Interval win = windows[p];
          const Lane lane =
              win.hi != win.lo && allowed[win.hi] == allowed[win.lo] ? 1 : 0;
          lanes[p * pitch + c] = lane;
          blockers[p] += lane;
          any_blocked |= lane != 0;
        }
      }
      if (pitch != cs) {
        for (std::size_t p = 0; p < out.w; ++p) {
          std::fill(lanes + p * pitch + cs, lanes + (p + 1) * pitch, 0);
        }
      }
    }
    if (!any_blocked) {
      const std::size_t total =
          round_count * op_cycles +
          fold_rounds(fs, len, width,
                      [this, row0, oh](std::size_t f, std::size_t j) {
                        return go_active[row0 + f * oh - j];
                      });
      for (std::size_t c = 0; c < cs; ++c) task0[c * in.h] = total;
      return;
    }

    const Lane* lanes = scratch.gta_lanes.data();
    const std::uint32_t* blockers = scratch.gta_blockers.data();
    scratch.gta_rows.resize(out.w);
    scratch.gta_round.assign(pitch, 0);
    scratch.gta_total.assign(pitch, 0);
    const Lane** rows = scratch.gta_rows.data();
    Lane* round = scratch.gta_round.data();
    std::size_t* total = scratch.gta_total.data();
    std::size_t blocked = 0;
    std::size_t in_round = 0;
    for (std::size_t f = 0; f < fs; ++f) {
      for (std::size_t j = 0; j < len; ++j) {
        const std::size_t r = row0 + f * oh - j;
        const Lane a = go_active[r];
        // No ingested nonzero, none blocked: every count is 0, which
        // leaves every round max as it is.
        if (a != 0) {
          std::size_t k = 0;
          for (const std::uint32_t x : go_rows.row(r).offsets) {
            if (blockers[x] == 0) continue;
            blocked += blockers[x];
            rows[k++] = lanes + x * pitch;
          }
          sweep(a, rows, k, round, pitch);
        }
        if (++in_round == width) {
          for (std::size_t c = 0; c < pitch; ++c) {
            total[c] += round[c];
            round[c] = 0;
          }
          in_round = 0;
        }
      }
    }
    ingested -= blocked;
    for (std::size_t c = 0; c < cs; ++c) {
      task0[c * in.h] = round_count * op_cycles + total[c] + round[c];
    }
  }

  /// One op's pass over a unit's `pitch` lanes: each lane's count is `a`
  /// minus that lane of the op's `k` blocking rows, folded into the
  /// lane's round max. A block's counts stay in registers while the
  /// blocking rows stream past.
  static void sweep(Lane a, const Lane* const* rows, std::size_t k,
                    Lane* round, std::size_t pitch) {
    constexpr std::size_t kVecs = kGtaBlock / kVecLanes;
    for (std::size_t c0 = 0; c0 < pitch; c0 += kGtaBlock) {
      LaneVec count[kVecs];
      for (LaneVec& v : count) v = LaneVec{} + a;
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t v = 0; v < kVecs; ++v) {
          count[v] -= load_lanes(rows[i] + c0 + v * kVecLanes);
        }
      }
      for (std::size_t v = 0; v < kVecs; ++v) {
        Lane* r = round + c0 + v * kVecLanes;
        const LaneVec max = max_lanes(count[v], load_lanes(r));
        __builtin_memcpy(r, &max, sizeof max);
      }
    }
  }
};

/// GTW stage kernel: one task per (n, f, c) kernel slice, OH·K OSRC ops
/// (zero dO rows schedule nothing), evaluated one (n, f) unit at a time.
///
/// An OSRC op's cycles depend only on nnz(I row) and ⌈nnz(dO row)/K⌉, so
/// each op is priced from two flat tables the stage builds once. The C
/// tasks of one (n, f) are adjacent and share the dO row and every ky
/// range, so their ops split into the same rounds: a unit runs them in
/// lockstep, one pass over (oy, ky) updating every channel's open round
/// from the channel-minor nnz table. Ops and rounds are priced in 32-bit
/// lanes (run_gtw admits only geometries whose largest op fits one);
/// each channel's total stays 64-bit. The counters and MACs are summed
/// once per stage.
struct GtwKernel {
  static constexpr const char* kStage = "gtw";
  const std::uint32_t* go_chunks;  ///< per dO row: ⌈nnz/K⌉ (0: empty)
  const std::uint32_t* in_nnz;     ///< per I row (n, c, y) at (n·H + y)·C + c
  const dataflow::ConvGeometry& geo;
  Shape out;
  Shape in;
  PeExact pe;
  GtwLane wl;  ///< stage-constant weight-load cycles (hoisted)
  std::size_t width;  ///< PEs per group
  OpTotals stage;

  OpTotals operator()(std::size_t first, std::size_t last,
                      std::size_t* cycles) const {
    for (std::size_t u = first; u < last; ++u) {
      channels(u, cycles + u * in.c);
    }
    return {};
  }

  /// Tasks (n, f, c) for every c, nf = n·F + f, in lockstep.
  void channels(std::size_t nf, std::size_t* total) const {
    const std::size_t n = nf / out.c;
    const std::size_t cs = in.c;
    const PeExact cost = pe;
    std::vector<GtwLane>& rounds = task_scratch().gtw_round;
    rounds.assign(cs, 0);
    GtwLane* round = rounds.data();
    std::fill(total, total + cs, 0);
    const std::uint32_t* chunks = go_chunks + nf * out.h;
    std::size_t in_round = 0;
    for (std::size_t oy = 0; oy < out.h; ++oy) {
      const GtwLane ch = chunks[oy];
      if (ch == 0) continue;  // zero dO row: nothing scheduled
      const auto [ky_lo, ky_hi, iy0] = valid_ky_range(oy, geo, in.h);
      const std::uint32_t* nnz = in_nnz + (n * in.h + iy0) * in.c;
      for (std::size_t t = ky_lo; t < ky_hi; ++t, nnz += in.c) {
        for (std::size_t c = 0; c < cs; ++c) {
          round[c] = std::max(round[c], cost.osrc_cycles(nnz[c], ch, wl));
        }
        if (++in_round == width) {
          for (std::size_t c = 0; c < cs; ++c) {
            total[c] += round[c];
            round[c] = 0;
          }
          in_round = 0;
        }
      }
    }
    for (std::size_t c = 0; c < cs; ++c) total[c] += round[c];
  }
};

/// FC stage kernel: one task per (sample, lane group); every task streams
/// the sample's compressed vector once into `lanes` accumulators (no
/// kernel preload — weight columns arrive from the buffer per ingested
/// element), as one op.
struct FcKernel {
  static constexpr const char* kStage = "fc";
  const CompressedRows& rows;
  std::size_t groups_per_sample;
  std::size_t drain;
  OpTotals stage;

  /// The op's cycles: one per ingested nonzero plus the drain.
  std::size_t op_cycles(std::size_t sample) const {
    return rows.row_nnz(sample) + drain;
  }

  OpTotals operator()(std::size_t first, std::size_t last,
                      std::size_t* cycles) const {
    for (std::size_t i = first; i < last; ++i) {
      cycles[i] = op_cycles(i / groups_per_sample);
    }
    return {};
  }
};

}  // namespace

ExactStageResult ExactEngine::run_forward(
    const Tensor& input, const dataflow::ConvGeometry& geo) const {
  return run_forward(compress_tensor(input), input.shape(), geo);
}

ExactStageResult ExactEngine::run_forward(
    const RowSet& rows, const Shape& in_shape,
    const dataflow::ConvGeometry& geo) const {
  require_rows(rows, in_shape, "forward input");
  const Shape out_shape = dataflow::conv_output_shape(geo, in_shape);
  const isa::RowBlock b =
      block_from(geo, in_shape.w, out_shape.w, isa::RowOpKind::SRC);

  // ForwardKernel keeps an input row's op cycles in a 16-bit lane and sums
  // channel maxima in 32-bit lanes, ⌈C/8⌉ to a lane: the widest row's op
  // must fit the first, and that many of them the second.
  const std::size_t wl = pe_.weight_load(b);
  const std::size_t widest = pe_.row_cycles(in_shape.w, wl);
  const std::size_t pitch = lane_pitch(in_shape.c, kVecLanes);
  ST_REQUIRE(widest <= std::numeric_limits<Lane>::max() &&
                 widest * (pitch / kVecLanes) <=
                     std::numeric_limits<std::uint32_t>::max(),
             "forward rows are too wide or too many: an op may take " +
                 std::to_string(widest) + " cycles across " +
                 std::to_string(in_shape.c) +
                 " channels, more than the 16-bit row lanes and their "
                 "32-bit sums hold");

  const std::size_t task_count =
      in_shape.n * geo.out_channels * out_shape.h;
  return run_tasks(
      task_count, task_count, [&](StageArena& arena) {
        // Every input row's SRC cost (see ForwardKernel), and its
        // channel sum per (n, iy).
        arena.src_lanes.assign(in_shape.n * in_shape.h * pitch, 0);
        arena.src_sums.assign(in_shape.n * in_shape.h, PeCost{});
        for (std::size_t r = 0; r < rows.rows(); ++r) {
          const PeCost cost = pe_.run_src(rows.row(r), b, wl);
          const std::size_t n = r / (in_shape.c * in_shape.h);
          const std::size_t c = r / in_shape.h % in_shape.c;
          const std::size_t ny = n * in_shape.h + r % in_shape.h;
          arena.src_lanes[ny * pitch + c] = static_cast<Lane>(cost.cycles);
          accumulate(arena.src_sums[ny], cost);
        }
        // Each of the F tasks (n, ·, oy) runs the ops of every channel's
        // rows in oy's window: F × the window sums, over every (n, oy).
        std::size_t ops = 0;
        PeCost sum;
        for (std::size_t n = 0; n < in_shape.n; ++n) {
          for (std::size_t oy = 0; oy < out_shape.h; ++oy) {
            const Interval win = clipped_window(oy, geo, in_shape.h);
            ops += geo.in_channels * (win.hi - win.lo);
            for (std::size_t iy = win.lo; iy < win.hi; ++iy) {
              accumulate(sum, arena.src_sums[n * in_shape.h + iy]);
            }
          }
        }
        const std::size_t fs = geo.out_channels;
        return ForwardKernel{
            arena.src_lanes.data(), pitch, geo, in_shape, out_shape,
            cfg_.pes_per_group,
            op_totals(fs * ops, fs * sum.cycles, fs * sum.ingested,
                      fs * sum.macs, geo.kernel)};
      });
}

ExactStageResult ExactEngine::run_gta(const Tensor& grad_output,
                                      const Shape& input_shape,
                                      const Tensor* prev_mask,
                                      const dataflow::ConvGeometry& geo) const {
  ST_REQUIRE(prev_mask == nullptr || prev_mask->shape() == input_shape,
             "GTA mask must have the input's shape");
  std::optional<RowSet> mask_rows;
  if (prev_mask != nullptr) mask_rows = compress_tensor(*prev_mask);
  return run_gta(compress_tensor(grad_output), grad_output.shape(),
                 input_shape, mask_rows ? &*mask_rows : nullptr, geo);
}

ExactStageResult ExactEngine::run_gta(const RowSet& go_rows,
                                      const Shape& out, const Shape& input_shape,
                                      const RowSet* mask_rows,
                                      const dataflow::ConvGeometry& geo) const {
  require_rows(go_rows, out, "GTA dO");
  ST_REQUIRE(out == dataflow::conv_output_shape(geo, input_shape),
             "GTA dO shape is not the conv output of the input shape");
  if (mask_rows != nullptr) require_rows(*mask_rows, input_shape, "GTA mask");
  ST_REQUIRE(out.w <= std::numeric_limits<Lane>::max(),
             "GTA dO rows are at most " +
                 std::to_string(std::numeric_limits<Lane>::max()) +
                 " positions wide (an op's ingested count is a 16-bit lane)");
  const isa::RowBlock b =
      block_from(geo, out.w, input_shape.w, isa::RowOpKind::MSRC);

  // A unit (n, iy) holds the C tasks (n, c, iy), IH apart in task order.
  const std::size_t task_count =
      out.n * geo.in_channels * input_shape.h;
  return run_tasks(
      task_count, out.n * input_shape.h, [&](StageArena& arena) {
        // Every dO position's clipped window, then every dO row's count
        // of nonzeros the all-pass mask ingests: those whose window is
        // not empty (see GtaKernel; masked units lower their own blocked
        // positions).
        arena.gta_windows.resize(out.w);
        for (std::size_t p = 0; p < out.w; ++p) {
          arena.gta_windows[p] = clipped_window(p, geo, input_shape.w);
        }
        arena.go_active.resize(go_rows.rows());
        for (std::size_t r = 0; r < go_rows.rows(); ++r) {
          Lane count = 0;
          for (const std::uint32_t x : go_rows.row(r).offsets) {
            const Interval win = arena.gta_windows[x];
            count += win.hi != win.lo ? 1 : 0;
          }
          arena.go_active[r] = count;
        }

        // MACs: box sums over the channel-summed mask (a null mask
        // allows every position of every channel).
        const std::size_t cs = input_shape.c;
        const BoxLayout l{input_shape.h, input_shape.w};
        std::vector<std::size_t>& table = arena.box_table;
        table.assign(out.n * l.plane(), 0);
        for (std::size_t n = 0; n < out.n; ++n) {
          for (std::size_t y = 0; y < l.h; ++y) {
            std::size_t* cells = table.data() + l.cell(n, y, 0);
            if (mask_rows == nullptr) {
              std::fill(cells, cells + l.w, cs);
              continue;
            }
            for (std::size_t c = 0; c < cs; ++c) {
              const SparseRowView m = mask_rows->row((n * cs + c) * l.h + y);
              for (const std::uint32_t x : m.offsets) ++cells[x];
            }
          }
        }
        integrate(table.data(), out.n, l);
        const std::size_t macs = box_macs(go_rows, out, geo, table.data(), l);
        return GtaKernel{go_rows,
                         arena.go_active.data(),
                         arena.gta_windows.data(),
                         geo,
                         out,
                         input_shape,
                         mask_rows,
                         pe_.msrc_cost(0, 0, pe_.weight_load(b)).cycles,
                         cfg_.pes_per_group,
                         OpTotals{.macs = macs}};
      });
}

ExactStageResult ExactEngine::run_gtw(const Tensor& grad_output,
                                      const Tensor& input,
                                      const dataflow::ConvGeometry& geo) const {
  return run_gtw(compress_tensor(grad_output), grad_output.shape(),
                 compress_tensor(input), input.shape(), geo);
}

ExactStageResult ExactEngine::run_gtw(const RowSet& go_rows,
                                      const Shape& out, const RowSet& in_rows,
                                      const Shape& in,
                                      const dataflow::ConvGeometry& geo) const {
  require_rows(go_rows, out, "GTW dO");
  require_rows(in_rows, in, "GTW input");
  ST_REQUIRE(out == dataflow::conv_output_shape(geo, in),
             "GTW dO shape is not the conv output of the input shape");
  const isa::RowBlock b =
      block_from(geo, out.w, geo.kernel, isa::RowOpKind::OSRC);
  // GtwKernel prices ops in 32-bit lanes: the widest op a geometry can
  // hold, a dense dO row's chunks over a dense I row, must fit one.
  const std::size_t wl = pe_.weight_load(b);
  const std::size_t widest =
      pe_.osrc_cost(in.w, PeExact::osrc_chunks(out.w, geo.kernel), 0, wl)
          .cycles;
  ST_REQUIRE(widest <= std::numeric_limits<GtwLane>::max(),
             "GTW rows are too wide: an op may take " +
                 std::to_string(widest) +
                 " cycles, more than a 32-bit lane holds");

  // A unit (n, f) holds the C tasks (n, f, c), adjacent in task order.
  const std::size_t task_count =
      out.n * geo.out_channels * geo.in_channels;
  return run_tasks(task_count, out.n * geo.out_channels,
                   [&](StageArena& arena) {
    // The two count tables every op is priced from (see GtwKernel) — nnz
    // channel-minor, so a channel run reads it contiguously — and, for
    // the MACs, the channel-summed occupancy of I.
    arena.go_chunks.resize(go_rows.rows());
    for (std::size_t r = 0; r < go_rows.rows(); ++r) {
      arena.go_chunks[r] = static_cast<std::uint32_t>(
          PeExact::osrc_chunks(go_rows.row_nnz(r), geo.kernel));
    }
    arena.in_nnz.resize(in_rows.rows());
    const BoxLayout l{in.h, in.w};
    std::vector<std::size_t>& table = arena.box_table;
    table.assign(out.n * l.plane(), 0);
    for (std::size_t n = 0; n < out.n; ++n) {
      for (std::size_t c = 0; c < in.c; ++c) {
        for (std::size_t y = 0; y < l.h; ++y) {
          const SparseRowView row = in_rows.row((n * in.c + c) * in.h + y);
          arena.in_nnz[(n * in.h + y) * in.c + c] =
              static_cast<std::uint32_t>(row.nnz());
          std::size_t* cells = table.data() + l.cell(n, y, 0);
          for (const std::uint32_t x : row.offsets) ++cells[x];
        }
      }
    }
    integrate(table.data(), out.n, l);
    const std::size_t macs = box_macs(go_rows, out, geo, table.data(), l);

    // The other counters, per (n, oy) instead of per op: every channel c
    // pairs each nonempty dO row (n, f, oy), ch = ⌈nnz/K⌉ chunks, with
    // every I row (n, c, iy) of oy's window, and osrc_cost charges that op
    // ch·(wl + nnz(I)) + drain cycles for ch·nnz(I) ingested elements. The
    // table's full-width box over the window's rows is Σ_c Σ_iy nnz(I).
    std::size_t ops = 0;         // per channel
    std::size_t chunk_taps = 0;  // Σ ch over one channel's ops
    std::size_t ingested = 0;
    for (std::size_t n = 0; n < out.n; ++n) {
      const std::size_t* sat = table.data() + n * l.plane();
      for (std::size_t oy = 0; oy < out.h; ++oy) {
        const Interval win = clipped_window(oy, geo, in.h);
        const std::size_t taps = win.hi - win.lo;
        const std::size_t nnz =
            sat[win.hi * l.pitch() + in.w] - sat[win.lo * l.pitch() + in.w];
        for (std::size_t f = 0; f < out.c; ++f) {
          const std::size_t ch = arena.go_chunks[(n * out.c + f) * out.h + oy];
          ops += ch != 0 ? taps : 0;
          chunk_taps += ch * taps;
          ingested += ch * nnz;
        }
      }
    }
    const std::size_t row_ops = in.c * ops;
    const std::size_t busy = wl * in.c * chunk_taps + ingested +
                             cfg_.timing.pipeline_drain * row_ops;
    return GtwKernel{arena.go_chunks.data(),
                     arena.in_nnz.data(),
                     geo,
                     out,
                     in,
                     pe_,
                     static_cast<GtwLane>(wl),
                     cfg_.pes_per_group,
                     op_totals(row_ops, busy, ingested, macs, geo.kernel)};
  });
}

ExactStageResult ExactEngine::run_fc(const RowSet& rows,
                                     std::size_t groups_per_sample,
                                     std::size_t lanes) const {
  ST_REQUIRE(groups_per_sample > 0 && lanes > 0,
             "FC stage needs lane groups");

  const std::size_t samples = rows.rows();
  const std::size_t task_count = samples * groups_per_sample;
  return run_tasks(task_count, task_count, [&](StageArena&) {
    FcKernel kernel{rows, groups_per_sample, cfg_.timing.pipeline_drain, {}};
    std::size_t busy = 0;
    for (std::size_t n = 0; n < samples; ++n) busy += kernel.op_cycles(n);
    const std::size_t ingested = rows.total_nnz();
    kernel.stage = op_totals(task_count, groups_per_sample * busy,
                             groups_per_sample * ingested,
                             groups_per_sample * ingested * lanes, lanes);
    return kernel;
  });
}

}  // namespace sparsetrain::sim
