#include "sim/exact_engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
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

/// Per-worker-thread scratch. Capacities grow to the stage's steady state
/// within the first few tasks, after which evaluating a task performs no
/// heap allocation at all (the zero-alloc contract of the hot path).
struct TaskScratch {
  std::vector<std::uint64_t> gta_blocked;  ///< GTA: blocked dO positions
  std::vector<std::uint32_t> gta_oy;  ///< GTA: source dO rows, ky order
  std::vector<std::uint32_t> gta_counts;  ///< GTA: ingested, per (oy, f)
  std::vector<std::size_t> gtw_round;  ///< GTW: open round max per channel
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
/// long as its slowest op. PeGroupReducer's fold without its counters —
/// the stage kernels take those from count sums instead.
class RoundMax {
 public:
  explicit RoundMax(std::size_t width) : width_(width) {}

  void add(std::size_t cycles) {
    round_ = std::max(round_, cycles);
    if (++in_round_ == width_) {
      total_ += round_;
      round_ = 0;
      in_round_ = 0;
    }
  }

  /// The task's cycles, its partial last round included.
  std::size_t finish() const { return total_ + round_; }

 private:
  std::size_t width_;
  std::size_t total_ = 0;
  std::size_t round_ = 0;
  std::size_t in_round_ = 0;
};

/// Bit count in portable word arithmetic: on baseline x86-64 (no POPCNT)
/// std::popcount lowers to a libgcc call that costs more than the rest of
/// a GTA row op.
std::size_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<std::size_t>((x * 0x0101010101010101ull) >> 56);
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

/// Sets bit p (p < positions) of `active` when MSRC's look-ahead would
/// ingest a dO nonzero at p: its output window [p·S − P, +K) holds an
/// allowed position of the dI row's `mask` (null: every position of a
/// row `len` long is allowed). Windows advance monotonically with p, so
/// one forward scan over the mask serves every position.
void lower_mask(const float* mask, std::size_t len, std::size_t positions,
                const dataflow::ConvGeometry& geo, std::uint64_t* active) {
  std::size_t x = 0;  // no allowed position in [window lo, x)
  for (std::size_t p = 0; p < positions; ++p) {
    const Interval win = clipped_window(p, geo, len);
    if (win.hi == win.lo) continue;
    if (mask != nullptr) {
      x = std::max(x, win.lo);
      while (x < win.hi && mask[x] == 0.0f) ++x;
      if (x == win.hi) continue;
    }
    active[p >> 6] |= std::uint64_t{1} << (p & 63);
  }
}

/// Shared coordination state of one tiled stage. Heap-held behind a
/// shared_ptr: helper tasks that reach the pool after the stage finished
/// must still fail their tile claim safely. Helpers touch the kernel and
/// arena (whose lifetimes end with run_tasks' frame) only after a
/// successful claim, and the merging caller cannot return before every
/// claimed tile's ready flag rose — so those references are always alive
/// when dereferenced.
struct TileRun {
  explicit TileRun(std::size_t tiles) : ready(tiles, 0) {}
  std::atomic<std::size_t> next{0};  ///< tile claim counter
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint8_t> ready;   ///< guarded by mu
  std::exception_ptr error;          ///< first tile error (guarded by mu)

  void mark_ready(std::size_t t) {
    {
      std::lock_guard lock(mu);
      ready[t] = 1;
    }
    cv.notify_all();
  }

  void record_error() {
    std::lock_guard lock(mu);
    if (!error) error = std::current_exception();
  }
};

}  // namespace

struct ExactEngine::StageArena {
  std::vector<std::size_t> cycles;       ///< per-task cycles
  std::vector<OpTotals> tile_totals;     ///< per-tile activity (parallel)
  LeastLoaded<std::size_t> sched;        ///< least-loaded group merge
  std::vector<std::size_t> src_cycles;   ///< forward: cycles per input row
  std::vector<PeCost> src_sums;          ///< forward: channel sums per (n, iy)
  std::vector<std::uint64_t> go_bits;    ///< GTA: dO occupancy over f
  std::vector<std::uint32_t> go_active;  ///< GTA: all-pass counts over f
  std::vector<std::uint64_t> all_active; ///< GTA: all-pass active bits
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

ExactEngine::RowSet ExactEngine::compress(const Tensor& t) const {
  return compress_tensor(t, worker_pool());
}

std::size_t ExactEngine::tile_for(std::size_t task_count,
                                  std::size_t est_ops_per_task,
                                  std::size_t run_length) const {
  if (opts_.tile_tasks != 0) return opts_.tile_tasks;
  // Aim for a roughly constant amount of work per tile: GTW tasks often
  // schedule only a handful of row ops (sparse dO rows skip whole
  // slices) and pack thousands of tasks per tile, while op-heavy forward
  // tasks split finely. Then cap so the stage still spreads over the
  // pool with slack for load balance, and round up to whole runs of the
  // tasks a kernel evaluates together. Tile size affects wall-clock only,
  // never results (the merge consumes tasks in index order regardless).
  constexpr std::size_t kTileRowOps = 2048;
  constexpr std::size_t kMaxTile = 4096;
  std::size_t tile =
      kTileRowOps / std::max<std::size_t>(1, est_ops_per_task);
  tile = std::clamp<std::size_t>(tile, 1, kMaxTile);
  const util::ThreadPool* pool = worker_pool();
  const std::size_t threads =
      (pool != nullptr ? pool->worker_count() : 0) + 1;
  const std::size_t balance_cap =
      std::max<std::size_t>(1, task_count / (4 * threads));
  tile = std::max<std::size_t>(1, std::min(tile, balance_cap));
  return (tile + run_length - 1) / run_length * run_length;
}

template <typename MakeKernel>
ExactStageResult ExactEngine::run_tasks(std::size_t task_count,
                                        std::size_t est_ops_per_task,
                                        std::size_t run_length,
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
      tile_for(task_count, est_ops_per_task, run_length);
  const std::size_t tiles = (task_count + tile - 1) / tile;
  arena.cycles.resize(task_count);
  std::size_t* cycles = arena.cycles.data();

  OpTotals totals = kernel.stage;
  if (pool == nullptr || tiles <= 1) {
    totals += kernel(0, task_count, cycles);
    for (std::size_t i = 0; i < task_count; ++i) sched.assign(cycles[i]);
  } else {
    arena.tile_totals.assign(tiles, OpTotals{});

    auto run = std::make_shared<TileRun>(tiles);
    auto eval_tile = [&](std::size_t t) {
      try {
        const std::size_t first = t * tile;
        const std::size_t last = std::min(first + tile, task_count);
        // Each tile reads its own copy of the kernel: the original sits
        // on the merging thread's stack next to data that thread writes
        // while it evaluates tiles, and sharing that cache line across
        // threads made parallel GTA slower than serial.
        const Kernel k = kernel;
        arena.tile_totals[t] = k(first, last, cycles + first);
      } catch (...) {
        run->record_error();
      }
      run->mark_ready(t);
    };

    // Helpers claim tiles from the shared counter; the caller claims too
    // while the tile it must merge next is not ready, so progress never
    // depends on the pool's queue draining (nested stages are safe).
    const std::size_t helpers =
        std::min(pool->worker_count(), tiles - 1);
    for (std::size_t h = 0; h < helpers; ++h) {
      try {
        pool->submit([run, &eval_tile] {
          for (;;) {
            const std::size_t t =
                run->next.fetch_add(1, std::memory_order_relaxed);
            if (t >= run->ready.size()) return;
            eval_tile(t);
          }
        });
      } catch (...) {
        run->record_error();
        break;
      }
    }

    // Merge tiles strictly in tile order (= task order), overlapping the
    // merge of tile t with the evaluation of later tiles.
    std::size_t merged = 0;
    while (merged < tiles) {
      bool is_ready;
      {
        std::lock_guard lock(run->mu);
        is_ready = run->ready[merged] != 0;
      }
      if (!is_ready) {
        const std::size_t t =
            run->next.fetch_add(1, std::memory_order_relaxed);
        if (t < tiles) {
          eval_tile(t);
          continue;
        }
        std::unique_lock lock(run->mu);
        run->cv.wait(lock, [&] { return run->ready[merged] != 0; });
      }
      const std::size_t first = merged * tile;
      const std::size_t last = std::min(first + tile, task_count);
      for (std::size_t i = first; i < last; ++i) sched.assign(cycles[i]);
      totals += arena.tile_totals[merged];
      ++merged;
    }

    std::exception_ptr error;
    {
      std::lock_guard lock(run->mu);
      error = run->error;
    }
    if (error) std::rethrow_exception(error);
  }

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
/// prices every physical input row once (`row_cycles`, N·C·IH entries)
/// and a task folds table entries, in the reference order (c-major, ky
/// ascending), into its PE rounds. The counters depend only on (n, oy),
/// so the stage sums them once (`stage`).
struct ForwardKernel {
  static constexpr const char* kStage = "forward";
  const std::size_t* row_cycles;
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
      const std::size_t* row = row_cycles + n * in_shape.c * in_shape.h + iy0;
      RoundMax fold(width);
      for (std::size_t c = 0; c < geo.in_channels; ++c, row += in_shape.h) {
        for (std::size_t t = 0; t < taps; ++t) fold.add(row[t]);
      }
      cycles[i - first] = fold.finish();
    }
    return {};
  }
};

/// GTA stage kernel: one task per dI row (n, c, iy), F·K MSRC ops
/// scattering into it.
///
/// An MSRC op's cycles depend only on how many of its dO nonzeros the
/// mask look-ahead ingests, and whether position p is ingested depends
/// only on p and the task's mask row (lower_mask). The stage builds, once,
/// the dO occupancy as planes over f — word w of row (n, f, oy) at
/// ((n·OH + oy)·words + w)·F + f — and each row's count of nonzeros the
/// all-pass mask ingests, as columns over f at (n·OH + oy)·F + f. A task
/// lowers its mask row into the positions it blocks among those; for each
/// source row oy it then computes all F counts in one contiguous AND +
/// popcount sweep per blocking word, and folds them in (f, ky) order. A
/// task that blocks nothing reads the counts alone. The ingested counts
/// also give the task's busy and register counters, which a tile sums;
/// MACs are counted once per stage (box_macs).
struct GtaKernel {
  static constexpr const char* kStage = "gta";
  const std::uint64_t* go_bits;    ///< occupancy planes over f
  const std::uint32_t* go_active;  ///< all-pass ingested counts over f
  std::size_t words;               ///< 64-bit words per dO row
  const dataflow::ConvGeometry& geo;
  Shape out;
  Shape in_shape;
  const PeExact& pe;
  const std::uint64_t* all_active;  ///< positions the all-pass mask ingests
  const Tensor* prev_mask;
  std::size_t wl;  ///< stage-constant weight-load cycles (hoisted)
  std::size_t width;  ///< PEs per group
  OpTotals stage;

  OpTotals operator()(std::size_t first, std::size_t last,
                      std::size_t* cycles) const {
    std::size_t ops = 0;
    std::size_t ingested = 0;
    for (std::size_t i = first; i < last; ++i) {
      cycles[i - first] = task(i, ops, ingested);
    }
    // An op that ingests a nonzeros is busy for msrc_cost(0)'s cycles
    // plus a.
    return op_totals(ops, ops * pe.msrc_cost(0, 0, wl).cycles + ingested,
                     ingested, 0, geo.kernel);
  }

  /// Task `index`'s cycles; adds its op and ingested counts.
  std::size_t task(std::size_t index, std::size_t& ops,
                   std::size_t& ingested) const {
    const std::size_t iy = index % in_shape.h;
    const std::size_t c = (index / in_shape.h) % geo.in_channels;
    const std::size_t n = index / (in_shape.h * geo.in_channels);
    const std::size_t nw = words;
    const std::size_t fs = geo.out_channels;
    TaskScratch& scratch = task_scratch();
    // The positions this task's mask blocks among those the all-pass
    // mask ingests (its own active set is a subset of those).
    std::vector<std::uint64_t>& blocked = scratch.gta_blocked;
    blocked.assign(nw, 0);
    bool any_blocked = false;
    if (prev_mask != nullptr) {
      lower_mask(prev_mask->row(n, c, iy).data(), in_shape.w, out.w, geo,
                 blocked.data());
      for (std::size_t w = 0; w < nw; ++w) {
        blocked[w] = all_active[w] & ~blocked[w];
        any_blocked |= blocked[w] != 0;
      }
    }
    // oy·S + ky − P = iy → every (oy, ky) pair writing this row, in ky
    // order, kept as the (n, oy) plane index n·OH + oy. The mapping
    // depends only on iy, so resolve it once per task instead of once per
    // (f, ky).
    std::vector<std::uint32_t>& src = scratch.gta_oy;
    src.clear();
    for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
      const std::int64_t num = static_cast<std::int64_t>(iy) +
                               static_cast<std::int64_t>(geo.padding) -
                               static_cast<std::int64_t>(ky);
      if (num < 0 || num % static_cast<std::int64_t>(geo.stride) != 0)
        continue;
      const auto oy = static_cast<std::size_t>(
          num / static_cast<std::int64_t>(geo.stride));
      if (oy >= out.h) continue;
      src.push_back(static_cast<std::uint32_t>(n * out.h + oy));
    }
    ops += fs * src.size();
    const auto fold = [&](const auto& count) {
      RoundMax rounds(width);
      for (std::size_t f = 0; f < fs; ++f) {
        for (std::size_t j = 0; j < src.size(); ++j) {
          const std::size_t a = count(j, f);
          ingested += a;
          rounds.add(pe.msrc_cost(a, 0, wl).cycles);
        }
      }
      return rounds.finish();
    };
    if (!any_blocked) {
      return fold([&](std::size_t j, std::size_t f) {
        return std::size_t{go_active[src[j] * fs + f]};
      });
    }
    std::vector<std::uint32_t>& counts = scratch.gta_counts;
    counts.resize(src.size() * fs);
    for (std::size_t j = 0; j < src.size(); ++j) {
      std::uint32_t* count = counts.data() + j * fs;
      const std::uint32_t* active = go_active + src[j] * fs;
      std::copy(active, active + fs, count);
      for (std::size_t w = 0; w < nw; ++w) {
        const std::uint64_t b = blocked[w];
        if (b == 0) continue;
        const std::uint64_t* plane = go_bits + (src[j] * nw + w) * fs;
        for (std::size_t f = 0; f < fs; ++f) {
          count[f] -= static_cast<std::uint32_t>(popcount64(plane[f] & b));
        }
      }
    }
    return fold([&](std::size_t j, std::size_t f) {
      return std::size_t{counts[j * fs + f]};
    });
  }
};

/// GTW stage kernel: one task per (n, f, c) kernel slice, OH·K OSRC ops
/// (zero dO rows schedule nothing).
///
/// An OSRC op's cycles depend only on nnz(I row) and ⌈nnz(dO row)/K⌉, so
/// each op is priced from two flat tables the stage builds once. The C
/// tasks of one (n, f) are adjacent and share the dO row and every ky
/// range, so their ops split into the same rounds: the kernel runs them
/// in lockstep, one pass over (oy, ky) updating every channel's open
/// round from the channel-minor nnz table. The counters and MACs are
/// summed once per stage.
struct GtwKernel {
  static constexpr const char* kStage = "gtw";
  const std::uint32_t* go_chunks;  ///< per dO row: ⌈nnz/K⌉ (0: empty)
  const std::uint32_t* in_nnz;     ///< per I row (n, c, y) at (n·H + y)·C + c
  const dataflow::ConvGeometry& geo;
  Shape out;
  Shape in;
  const PeExact& pe;
  std::size_t wl;  ///< stage-constant weight-load cycles (hoisted)
  std::size_t width;  ///< PEs per group
  OpTotals stage;

  OpTotals operator()(std::size_t first, std::size_t last,
                      std::size_t* cycles) const {
    // A tile may start or end inside a channel run (pinned tile sizes).
    for (std::size_t i = first; i < last;) {
      const std::size_t c_lo = i % in.c;
      const std::size_t c_hi = std::min(in.c, c_lo + (last - i));
      channels(i / in.c, c_lo, c_hi, cycles + (i - first));
      i += c_hi - c_lo;
    }
    return {};
  }

  /// Tasks (n, f, c) for c in [c_lo, c_hi), nf = n·F + f, in lockstep.
  void channels(std::size_t nf, std::size_t c_lo, std::size_t c_hi,
                std::size_t* total) const {
    const std::size_t n = nf / out.c;
    const std::size_t cs = c_hi - c_lo;
    std::vector<std::size_t>& round = task_scratch().gtw_round;
    round.assign(cs, 0);
    std::fill(total, total + cs, 0);
    const std::uint32_t* chunks = go_chunks + nf * out.h;
    std::size_t in_round = 0;
    for (std::size_t oy = 0; oy < out.h; ++oy) {
      const std::size_t ch = chunks[oy];
      if (ch == 0) continue;  // zero dO row: nothing scheduled
      const auto [ky_lo, ky_hi, iy0] = valid_ky_range(oy, geo, in.h);
      const std::uint32_t* nnz = in_nnz + (n * in.h + iy0) * in.c + c_lo;
      for (std::size_t t = ky_lo; t < ky_hi; ++t, nnz += in.c) {
        for (std::size_t c = 0; c < cs; ++c) {
          round[c] =
              std::max(round[c], pe.osrc_cost(nnz[c], ch, 0, wl).cycles);
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
      cycles[i - first] = op_cycles(i / groups_per_sample);
    }
    return {};
  }
};

}  // namespace

ExactStageResult ExactEngine::run_forward(
    const Tensor& input, const dataflow::ConvGeometry& geo) const {
  return run_forward(compress(input), input.shape(), geo);
}

ExactStageResult ExactEngine::run_forward(
    const RowSet& rows, const Shape& in_shape,
    const dataflow::ConvGeometry& geo) const {
  require_rows(rows, in_shape, "forward input");
  const Shape out_shape = dataflow::conv_output_shape(geo, in_shape);
  const isa::RowBlock b =
      block_from(geo, in_shape.w, out_shape.w, isa::RowOpKind::SRC);

  const std::size_t task_count =
      in_shape.n * geo.out_channels * out_shape.h;
  return run_tasks(
      task_count, geo.in_channels * geo.kernel, 1, [&](StageArena& arena) {
        // Every input row's SRC cost (see ForwardKernel), and its
        // channel sum per (n, iy).
        const std::size_t wl = pe_.weight_load(b);
        arena.src_cycles.resize(rows.rows());
        arena.src_sums.assign(in_shape.n * in_shape.h, PeCost{});
        for (std::size_t r = 0; r < rows.rows(); ++r) {
          const PeCost cost = pe_.run_src(rows.row(r), b, wl);
          arena.src_cycles[r] = cost.cycles;
          const std::size_t n = r / (in_shape.c * in_shape.h);
          accumulate(arena.src_sums[n * in_shape.h + r % in_shape.h], cost);
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
            arena.src_cycles.data(), geo, in_shape, out_shape,
            cfg_.pes_per_group,
            op_totals(fs * ops, fs * sum.cycles, fs * sum.ingested,
                      fs * sum.macs, geo.kernel)};
      });
}

ExactStageResult ExactEngine::run_gta(const Tensor& grad_output,
                                      const Shape& input_shape,
                                      const Tensor* prev_mask,
                                      const dataflow::ConvGeometry& geo) const {
  return run_gta(compress(grad_output), grad_output.shape(), input_shape,
                 prev_mask, geo);
}

ExactStageResult ExactEngine::run_gta(const RowSet& go_rows,
                                      const Shape& out, const Shape& input_shape,
                                      const Tensor* prev_mask,
                                      const dataflow::ConvGeometry& geo) const {
  require_rows(go_rows, out, "GTA dO");
  ST_REQUIRE(out == dataflow::conv_output_shape(geo, input_shape),
             "GTA dO shape is not the conv output of the input shape");
  ST_REQUIRE(prev_mask == nullptr || prev_mask->shape() == input_shape,
             "GTA mask must have the input's shape");
  const isa::RowBlock b =
      block_from(geo, out.w, input_shape.w, isa::RowOpKind::MSRC);

  const std::size_t task_count =
      out.n * geo.in_channels * input_shape.h;
  return run_tasks(
      task_count, geo.out_channels * geo.kernel, 1, [&](StageArena& arena) {
        // The active bitset of the all-pass mask, then the dO occupancy
        // planes and all-pass counts (see GtaKernel; masked tasks lower
        // their own active sets).
        const std::size_t fs = out.c;
        const std::size_t words = (out.w + 63) / 64;
        arena.all_active.assign(words, 0);
        lower_mask(nullptr, input_shape.w, out.w, geo,
                   arena.all_active.data());
        const std::uint64_t* all_active = arena.all_active.data();
        arena.go_bits.assign(out.n * out.h * words * fs, 0);
        arena.go_active.resize(out.n * out.h * fs);
        for (std::size_t n = 0; n < out.n; ++n) {
          for (std::size_t f = 0; f < fs; ++f) {
            for (std::size_t oy = 0; oy < out.h; ++oy) {
              const std::size_t plane = n * out.h + oy;
              std::uint64_t* bits = arena.go_bits.data() + plane * words * fs;
              std::uint32_t count = 0;
              for (const std::uint32_t x :
                   go_rows.row((n * fs + f) * out.h + oy).offsets) {
                const std::uint64_t bit = std::uint64_t{1} << (x & 63);
                bits[(x >> 6) * fs + f] |= bit;
                count += (all_active[x >> 6] & bit) != 0 ? 1 : 0;
              }
              arena.go_active[plane * fs + f] = count;
            }
          }
        }

        // MACs: box sums over the channel-summed mask (a null mask
        // allows every position).
        const BoxLayout l{input_shape.h, input_shape.w};
        std::vector<std::size_t>& table = arena.box_table;
        table.assign(out.n * l.plane(), 0);
        for (std::size_t n = 0; n < out.n; ++n) {
          for (std::size_t y = 0; y < l.h; ++y) {
            std::size_t* cells = table.data() + l.cell(n, y, 0);
            for (std::size_t c = 0; c < geo.in_channels; ++c) {
              const float* m = prev_mask == nullptr
                                   ? nullptr
                                   : prev_mask->row(n, c, y).data();
              for (std::size_t x = 0; x < l.w; ++x) {
                cells[x] += m == nullptr || m[x] != 0.0f ? 1 : 0;
              }
            }
          }
        }
        integrate(table.data(), out.n, l);
        const std::size_t macs = box_macs(go_rows, out, geo, table.data(), l);
        return GtaKernel{arena.go_bits.data(),
                         arena.go_active.data(),
                         words,
                         geo,
                         out,
                         input_shape,
                         pe_,
                         all_active,
                         prev_mask,
                         pe_.weight_load(b),
                         cfg_.pes_per_group,
                         OpTotals{.macs = macs}};
      });
}

ExactStageResult ExactEngine::run_gtw(const Tensor& grad_output,
                                      const Tensor& input,
                                      const dataflow::ConvGeometry& geo) const {
  return run_gtw(compress(grad_output), grad_output.shape(),
                 compress(input), input.shape(), geo);
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

  const std::size_t task_count =
      out.n * geo.out_channels * geo.in_channels;
  // GTW tasks skip every zero dO row outright, so the realistic op count
  // per task is the nonempty-row fraction of the nominal OH·K (sparse
  // gradients make this a small handful — big tiles, few claims).
  const std::size_t est_ops = std::max<std::size_t>(
      1, go_rows.rows() == 0
             ? 1
             : go_rows.nonempty_rows() * out.h * geo.kernel /
                   go_rows.rows());
  return run_tasks(task_count, est_ops, in.c, [&](StageArena& arena) {
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
    const std::size_t wl = pe_.weight_load(b);
    const std::size_t busy = wl * in.c * chunk_taps + ingested +
                             cfg_.timing.pipeline_drain * row_ops;
    return GtwKernel{arena.go_chunks.data(),
                     arena.in_nnz.data(),
                     geo,
                     out,
                     in,
                     pe_,
                     wl,
                     cfg_.pes_per_group,
                     op_totals(row_ops, busy, ingested, macs, geo.kernel)};
  });
}

ExactStageResult ExactEngine::run_fc(const Tensor& operands,
                                     std::size_t groups_per_sample,
                                     std::size_t lanes) const {
  const Shape& s = operands.shape();
  ST_REQUIRE(s.c == 1 && s.h == 1,
             "FC operands must be {N, 1, 1, L} (one vector per sample)");
  ST_REQUIRE(groups_per_sample > 0 && lanes > 0,
             "FC stage needs lane groups");

  const RowSet rows = compress(operands);

  const std::size_t task_count = s.n * groups_per_sample;
  return run_tasks(task_count, 1, 1, [&](StageArena&) {
    FcKernel kernel{rows, groups_per_sample, cfg_.timing.pipeline_drain, {}};
    std::size_t busy = 0;
    for (std::size_t n = 0; n < s.n; ++n) busy += kernel.op_cycles(n);
    const std::size_t ingested = rows.total_nnz();
    kernel.stage = op_totals(task_count, groups_per_sample * busy,
                             groups_per_sample * ingested,
                             groups_per_sample * ingested * lanes, lanes);
    return kernel;
  });
}

}  // namespace sparsetrain::sim
