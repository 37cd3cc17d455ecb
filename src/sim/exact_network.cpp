#include "sim/exact_network.hpp"

#include <atomic>
#include <mutex>
#include <optional>

#include "sim/profile_hook.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace sparsetrain::sim {

namespace {

/// Operand tags for the per-tensor stream derivation: mix64 over (seed,
/// layer, tag) — the same decorrelation the Session's seeding uses — so
/// every synthesised tensor gets an independent stream whatever stage
/// subset the program contains.
enum : std::uint64_t { kInput = 1, kGrad = 2, kMask = 3, kFcBase = 4 };

/// The seed of one operand tensor's stream.
std::uint64_t stream(std::uint64_t seed, std::size_t layer,
                     std::uint64_t tag) {
  return mix64(mix64(seed, layer), tag);
}

/// The rows sparse_normal_rows() draws for an operand of `shape` at
/// `density` from stream `seed`, profiled as an `operands` stage of
/// shape's N·C·H rows.
ExactEngine::RowSet synthesise(ExactProfiler* profiler, std::uint64_t seed,
                               const Shape& shape, double density) {
  const StageTimer timer(profiler, "operands");
  ExactEngine::RowSet rows = sparse_normal_rows(seed, shape, density);
  timer.record(1, shape.n * shape.c * shape.h, 1);
  return rows;
}

/// One lazily synthesised operand of a layer. call_once gates it, so a
/// unit that needs rows another unit is already synthesising simply waits
/// for them (the "operand-cache readiness" edges of the stage graph).
struct Operand {
  std::once_flag once;
  std::optional<ExactEngine::RowSet> rows;
};

/// The operands of one layer, so every stage sharing one (Forward + GTW
/// share I, GTA + GTW share dO) synthesises it exactly once per
/// whole-program run, whatever order the stage graph executes its units
/// in. `pending` counts this layer's units not yet finished; when it hits
/// zero the operands are released, so the roughly program-ordered claim
/// loop still keeps only a few layers' operands alive at a time.
struct LayerOperands {
  Operand input;
  Operand grad;
  Operand mask;  ///< synthesised only when the mask gates (ρ < 1)
  std::atomic<std::size_t> pending{0};

  void release() {
    input.rows.reset();
    grad.rows.reset();
    mask.rows.reset();
  }
};

}  // namespace

SimReport run_exact(const ArchConfig& cfg, const isa::Program& program,
                    const workload::NetworkConfig& net,
                    const workload::SparsityProfile& profile,
                    std::uint64_t seed, const ExactOptions& opts) {
  return run_exact(ExactEngine(cfg, opts), program, net, profile, seed);
}

SimReport run_exact(const ExactEngine& engine, const isa::Program& program,
                    const workload::NetworkConfig& net,
                    const workload::SparsityProfile& profile,
                    std::uint64_t seed) {
  const ArchConfig& cfg = engine.config();
  ST_REQUIRE(profile.size() == net.layers.size(),
             "profile does not match network");
  ST_REQUIRE(program.batch > 0, "program batch must be positive");
  const std::size_t batch = program.batch;

  SimReport report;
  report.program_name = program.name;
  report.arch_name = cfg.name;
  report.profile_name = profile.name();
  report.clock_ghz = cfg.clock_ghz;
  report.total_pes = cfg.pe_groups * cfg.pes_per_group;
  report.engine = isa::EngineKind::Exact;

  // The stage graph's units: every Run instruction is one independent
  // (layer, stage) node, gated only by its layer's operand readiness.
  std::vector<const isa::Instruction*> units;
  std::vector<LayerOperands> operands(net.layers.size());
  for (const auto& inst : program.instructions) {
    if (inst.op != isa::Opcode::Run) continue;
    ST_REQUIRE(inst.layer_index < net.layers.size(),
               "instruction references unknown layer");
    operands[inst.layer_index].pending.fetch_add(
        1, std::memory_order_relaxed);
    units.push_back(&inst);
  }

  ExactProfiler* const profiler = engine.options().profiler;

  // Runs one unit and writes its pre-sized result slot; every unit's
  // numbers are a pure function of (program, net, profile, seed), so the
  // execution order across units never shows in the report.
  std::vector<StageReport> stages(units.size());
  auto run_unit = [&](std::size_t u) {
    const isa::Instruction& inst = *units[u];
    const std::size_t li = inst.layer_index;
    LayerOperands& t = operands[li];
    const auto& l = net.layers[li];
    const workload::LayerDensities& d = profile.layer(li);
    const isa::RowBlock& b = inst.block;
    const Shape in_shape{batch, l.in_channels, l.in_h, l.in_w};
    const Shape out_shape{batch, l.out_channels, l.out_h(), l.out_w()};
    // Every operand is synthesised as positions only (sparse_normal_rows):
    // no exact stage reads a value, and a mask's positions are the ones it
    // lets through.
    auto rows = [&](Operand& op, std::uint64_t tag, const Shape& shape,
                    double density) -> const ExactEngine::RowSet& {
      std::call_once(op.once, [&] {
        op.rows = synthesise(profiler, stream(seed, li, tag), shape, density);
      });
      return *op.rows;
    };

    ExactStageResult r;
    switch (b.kind) {
      case isa::RowOpKind::SRC:
        r = engine.run_forward(rows(t.input, kInput, in_shape, d.input_acts),
                               in_shape, dataflow::layer_geometry(l));
        break;
      case isa::RowOpKind::MSRC: {
        const auto& go = rows(t.grad, kGrad, out_shape, d.output_grads);
        const ExactEngine::RowSet* mask =
            d.mask >= 1.0 ? nullptr  // all-pass
                          : &rows(t.mask, kMask, in_shape, d.mask);
        r = engine.run_gta(go, out_shape, in_shape, mask,
                           dataflow::layer_geometry(l));
        break;
      }
      case isa::RowOpKind::OSRC: {
        const auto& go = rows(t.grad, kGrad, out_shape, d.output_grads);
        const auto& in = rows(t.input, kInput, in_shape, d.input_acts);
        r = engine.run_gtw(go, out_shape, in, in_shape,
                           dataflow::layer_geometry(l));
        break;
      }
      case isa::RowOpKind::FC: {
        // The block already encodes the compiler's lane packing: tasks =
        // batch × lane groups over the useful outputs of this stage.
        ST_REQUIRE(b.tasks % batch == 0,
                   "FC block tasks not divisible by program batch");
        const ExactEngine::RowSet vec = synthesise(
            profiler,
            stream(seed, li, kFcBase + static_cast<std::uint64_t>(inst.stage)),
            Shape{batch, 1, 1, b.in_len}, b.density_in);
        r = engine.run_fc(vec, b.tasks / batch, b.fc_lanes);
        break;
      }
    }

    StageReport& stage = stages[u];
    stage.layer_index = li;
    stage.layer_name = l.name;
    stage.stage = inst.stage;
    stage.cycles = r.cycles;
    stage.activity = r.activity;
    stage.energy = price(r.activity, cfg.energy);

    const std::size_t prev =
        t.pending.fetch_sub(1, std::memory_order_acq_rel);
    ST_REQUIRE(prev > 0, "run refcount underflow");
    if (prev == 1) t.release();
  };

  // Two-level parallelism: units are claimed concurrently (in program
  // order, preserving the operand-cache locality of the old serial
  // sweep), and each unit's stage tiles fan out over the same pool — so
  // a program of many small stages fills the pool even when no single
  // stage could. parallel_for's claim loop makes this safe even when
  // run_exact is itself running on a pool worker (Session exact jobs):
  // the caller participates and never blocks on the pool's queue.
  util::parallel_for(engine.worker_pool(), units.size(), /*grain=*/1,
                     [&](std::size_t first, std::size_t last) {
                       for (std::size_t u = first; u < last; ++u) {
                         run_unit(u);
                       }
                     });

  // Deterministic assembly in program order — the identical accumulation
  // sequence (integer counters and float energy alike) the serial sweep
  // performed, whatever order the units actually ran in.
  for (StageReport& stage : stages) {
    report.total_cycles += stage.cycles;
    report.activity += stage.activity;
    report.energy += stage.energy;
    report.stages.push_back(std::move(stage));
  }
  return report;
}

}  // namespace sparsetrain::sim
