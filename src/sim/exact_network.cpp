#include "sim/exact_network.hpp"

#include <atomic>
#include <mutex>
#include <optional>

#include "sim/profile_hook.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
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

/// Runs `synthesise`, which builds one operand tensor of `shape`, and
/// profiles it as an `operands` stage of shape's N·C·H rows.
template <typename Fn>
void synthesise_operand(ExactProfiler* profiler, const Shape& shape,
                        const Fn& synthesise) {
  const StageTimer timer(profiler, "operands");
  synthesise();
  timer.record(1, shape.n * shape.c * shape.h, 1);
}

/// Lazily synthesised operands of one layer, held in compressed-row form
/// so every stage sharing a tensor (Forward + GTW share I, GTA + GTW
/// share dO) synthesises it exactly once per whole-program run — whatever
/// order the stage graph executes its units in (call_once gates each
/// operand, so a unit that needs a tensor another unit is already
/// synthesising simply waits for it: the "operand-cache readiness" edges
/// of the graph). `pending` counts this layer's units not yet finished;
/// when it hits zero the operands are released, so the roughly
/// program-ordered claim loop still keeps only a few layers' tensors
/// alive at a time.
struct LayerOperands {
  std::once_flag input_once;
  std::once_flag grad_once;
  std::once_flag mask_once;
  std::optional<ExactEngine::RowSet> input;
  Shape input_shape;
  std::optional<ExactEngine::RowSet> grad;
  Shape grad_shape;
  std::optional<Tensor> mask;  ///< engaged only when the mask gates (ρ < 1)
  std::atomic<std::size_t> pending{0};

  void release() {
    input.reset();
    grad.reset();
    mask.reset();
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

  // Operands are synthesised as positions only (sparse_normal_rows): no
  // exact stage reads a value, and each mask is its rows' 0/1 expansion.
  ExactProfiler* const profiler = engine.options().profiler;
  auto input_shape = [&](std::size_t li) {
    const auto& l = net.layers[li];
    return Shape{batch, l.in_channels, l.in_h, l.in_w};
  };
  auto input_of = [&](std::size_t li) -> const ExactEngine::RowSet& {
    LayerOperands& t = operands[li];
    std::call_once(t.input_once, [&] {
      t.input_shape = input_shape(li);
      synthesise_operand(profiler, t.input_shape, [&] {
        t.input = sparse_normal_rows(stream(seed, li, kInput), t.input_shape,
                                     profile.layer(li).input_acts);
      });
    });
    return *t.input;
  };
  auto grad_of = [&](std::size_t li) -> const ExactEngine::RowSet& {
    LayerOperands& t = operands[li];
    std::call_once(t.grad_once, [&] {
      const auto& l = net.layers[li];
      t.grad_shape = Shape{batch, l.out_channels, l.out_h(), l.out_w()};
      synthesise_operand(profiler, t.grad_shape, [&] {
        t.grad = sparse_normal_rows(stream(seed, li, kGrad), t.grad_shape,
                                    profile.layer(li).output_grads);
      });
    });
    return *t.grad;
  };
  auto mask_of = [&](std::size_t li) -> const Tensor* {
    const double rho = profile.layer(li).mask;
    if (rho >= 1.0) return nullptr;  // all-pass
    LayerOperands& t = operands[li];
    std::call_once(t.mask_once, [&] {
      const Shape shape = input_shape(li);
      synthesise_operand(profiler, shape, [&] {
        const CompressedRows rows =
            sparse_normal_rows(stream(seed, li, kMask), shape, rho);
        Tensor m(shape);
        const std::span<float> flat = m.flat();
        for (std::size_t r = 0; r < rows.rows(); ++r) {
          decompress_into(rows.row(r), flat.subspan(r * shape.w, shape.w));
        }
        t.mask = std::move(m);
      });
    });
    return &*t.mask;
  };

  // Runs one unit and writes its pre-sized result slot; every unit's
  // numbers are a pure function of (program, net, profile, seed), so the
  // execution order across units never shows in the report.
  std::vector<StageReport> stages(units.size());
  auto run_unit = [&](std::size_t u) {
    const isa::Instruction& inst = *units[u];
    const std::size_t li = inst.layer_index;
    LayerOperands& t = operands[li];
    const auto& l = net.layers[li];
    const isa::RowBlock& b = inst.block;

    ExactStageResult r;
    switch (b.kind) {
      case isa::RowOpKind::SRC: {
        const auto& in = input_of(li);  // fills t.input_shape
        r = engine.run_forward(in, t.input_shape, dataflow::layer_geometry(l));
        break;
      }
      case isa::RowOpKind::MSRC: {
        const auto& go = grad_of(li);  // fills t.grad_shape
        r = engine.run_gta(go, t.grad_shape,
                           Shape{batch, l.in_channels, l.in_h, l.in_w},
                           mask_of(li), dataflow::layer_geometry(l));
        break;
      }
      case isa::RowOpKind::OSRC: {
        const auto& go = grad_of(li);
        const auto& in = input_of(li);
        r = engine.run_gtw(go, t.grad_shape, in, t.input_shape,
                           dataflow::layer_geometry(l));
        break;
      }
      case isa::RowOpKind::FC: {
        // The block already encodes the compiler's lane packing: tasks =
        // batch × lane groups over the useful outputs of this stage.
        ST_REQUIRE(b.tasks % batch == 0,
                   "FC block tasks not divisible by program batch");
        const std::size_t groups = b.tasks / batch;
        Tensor vec(Shape{batch, 1, 1, b.in_len});
        synthesise_operand(profiler, vec.shape(), [&] {
          Rng rng(stream(seed, li,
                         kFcBase + static_cast<std::uint64_t>(inst.stage)));
          vec.fill_sparse_normal(rng, b.density_in);
        });
        r = engine.run_fc(vec, groups, b.fc_lanes);
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
