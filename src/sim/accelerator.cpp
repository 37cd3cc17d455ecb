#include "sim/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "sim/least_loaded.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace sparsetrain::sim {

void ArchConfig::validate() const {
  const auto field = [this](const std::string& what) {
    return "architecture '" + name + "': " + what;
  };
  ST_REQUIRE(pe_groups > 0, field("pe_groups must be positive"));
  ST_REQUIRE(pe_groups <= (1u << 16),
             field("pe_groups = " + std::to_string(pe_groups) +
                   " exceeds 65536 (not a buildable array)"));
  ST_REQUIRE(pes_per_group > 0, field("pes_per_group must be positive"));
  ST_REQUIRE(pes_per_group <= 1024,
             field("pes_per_group = " + std::to_string(pes_per_group) +
                   " exceeds 1024 (group fan-out is a crossbar)"));
  ST_REQUIRE(buffer_bytes >= 1024,
             field("buffer_bytes = " + std::to_string(buffer_bytes) +
                   " is below 1 KiB (cannot hold one compressed row)"));
  ST_REQUIRE(buffer_bytes <= (std::size_t{1} << 30),
             field("buffer_bytes = " + std::to_string(buffer_bytes) +
                   " exceeds 1 GiB (not an on-chip buffer)"));
  ST_REQUIRE(clock_ghz > 0.0, field("clock_ghz must be positive"));
  ST_REQUIRE(clock_ghz <= 100.0,
             field("clock_ghz = " + std::to_string(clock_ghz) +
                   " exceeds 100 GHz"));
  ST_REQUIRE(max_sched_samples > 0,
             field("max_sched_samples must be positive"));
  ST_REQUIRE(timing.weight_port_width > 0,
             field("timing.weight_port_width must be positive"));
  ST_REQUIRE(energy.mac_pj >= 0.0 && energy.reg_pj >= 0.0 &&
                 energy.sram_pj >= 0.0 && energy.dram_pj >= 0.0 &&
                 energy.ctrl_pj_cycle >= 0.0,
             field("per-event energies must be non-negative"));
}

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// E[max of m iid normals] − mean, in units of σ.
double max_order_factor(std::size_t m) {
  static const double table[] = {0.0,    0.0,    0.5642, 0.8463,
                                 1.0294, 1.1630, 1.2672, 1.3522};
  if (m < std::size(table)) return table[m];
  return std::sqrt(2.0 * std::log(static_cast<double>(m)));
}

/// Bytes of one tensor when streamed through the buffer.
/// Sparse mode uses the bitmap+values encoding the PPU emits (1 presence
/// bit per position + 16-bit values for nonzeros); dense mode is two bytes
/// per element.
double tensor_bytes(std::size_t elements, double density, bool sparse) {
  if (!sparse) return static_cast<double>(elements) * 2.0;
  return static_cast<double>(elements) * (density * 2.0 + 1.0 / 8.0);
}

/// Bytes of one compressed (or dense) row of length L at density ρ.
/// Sparse reads pay a fixed overhead per row (descriptor fetch, bank
/// alignment waste, pointer indirection) that dense streaming avoids.
double row_bytes(double len, double density, bool sparse) {
  if (!sparse) return len * 2.0;
  return 10.0 + len / 8.0 + len * density * 2.0;
}

/// Per-layer-stage tensor footprints for the DRAM model.
struct StageFootprint {
  double operand_bytes = 0.0;  ///< streamed activation/gradient tensors
  double weight_bytes = 0.0;
  double output_bytes = 0.0;

  double working_set() const {
    return operand_bytes + weight_bytes + output_bytes;
  }
};

StageFootprint footprint(const workload::LayerConfig& l,
                         const workload::LayerDensities& d, isa::Stage stage,
                         bool sparse) {
  StageFootprint fp;
  const std::size_t in_elems = l.in_channels * l.in_h * l.in_w;
  const std::size_t out_elems = l.out_channels * l.out_h() * l.out_w();
  const std::size_t w_elems =
      l.out_channels * l.in_channels * l.kernel * l.kernel;
  fp.weight_bytes = static_cast<double>(w_elems) * 2.0;
  switch (stage) {
    case isa::Stage::Forward:
      fp.operand_bytes = tensor_bytes(in_elems, d.input_acts, sparse);
      fp.output_bytes =
          tensor_bytes(out_elems, l.relu_after ? d.mask : 1.0, sparse);
      break;
    case isa::Stage::GTA:
      fp.operand_bytes = tensor_bytes(out_elems, d.output_grads, sparse);
      fp.output_bytes = tensor_bytes(in_elems, d.mask, sparse);
      break;
    case isa::Stage::GTW:
      fp.operand_bytes = tensor_bytes(out_elems, d.output_grads, sparse) +
                         tensor_bytes(in_elems, d.input_acts, sparse);
      fp.output_bytes = static_cast<double>(w_elems) * 2.0;  // dW dense
      break;
  }
  return fp;
}

/// SRAM bytes one row op moves (streamed rows + weights / mask / chunk
/// re-reads), given the block geometry and densities. FC ops exclude the
/// operand vector, which is broadcast once per group (see the Run handler).
double row_op_sram_bytes(const isa::RowBlock& b, bool sparse) {
  const auto L = static_cast<double>(b.in_len);
  const auto K = static_cast<double>(b.kernel);
  const double rho_in = sparse ? b.density_in : 1.0;
  const double operand = row_bytes(L, rho_in, sparse);
  switch (b.kind) {
    case isa::RowOpKind::SRC:
      return operand + K * 2.0;  // operand row + kernel row
    case isa::RowOpKind::MSRC: {
      // The mask arrives as a presence bitmap.
      const double mask_bytes =
          sparse ? static_cast<double>(b.out_len) / 8.0 : 0.0;
      return operand + K * 2.0 + mask_bytes;
    }
    case isa::RowOpKind::OSRC: {
      const auto Li = static_cast<double>(b.second_len);
      const double rho_i = sparse ? b.density_second : 1.0;
      const double i_row = row_bytes(Li, rho_i, sparse);
      const double chunks = std::max(1.0, std::ceil(L * rho_in / K));
      // dO row read once into the Reg-1 cache; I row streamed per chunk;
      // dW scratchpad written back once (K values, 32-bit accumulators).
      return operand + chunks * i_row + K * 4.0;
    }
    case isa::RowOpKind::FC: {
      // Only the weight columns of nonzero operand elements are fetched
      // (fc_lanes 16-bit weights per ingested element).
      return L * rho_in * static_cast<double>(b.fc_lanes) * 2.0;
    }
  }
  return 0.0;
}

}  // namespace

Accelerator::Accelerator(ArchConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
}

SimReport Accelerator::run(const isa::Program& program,
                           const workload::NetworkConfig& net,
                           const workload::SparsityProfile& profile) const {
  return run(program, net, profile, cfg_.seed);
}

SimReport Accelerator::run(const isa::Program& program,
                           const workload::NetworkConfig& net,
                           const workload::SparsityProfile& profile,
                           std::uint64_t seed) const {
  ST_REQUIRE(profile.size() == net.layers.size(),
             "profile does not match network");
  Rng rng(seed);

  SimReport report;
  report.program_name = program.name;
  report.arch_name = cfg_.name;
  report.clock_ghz = cfg_.clock_ghz;
  report.profile_name = profile.name();
  report.total_pes = total_pes();

  // One scheduler per stage: Run blocks of a stage keep adding to the
  // same group loads.
  LeastLoaded<double> groups;
  StageReport stage;
  bool stage_open = false;

  auto open_stage = [&](const isa::Instruction& inst) {
    stage = StageReport{};
    stage.layer_index = inst.layer_index;
    ST_REQUIRE(inst.layer_index < net.layers.size(),
               "instruction references unknown layer");
    stage.layer_name = net.layers[inst.layer_index].name;
    stage.stage = inst.stage;
    stage_open = true;
    groups.reset(cfg_.pe_groups);
  };

  auto close_stage = [&]() {
    if (!stage_open) return;
    stage.cycles = static_cast<std::size_t>(std::llround(groups.max_load()));
    stage.energy = price(stage.activity, cfg_.energy);
    report.total_cycles += stage.cycles;
    report.activity += stage.activity;
    report.energy += stage.energy;
    report.stages.push_back(stage);
    stage_open = false;
  };

  for (const auto& inst : program.instructions) {
    switch (inst.op) {
      case isa::Opcode::ConfigLayer: {
        close_stage();
        open_stage(inst);
        break;
      }
      case isa::Opcode::LoadWeights: {
        ST_REQUIRE(stage_open, "LoadWeights outside a stage");
        const auto& l = net.layers[inst.layer_index];
        const auto& d = profile.layer(inst.layer_index);
        const StageFootprint fp = footprint(l, d, inst.stage, cfg_.sparse);
        const double act_bytes = fp.operand_bytes + fp.output_bytes;
        const double refetch =
            fp.working_set() > static_cast<double>(cfg_.buffer_bytes)
                ? std::ceil(act_bytes / static_cast<double>(cfg_.buffer_bytes))
                : 1.0;
        const double w_bytes = static_cast<double>(inst.elements) * 2.0;
        stage.activity.sram_bytes += static_cast<std::size_t>(w_bytes);
        stage.activity.dram_bytes +=
            static_cast<std::size_t>(w_bytes * refetch);
        break;
      }
      case isa::Opcode::Run: {
        ST_REQUIRE(stage_open, "Run outside a stage");
        const isa::RowBlock& b = inst.block;
        ST_REQUIRE(b.tasks > 0 && b.ops_per_task > 0, "empty row block");

        const PeCostStats op =
            row_op_cost(b, cfg_.timing, cfg_.sparse);
        const std::size_t pes = cfg_.pes_per_group;
        // Only the dispatched fraction of a block's nominal ops occupies
        // PE rounds (OSRC skips empty dO rows entirely).
        const double eff_ops =
            static_cast<double>(b.ops_per_task) * op.sched_fraction;
        const double rounds =
            std::ceil(eff_ops / static_cast<double>(pes));
        const std::size_t par = std::min(pes, b.ops_per_task);
        const double op_sd = std::sqrt(std::max(0.0, op.var_cycles));
        const double round_mean =
            op.mean_cycles + max_order_factor(par) * op_sd;
        const double task_mean = rounds * round_mean;
        const double task_var = rounds * op.var_cycles;

        // Dynamic dispatch to the least-loaded group, with bundling so
        // huge blocks do not need millions of samples.
        const std::size_t samples = std::min(b.tasks, cfg_.max_sched_samples);
        const std::size_t bundle = b.tasks / samples;
        std::size_t remainder = b.tasks % samples;
        for (std::size_t s = 0; s < samples; ++s) {
          std::size_t tasks_here = bundle + (remainder > 0 ? 1 : 0);
          if (remainder > 0) --remainder;
          if (tasks_here == 0) continue;
          const double mean = task_mean * static_cast<double>(tasks_here);
          const double sd =
              std::sqrt(task_var * static_cast<double>(tasks_here));
          groups.assign(std::max(static_cast<double>(tasks_here),
                                 rng.normal(mean, sd)));
        }

        // Expected-value activity accounting (dispatched ops only).
        const double ops_total = static_cast<double>(b.tasks) *
                                 static_cast<double>(b.ops_per_task) *
                                 op.sched_fraction;
        const bool is_fc = b.kind == isa::RowOpKind::FC;
        const double wload =
            is_fc ? 0.0
                  : static_cast<double>(
                        ceil_div(b.kernel, cfg_.timing.weight_port_width));
        const double drain = static_cast<double>(cfg_.timing.pipeline_drain);
        const double ingest = std::max(0.0, op.mean_cycles - wload - drain);
        const double lanes =
            static_cast<double>(is_fc ? b.fc_lanes : b.kernel);
        stage.activity.busy_cycles +=
            static_cast<std::size_t>(ops_total * op.mean_cycles);
        stage.activity.macs +=
            static_cast<std::size_t>(ops_total * op.mean_macs);
        // Reg-1 read + Reg-2 accumulate per MAC lane per ingest cycle,
        // plus the weight-load writes.
        stage.activity.reg_accesses += static_cast<std::size_t>(
            ops_total * (ingest * 2.0 * lanes + lanes));
        stage.activity.sram_bytes += static_cast<std::size_t>(
            ops_total * row_op_sram_bytes(b, cfg_.sparse));
        if (is_fc) {
          // The operand vector is broadcast once per PE group and cached
          // there for the whole block.
          stage.activity.sram_bytes += static_cast<std::size_t>(
              static_cast<double>(cfg_.pe_groups) *
              row_bytes(static_cast<double>(b.in_len),
                        cfg_.sparse ? b.density_in : 1.0, cfg_.sparse));
        }

        // Streamed operand tensors enter from DRAM once per stage.
        const auto& l = net.layers[inst.layer_index];
        const auto& d = profile.layer(inst.layer_index);
        const StageFootprint fp = footprint(l, d, inst.stage, cfg_.sparse);
        stage.activity.dram_bytes +=
            static_cast<std::size_t>(fp.operand_bytes);
        break;
      }
      case isa::Opcode::StoreOutputs: {
        ST_REQUIRE(stage_open, "StoreOutputs outside a stage");
        const double bytes =
            tensor_bytes(inst.elements, inst.store_density, cfg_.sparse);
        stage.activity.sram_bytes += static_cast<std::size_t>(bytes);
        stage.activity.dram_bytes += static_cast<std::size_t>(bytes);
        break;
      }
      case isa::Opcode::Barrier: {
        close_stage();
        break;
      }
    }
  }
  close_stage();
  return report;
}

}  // namespace sparsetrain::sim
