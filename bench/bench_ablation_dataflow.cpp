// Ablation A2: the 1-D sparse dataflow itself (paper §IV design choices).
//
// Sweeps operand density and reports per-row-op PE cycles for SRC, MSRC
// (with and without mask skipping) and OSRC, from both the exact
// cycle-stepped PE and the closed-form model the full-network simulator
// uses. Shows (a) cycles scale with nnz, (b) the MSRC mask-skip
// optimisation's contribution, (c) OSRC's sparse×sparse product effect.
#include <cstdio>

#include "isa/instruction.hpp"
#include "sim/pe_model.hpp"
#include "tensor/bit_mask.hpp"
#include "tensor/sparse_row.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace sparsetrain;

namespace {

SparseRow random_row(std::size_t len, double density, Rng& rng) {
  std::vector<float> dense(len, 0.0f);
  for (auto& x : dense)
    if (rng.bernoulli(density)) x = static_cast<float>(rng.normal());
  return compress_row(dense);
}

BitMask random_mask(std::size_t len, double density, Rng& rng) {
  std::vector<float> dense(len, 0.0f);
  for (auto& x : dense)
    if (rng.bernoulli(density)) x = 1.0f;
  return bitmask_from_dense(dense);
}

}  // namespace

int main() {
  std::printf(
      "Dataflow ablation: mean PE cycles per row op vs operand density\n"
      "(row length 64, K=3; exact cycle-stepped PE, 500 trials; closed\n"
      "form in parentheses). Dense baseline row op costs %u cycles.\n\n",
      2 + 64 + 2);

  const std::size_t L = 64;
  const int trials = 500;
  sim::PeExact pe;

  TextTable table({"density", "SRC", "MSRC mask=1.0", "MSRC mask=0.45",
                   "OSRC (I rho=0.45)"});
  for (double rho : {0.1, 0.2, 0.35, 0.5, 0.75, 1.0}) {
    Rng rng(81);
    isa::RowBlock src;
    src.kind = isa::RowOpKind::SRC;
    src.in_len = L;
    src.out_len = L;
    src.kernel = 3;
    src.stride = 1;
    src.padding = 1;
    src.density_in = rho;

    isa::RowBlock msrc_full = src;
    msrc_full.kind = isa::RowOpKind::MSRC;
    msrc_full.density_mask = 1.0;
    isa::RowBlock msrc_masked = msrc_full;
    msrc_masked.density_mask = 0.45;

    isa::RowBlock osrc = src;
    osrc.kind = isa::RowOpKind::OSRC;
    osrc.second_len = L;
    osrc.density_second = 0.45;
    osrc.out_len = 3;

    double c_src = 0, c_mf = 0, c_mm = 0, c_o = 0;
    for (int t = 0; t < trials; ++t) {
      const SparseRow row = random_row(L, rho, rng);
      c_src += static_cast<double>(pe.run_src(row, src).cycles);
      const BitMask full = bitmask_all(L);
      c_mf += static_cast<double>(pe.run_msrc(row, full, msrc_full).cycles);
      const BitMask partial = random_mask(L, 0.45, rng);
      c_mm +=
          static_cast<double>(pe.run_msrc(row, partial, msrc_masked).cycles);
      const SparseRow i_row = random_row(L, 0.45, rng);
      c_o += static_cast<double>(pe.run_osrc(i_row, row, osrc).cycles);
    }
    const sim::PeTiming timing;
    auto fmt = [&](double exact, const isa::RowBlock& b) {
      const auto cf = sim::row_op_cost(b, timing, true);
      return TextTable::num(exact / trials, 1) + " (" +
             TextTable::num(cf.mean_cycles, 1) + ")";
    };
    table.add_row({TextTable::num(rho), fmt(c_src, src),
                   fmt(c_mf, msrc_full), fmt(c_mm, msrc_masked),
                   fmt(c_o, osrc)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: SRC/MSRC cycles track nnz (68 cycles dense -> ~8 at 10%%\n"
      "density); the 0.45 mask skips whole inputs only rarely at K=3 but\n"
      "saves MAC energy; OSRC cycles scale with the *product* of the two\n"
      "operands' nnz through the chunk count.\n");
  return 0;
}
