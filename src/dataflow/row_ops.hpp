// The three 1-D row convolution primitives of the SparseTrain dataflow
// (paper §IV-B, Fig. 6). All 2-D convolutions in the three training stages
// decompose into these:
//
//   SRC  (Forward): one sparse activation row × one dense K-length kernel
//        row, accumulated into one dense output row.
//   MSRC (GTA): one sparse dO row scattered through a rotated kernel row
//        into a dI row, skipping positions the forward ReLU mask zeroes.
//   OSRC (GTW): two sparse rows (I and dO) correlated into a K-length dW
//        row that lives in a scratchpad for the whole row pair.
//
// These are the *functional references*: bit-exact semantics used both to
// validate the dense layer implementations and as the ground truth for the
// cycle simulator's work counting. Operands are SparseRowView spans (an
// owning SparseRow converts implicitly), masks are word-packed BitMasks;
// the work counters below use O(1) window arithmetic per nonzero instead
// of per-tap searches (tests/test_row_ops.cpp checks them against naive
// per-tap loops).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "tensor/bit_mask.hpp"
#include "tensor/sparse_row.hpp"
#include "util/require.hpp"

namespace sparsetrain::dataflow {

/// Row-op kernel label recorded in benchmark provenance; the counters
/// have one portable implementation.
constexpr const char* simd_mode() { return "scalar"; }

/// Geometry shared by the row ops: kernel size K, stride S, left padding P.
struct RowGeometry {
  std::uint32_t kernel = 3;
  std::uint32_t stride = 1;
  std::uint32_t padding = 1;
};

/// SRC — Forward-step row convolution.
/// out[ox] += Σ_k kernel[k] · in[ox·S + k − P], for ox in [0, out.size()).
/// `input` is the compressed activation row; `kernel` must have length K.
/// Implementation iterates input nonzeros only (the PE's zero skipping).
void src_row_conv(SparseRowView input, std::span<const float> kernel,
                  const RowGeometry& geo, std::span<float> out);

/// MSRC — GTA-step row convolution with output masking.
/// out[p·S + k − P] += Σ in[p] · kernel[k], but positions not allowed by
/// `mask` are skipped entirely (their value is forced to zero by the
/// following ReLU, so computing them is wasted work). `mask.length()` must
/// equal out.size(). Pass an all-pass mask to disable skipping.
void msrc_row_conv(SparseRowView input, std::span<const float> kernel,
                   const BitMask& mask, const RowGeometry& geo,
                   std::span<float> out);

/// OSRC — GTW-step row correlation.
/// dw[k] += Σ_ox dO[ox] · I[ox·S + k − P] for k in [0, K).
/// Both operands are sparse; `dw` must have length K.
void osrc_row_conv(SparseRowView input_acts, SparseRowView grad_out,
                   const RowGeometry& geo, std::span<float> dw);

/// Work counters used by the cycle model: how many multiply-accumulates a
/// row op actually performs given the operand sparsity, and how many input
/// elements contribute at least one MAC (the PE ingests one such element
/// per cycle).
struct RowOpWork {
  std::size_t macs = 0;            ///< useful multiplies
  std::size_t active_inputs = 0;   ///< nonzeros that produced >= 1 MAC
  std::size_t skipped_inputs = 0;  ///< nonzeros skipped via mask look-ahead
};

// The three work counters below run once per row op — src_work once per
// input row of every forward stage, msrc_work/osrc_work once per op of
// the view-based PeExact and the StageWork references — so they are
// defined inline here: the per-op bodies are a handful of arithmetic
// instructions, and a cross-TU call per op would cost more than the work.

/// Work of an SRC op (mask-free). O(1) per input nonzero: the valid taps
/// of position p form the arithmetic progression k ≡ (p+P) mod S inside a
/// window, so their count needs no tap loop — and no division when S = 1.
inline RowOpWork src_work(SparseRowView input, const RowGeometry& geo,
                          std::size_t out_len) {
  RowOpWork w;
  if (out_len == 0) {
    w.skipped_inputs = input.nnz();
    return w;
  }
  const std::int64_t S = geo.stride;
  const std::int64_t kmax = static_cast<std::int64_t>(geo.kernel) - 1;
  const std::int64_t base_min =
      S * (static_cast<std::int64_t>(out_len) - 1);  // klo > 0 above this
  if (S == 1) {
    // Unit stride: every k in [klo, khi] is a tap — the loop body is pure
    // branch-free clamp arithmetic.
    for (std::size_t i = 0; i < input.nnz(); ++i) {
      const std::int64_t base = static_cast<std::int64_t>(input.offsets[i]) +
                                static_cast<std::int64_t>(geo.padding);
      const std::int64_t khi = std::min(kmax, base);
      const std::int64_t klo = std::max<std::int64_t>(0, base - base_min);
      const std::int64_t taps = std::max<std::int64_t>(0, khi - klo + 1);
      w.macs += static_cast<std::size_t>(taps);
      w.active_inputs += taps > 0 ? 1 : 0;
    }
    w.skipped_inputs = input.nnz() - w.active_inputs;
    return w;
  }
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    const std::int64_t base = static_cast<std::int64_t>(input.offsets[i]) +
                              static_cast<std::int64_t>(geo.padding);
    const std::int64_t khi = std::min(kmax, base);
    const std::int64_t klo = std::max<std::int64_t>(0, base - base_min);
    std::size_t macs_here = 0;
    if (khi >= klo) {
      // First k ≥ klo congruent to base mod S (base ≥ klo ≥ 0, so the
      // remainder needs the usual non-negative adjustment).
      const std::int64_t r = base % S;
      const std::int64_t k0 = klo + (((r - klo) % S) + S) % S;
      if (k0 <= khi) macs_here = static_cast<std::size_t>((khi - k0) / S + 1);
    }
    if (macs_here > 0) {
      ++w.active_inputs;
      w.macs += macs_here;
    } else {
      ++w.skipped_inputs;
    }
  }
  return w;
}

/// Work of an MSRC op: per-input-window mask intersection. The window of
/// a nonzero is K consecutive output positions, so its allowed count is
/// one BitMask::count_in.
inline RowOpWork msrc_work(SparseRowView input, const BitMask& mask,
                           const RowGeometry& geo, std::size_t out_len) {
  ST_REQUIRE(mask.length() == out_len, "MSRC mask length != output length");
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    // The K output positions of nonzero p are the consecutive window
    // [p·S − P, p·S − P + K); its surviving count is one popcount query.
    const std::int64_t win_lo = static_cast<std::int64_t>(input.offsets[i]) *
                                    static_cast<std::int64_t>(geo.stride) -
                                static_cast<std::int64_t>(geo.padding);
    const std::int64_t win_hi = win_lo + static_cast<std::int64_t>(geo.kernel);
    std::size_t macs_here = 0;
    if (win_hi > 0) {
      const auto lo =
          static_cast<std::uint32_t>(std::max<std::int64_t>(0, win_lo));
      const auto hi = static_cast<std::uint32_t>(
          std::min<std::int64_t>(static_cast<std::int64_t>(out_len), win_hi));
      macs_here = mask.count_in(lo, hi);
    }
    if (macs_here > 0) {
      ++w.active_inputs;
      w.macs += macs_here;
    } else {
      // Whole window masked/out-of-range: the PE's look-ahead skips this
      // input without spending a cycle on it.
      ++w.skipped_inputs;
    }
  }
  return w;
}

/// The OSRC window sweep shared by osrc_work and osrc_row_conv: the
/// matching I positions of dO nonzero j are the K-wide window
/// [ox·S − P, ox·S − P + K) over I's sorted offsets. Window bounds grow
/// monotonically with ox, so two pointers sweep I once across all dO
/// nonzeros — O(nnz_dO + nnz_I) instead of nnz_dO · K · log(nnz_I).
/// Calls visit(j, win_lo, lo, hi) per dO nonzero with I's members of the
/// window at offsets[lo, hi).
template <typename Visit>
inline void osrc_window_sweep(SparseRowView input_acts, SparseRowView grad_out,
                              const RowGeometry& geo, Visit&& visit) {
  std::size_t lo = 0, hi = 0;
  const std::size_t nnz_i = input_acts.nnz();
  for (std::size_t j = 0; j < grad_out.nnz(); ++j) {
    const std::int64_t win_lo = static_cast<std::int64_t>(grad_out.offsets[j]) *
                                    static_cast<std::int64_t>(geo.stride) -
                                static_cast<std::int64_t>(geo.padding);
    const std::int64_t win_hi = win_lo + static_cast<std::int64_t>(geo.kernel);
    while (lo < nnz_i &&
           static_cast<std::int64_t>(input_acts.offsets[lo]) < win_lo)
      ++lo;
    if (hi < lo) hi = lo;
    while (hi < nnz_i &&
           static_cast<std::int64_t>(input_acts.offsets[hi]) < win_hi)
      ++hi;
    visit(j, win_lo, lo, hi);
  }
}

/// Work of an OSRC op: pairs of nonzeros whose offset difference lands in
/// the K-length scratchpad (one window sweep, counts only).
inline RowOpWork osrc_work(SparseRowView input_acts, SparseRowView grad_out,
                           const RowGeometry& geo) {
  RowOpWork w;
  osrc_window_sweep(input_acts, grad_out, geo,
                    [&](std::size_t, std::int64_t, std::size_t lo,
                        std::size_t hi) {
                      if (hi > lo) {
                        ++w.active_inputs;
                        w.macs += hi - lo;
                      } else {
                        ++w.skipped_inputs;
                      }
                    });
  return w;
}

}  // namespace sparsetrain::dataflow
