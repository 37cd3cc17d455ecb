// Equivalence and edge-case coverage for the row-op work counters and
// the BitMask window primitives.
//
// Three layers of defense:
//   1. Exhaustive naive-reference sweeps over every small geometry —
//      the per-tap loop nobody optimized is the ground truth for the
//      O(1) congruence / popcount-window formulas.
//   2. Boundary cases called out by inspection: windows ending exactly
//      on 64-bit word boundaries, lo == hi, clamped-to-empty windows,
//      out_len smaller than the kernel overhang.
//   3. Randomized fuzz comparing the counters against the naive
//      references on wide and long row shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dataflow/row_ops.hpp"
#include "tensor/bit_mask.hpp"
#include "util/rng.hpp"

namespace sparsetrain::dataflow {
namespace {

/// Naive per-tap SRC work: literally walk every (nonzero, tap) pair and
/// test whether it maps to a valid output. The formula under test
/// replaces this with O(1) congruence arithmetic per nonzero.
RowOpWork src_work_naive(SparseRowView input, const RowGeometry& geo,
                         std::size_t out_len) {
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      // ox·S + k − P = pos  →  ox = (pos + P − k) / S
      const std::int64_t num = static_cast<std::int64_t>(input.offsets[i]) +
                               static_cast<std::int64_t>(geo.padding) -
                               static_cast<std::int64_t>(k);
      if (num < 0 || num % geo.stride != 0) continue;
      if (num / geo.stride >= static_cast<std::int64_t>(out_len)) continue;
      ++macs_here;
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

/// Naive MSRC work: per (nonzero, tap), map to the output index and ask
/// the mask bit by bit.
RowOpWork msrc_work_naive(SparseRowView input, const BitMask& mask,
                          const RowGeometry& geo, std::size_t out_len) {
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      const std::int64_t ix = static_cast<std::int64_t>(input.offsets[i]) *
                                  static_cast<std::int64_t>(geo.stride) +
                              static_cast<std::int64_t>(k) -
                              static_cast<std::int64_t>(geo.padding);
      if (ix < 0 || ix >= static_cast<std::int64_t>(out_len)) continue;
      if (!mask.allows(static_cast<std::uint32_t>(ix))) continue;
      ++macs_here;
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

/// Naive OSRC work: per (dO nonzero, tap), map to the I position and
/// look it up in I's offsets. The counter under test replaces this with
/// one two-pointer window sweep over both rows.
RowOpWork osrc_work_naive(SparseRowView input_acts, SparseRowView grad_out,
                          const RowGeometry& geo) {
  RowOpWork w;
  for (std::size_t j = 0; j < grad_out.nnz(); ++j) {
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      const std::int64_t ipos =
          static_cast<std::int64_t>(grad_out.offsets[j]) *
              static_cast<std::int64_t>(geo.stride) +
          static_cast<std::int64_t>(k) -
          static_cast<std::int64_t>(geo.padding);
      if (ipos < 0) continue;
      if (std::binary_search(input_acts.offsets.begin(),
                             input_acts.offsets.end(), ipos))
        ++macs_here;
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

/// Bit-loop reference for BitMask::count_in.
std::size_t count_in_naive(const BitMask& m, std::uint32_t lo,
                           std::uint32_t hi) {
  std::size_t n = 0;
  for (std::uint32_t p = lo; p < hi && p < m.length(); ++p) {
    n += m.allows(p) ? 1 : 0;
  }
  return n;
}

SparseRow random_row(Rng& rng, std::uint32_t length, double density) {
  SparseRow row;
  row.length = length;
  for (std::uint32_t p = 0; p < length; ++p) {
    if (!rng.bernoulli(density)) continue;
    row.offsets.push_back(p);
    // Any nonzero value: 0 would be an invalid stored zero.
    float v = static_cast<float>(rng.uniform(-2.0, 2.0));
    if (v == 0.0f) v = 1.0f;
    row.values.push_back(v);
  }
  return row;
}

bool works_equal(const RowOpWork& a, const RowOpWork& b) {
  return a.macs == b.macs && a.active_inputs == b.active_inputs &&
         a.skipped_inputs == b.skipped_inputs;
}

// ------------------------------------------------------------------
// 1. Exhaustive sweeps against the naive references.

TEST(SrcWork, ExhaustiveSmallGeometries) {
  // Every (K ≤ 8, S ≤ 4, P ≤ 8, out_len ≤ 16) geometry with every
  // single-nonzero offset ≤ 64: the strided congruence path, the
  // stride-1 clamp path, and out_len small enough that the left clamp
  // (base > base_min) engages while the right clamp still matters.
  std::size_t cases = 0;
  for (std::uint32_t K = 1; K <= 8; ++K) {
    for (std::uint32_t S = 1; S <= 4; ++S) {
      for (std::uint32_t P = 0; P <= 8; ++P) {
        for (std::size_t out_len = 0; out_len <= 16; ++out_len) {
          for (std::uint32_t off = 0; off <= 64; ++off) {
            const RowGeometry geo{K, S, P};
            SparseRow row;
            row.length = off + 1;
            row.offsets = {off};
            row.values = {1.0f};
            const RowOpWork got = src_work(row, geo, out_len);
            const RowOpWork ref = src_work_naive(row, geo, out_len);
            ASSERT_TRUE(works_equal(got, ref))
                << "K=" << K << " S=" << S << " P=" << P
                << " out_len=" << out_len << " off=" << off << " macs "
                << got.macs << " vs " << ref.macs;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 100000u);
}

TEST(SrcWork, MultiNonzeroRowsMatchNaive) {
  Rng rng(0x5eedU);
  for (int iter = 0; iter < 500; ++iter) {
    const auto K = static_cast<std::uint32_t>(1 + rng.uniform_index(8));
    const auto S = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
    const auto P = static_cast<std::uint32_t>(rng.uniform_index(9));
    const auto len = static_cast<std::uint32_t>(1 + rng.uniform_index(80));
    const std::size_t out_len = rng.uniform_index(20);
    const SparseRow row = random_row(rng, len, rng.uniform());
    const RowGeometry geo{K, S, P};
    const RowOpWork ref = src_work_naive(row, geo, out_len);
    EXPECT_TRUE(works_equal(src_work(row, geo, out_len), ref));
  }
}

TEST(BitMaskCountIn, WordBoundaryWindows) {
  Rng rng(0xb175U);
  // Lengths straddling one, two and three words, including exact
  // multiples of 64 (where a clamped window can start at length()).
  for (const std::uint32_t length :
       {1u, 63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
    std::vector<float> dense(length);
    for (auto& v : dense) v = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    const BitMask m = bitmask_from_dense(dense);
    for (std::uint32_t lo = 0; lo <= length; ++lo) {
      for (std::uint32_t hi = lo; hi <= length + 3; ++hi) {
        ASSERT_EQ(m.count_in(lo, hi), count_in_naive(m, lo, hi))
            << "length=" << length << " lo=" << lo << " hi=" << hi;
      }
    }
    // lo == hi and lo == length are empty by contract.
    EXPECT_EQ(m.count_in(length, length), 0u);
    EXPECT_EQ(m.count_in(0, 0), 0u);
  }
}

TEST(BitMaskCountIn, WindowsEndingOnWordBoundaries) {
  const BitMask m = bitmask_all(256);
  for (const std::uint32_t hi : {64u, 128u, 192u, 256u}) {
    for (const std::uint32_t back : {1u, 63u, 64u, 65u}) {
      if (back > hi) continue;
      EXPECT_EQ(m.count_in(hi - back, hi), back)
          << "hi=" << hi << " back=" << back;
    }
  }
  EXPECT_EQ(m.count_in(0, 300), 256u);  // hi beyond length clamps
}

TEST(MsrcWork, ClampAgreesWithRowConvMacCount) {
  // The claim the counter makes — macs == multiplies msrc_row_conv would
  // perform — checked by counting actual writes of the reference conv,
  // across windows hanging off both ends (win_lo < 0, win_hi > out_len).
  Rng rng(0x300dU);
  for (int iter = 0; iter < 300; ++iter) {
    const auto K = static_cast<std::uint32_t>(1 + rng.uniform_index(8));
    const auto S = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
    const auto P = static_cast<std::uint32_t>(rng.uniform_index(12));
    const auto len = static_cast<std::uint32_t>(1 + rng.uniform_index(40));
    const std::size_t out_len = rng.uniform_index(30);
    const RowGeometry geo{K, S, P};
    const SparseRow row = random_row(rng, len, 0.6);

    std::vector<float> mask_dense(out_len);
    for (auto& v : mask_dense) v = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    const BitMask mask = bitmask_from_dense(mask_dense);

    const RowOpWork got = msrc_work(row, mask, geo, out_len);
    const RowOpWork ref = msrc_work_naive(row, mask, geo, out_len);
    ASSERT_TRUE(works_equal(got, ref))
        << "K=" << K << " S=" << S << " P=" << P << " out_len=" << out_len;
  }
}

// ------------------------------------------------------------------
// 2. Targeted boundary cases.

TEST(SrcWork, RightClampWithTinyOutput) {
  // out_len = 1, P = 4, K = 8: base_min = 0, so the left clamp
  // klo = base − base_min engages for every offset — the case where
  // base_min < padding and the window is clipped from both sides.
  const RowGeometry geo{8, 1, 4};
  for (std::uint32_t off = 0; off <= 16; ++off) {
    SparseRow row;
    row.length = off + 1;
    row.offsets = {off};
    row.values = {1.0f};
    const RowOpWork ref = src_work_naive(row, geo, 1);
    EXPECT_TRUE(works_equal(src_work(row, geo, 1), ref)) << "off=" << off;
  }
}

TEST(MsrcWork, FullyClampedWindowAtWordBoundaryLength) {
  // out_len = 128 (exactly two words): windows in the last word read the
  // guard word, and a nonzero whose window starts at or beyond out_len
  // is clamped to empty.
  const RowGeometry geo{3, 1, 0};
  const BitMask mask = bitmask_all(128);
  SparseRow row;
  row.length = 200;
  row.offsets = {125, 126, 127, 128, 130, 199};
  row.values = {1, 1, 1, 1, 1, 1};
  const RowOpWork got = msrc_work(row, mask, geo, 128);
  const RowOpWork ref = msrc_work_naive(row, mask, geo, 128);
  EXPECT_TRUE(works_equal(got, ref));
  EXPECT_EQ(got.macs, 3u + 2u + 1u);  // windows at 125/126/127 survive
  EXPECT_EQ(got.skipped_inputs, 3u);  // 128, 130, 199 fully clamped
}

TEST(RowOps, ZeroLengthAndEmptyOperands) {
  const RowGeometry geo{3, 1, 1};
  SparseRow empty;
  empty.length = 8;
  const BitMask none = bitmask_all(0);
  EXPECT_EQ(src_work(empty, geo, 8).macs, 0u);
  EXPECT_EQ(msrc_work(empty, none, geo, 0).macs, 0u);
  EXPECT_EQ(osrc_work(empty, empty, geo).macs, 0u);

  SparseRow one;
  one.length = 1;
  one.offsets = {0};
  one.values = {2.0f};
  // out_len = 0: every input is skipped, nothing is active.
  const RowOpWork w = src_work(one, geo, 0);
  EXPECT_EQ(w.macs, 0u);
  EXPECT_EQ(w.active_inputs, 0u);
  EXPECT_EQ(w.skipped_inputs, 1u);
  const BitMask zero_mask = bitmask_all(0);
  const RowOpWork mw = msrc_work(one, zero_mask, geo, 0);
  EXPECT_EQ(mw.macs, 0u);
  EXPECT_EQ(mw.skipped_inputs, 1u);
}

// ------------------------------------------------------------------
// 3. Randomized fuzz against the naive references on wide and long
//    shapes (K = 64 with P = 32, rows of 1024).

struct FuzzGeometry {
  std::uint32_t kernel, stride, padding;
};

TEST(RowOps, WorkCountersMatchNaiveOnRandomRows) {
  Rng rng(0x51d5U);
  const double densities[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  const FuzzGeometry geos[] = {
      {3, 1, 1},   // the common conv geometry
      {8, 1, 0},   // kernel wider than some rows
      {5, 2, 2},   // strided
      {3, 5, 1},   // stride > kernel
      {7, 1, 9},   // padding ≥ kernel
      {64, 1, 32}, // a window spanning a whole mask word
      {1, 1, 0},   // pointwise
  };
  for (const FuzzGeometry& g : geos) {
    const RowGeometry geo{g.kernel, g.stride, g.padding};
    for (const double d : densities) {
      for (const std::uint32_t length : {1u, 7u, 64u, 65u, 200u, 1024u}) {
        const SparseRow input = random_row(rng, length, d);
        for (const std::size_t out_len :
             {std::size_t{0}, std::size_t{1}, std::size_t{63},
              std::size_t{64}, std::size_t{128},
              static_cast<std::size_t>(length)}) {
          // SRC
          EXPECT_TRUE(works_equal(src_work(input, geo, out_len),
                                  src_work_naive(input, geo, out_len)))
              << "src K=" << g.kernel << " S=" << g.stride << " len="
              << length << " out=" << out_len << " d=" << d;
          // MSRC under a random mask
          std::vector<float> mask_dense(out_len);
          for (auto& v : mask_dense) v = rng.bernoulli(0.5) ? 1.0f : 0.0f;
          const BitMask mask = bitmask_from_dense(mask_dense);
          EXPECT_TRUE(
              works_equal(msrc_work(input, mask, geo, out_len),
                          msrc_work_naive(input, mask, geo, out_len)))
              << "msrc K=" << g.kernel << " S=" << g.stride << " len="
              << length << " out=" << out_len << " d=" << d;
          // OSRC against a second random row
          const SparseRow grad = random_row(
              rng, static_cast<std::uint32_t>(std::max<std::size_t>(
                       1, out_len)),
              densities[rng.uniform_index(5)]);
          EXPECT_TRUE(works_equal(osrc_work(input, grad, geo),
                                  osrc_work_naive(input, grad, geo)))
              << "osrc K=" << g.kernel << " S=" << g.stride;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sparsetrain::dataflow
