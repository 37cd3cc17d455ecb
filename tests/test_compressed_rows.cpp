// Tests for the arena-backed CSR storage (CompressedRows/SparseRowView)
// and the word-packed BitMask — plus equivalence proofs that the O(1)
// window arithmetic of the optimised row-op work counters matches the
// original per-tap reference semantics exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "dataflow/row_ops.hpp"
#include "tensor/bit_mask.hpp"
#include "tensor/compressed_rows.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sparsetrain {
namespace {

Tensor random_tensor(Shape s, double density, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(s);
  t.fill_sparse_normal(rng, density);
  return t;
}

// ------------------------------------------------------- CompressedRows

TEST(CompressedRows, RoundTripMatchesCompressRow) {
  const Tensor t = random_tensor(Shape{2, 3, 5, 17}, 0.4, 11);
  const CompressedRows rows = compress_tensor(t);
  ASSERT_EQ(rows.rows(), 2u * 3u * 5u);
  EXPECT_EQ(rows.row_length(), 17u);
  EXPECT_TRUE(rows.valid());

  std::size_t flat = 0, nnz = 0;
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t y = 0; y < 5; ++y, ++flat) {
        const SparseRow expect = compress_row(t.row(n, c, y));
        const SparseRowView got = rows.row(flat);
        ASSERT_EQ(got.nnz(), expect.nnz()) << "row " << flat;
        EXPECT_TRUE(std::equal(got.offsets.begin(), got.offsets.end(),
                               expect.offsets.begin()));
        EXPECT_TRUE(std::equal(got.values.begin(), got.values.end(),
                               expect.values.begin()));
        // decompress_into reproduces the dense row.
        std::vector<float> dense(got.length);
        decompress_into(got, dense);
        const auto orig = t.row(n, c, y);
        EXPECT_TRUE(std::equal(dense.begin(), dense.end(), orig.begin()));
        // materialize() round-trips through the owning type.
        const SparseRow owned = materialize(got);
        EXPECT_TRUE(owned.valid());
        EXPECT_EQ(decompress_row(owned),
                  std::vector<float>(orig.begin(), orig.end()));
        nnz += got.nnz();
      }
    }
  }
  EXPECT_EQ(rows.total_nnz(), nnz);
  EXPECT_DOUBLE_EQ(rows.density(), t.density());
}

TEST(CompressedRows, ViewInvariantsHold) {
  const Tensor t = random_tensor(Shape{1, 2, 4, 33}, 0.3, 12);
  const CompressedRows rows = compress_tensor(t);
  for (std::size_t i = 0; i < rows.rows(); ++i)
    EXPECT_TRUE(rows.row(i).valid()) << "row " << i;
}

TEST(CompressedRows, EmptyAndDegenerateShapes) {
  // Default-constructed: no rows at all.
  const CompressedRows none;
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.valid());
  EXPECT_EQ(none.density(), 0.0);

  // All-zero tensor: rows exist, every one empty.
  const Tensor zeros(Shape{1, 2, 3, 8});
  const CompressedRows zrows = compress_tensor(zeros);
  ASSERT_EQ(zrows.rows(), 6u);
  EXPECT_EQ(zrows.total_nnz(), 0u);
  for (std::size_t i = 0; i < zrows.rows(); ++i) {
    EXPECT_TRUE(zrows.row(i).empty());
    EXPECT_EQ(zrows.row(i).length, 8u);
  }

  // 1×N: a single wide row.
  Tensor wide = random_tensor(Shape{1, 1, 1, 300}, 0.5, 13);
  const CompressedRows wrows = compress_tensor(wide);
  ASSERT_EQ(wrows.rows(), 1u);
  const SparseRow expect = compress_row(wide.row(0, 0, 0));
  EXPECT_EQ(wrows.row(0).nnz(), expect.nnz());
  EXPECT_TRUE(wrows.valid());

  // N×1: many single-element rows.
  Tensor tall = random_tensor(Shape{1, 1, 64, 1}, 0.5, 14);
  const CompressedRows trows = compress_tensor(tall);
  ASSERT_EQ(trows.rows(), 64u);
  EXPECT_EQ(trows.row_length(), 1u);
  for (std::size_t y = 0; y < 64; ++y) {
    const float v = tall.at(0, 0, y, 0);
    EXPECT_EQ(trows.row(y).nnz(), v != 0.0f ? 1u : 0u);
  }
  EXPECT_TRUE(trows.valid());

  // Out-of-range row access is contract-checked.
  EXPECT_THROW(trows.row(64), ContractError);
}

// sparse_normal_rows replays fill_sparse_normal's draws without values:
// on the same stream it must store exactly the offsets and row index
// compress_tensor stores, and its rows must expand to the 0/1 mask that
// binarising the filled tensor gives.
TEST(CompressedRows, SparseNormalRowsMatchCompressedFill) {
  for (const std::uint64_t seed : {1ull, 0x5eedull, 0x9e3779b97f4a7c15ull}) {
    for (const double density : {0.0, 0.05, 0.45, 1.0}) {
      for (const std::size_t w : {1u, 63u, 64u, 65u, 227u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " density=" + std::to_string(density) +
                     " w=" + std::to_string(w));
        const Shape shape{3, 2, 4, w};
        const Tensor t = random_tensor(shape, density, seed);
        const CompressedRows want = compress_tensor(t);
        const CompressedRows got = sparse_normal_rows(seed, shape, density);
        EXPECT_TRUE(got.valid());
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.row_length(), want.row_length());
        EXPECT_EQ(got.total_nnz(), want.total_nnz());
        std::vector<float> mask(w);
        for (std::size_t r = 0; r < got.rows(); ++r) {
          const SparseRowView g = got.row(r);
          const SparseRowView e = want.row(r);
          ASSERT_EQ(g.nnz(), e.nnz()) << "row " << r;
          EXPECT_TRUE(std::equal(g.offsets.begin(), g.offsets.end(),
                                 e.offsets.begin()))
              << "row " << r;
          decompress_into(g, mask);
          const std::span<const float> dense = t.flat().subspan(r * w, w);
          for (std::size_t x = 0; x < w; ++x) {
            ASSERT_EQ(mask[x], dense[x] != 0.0f ? 1.0f : 0.0f)
                << "row " << r << " x " << x;
          }
        }
      }
    }
  }
  EXPECT_THROW(sparse_normal_rows(1, Shape{1, 1, 1, 4}, 1.5), ContractError);
}

// --------------------------------------------------------------- BitMask

/// Random dense 0/1 mask row.
std::vector<float> random_mask_dense(std::uint32_t length, double density,
                                     Rng& rng) {
  std::vector<float> dense(length, 0.0f);
  for (auto& v : dense)
    if (rng.bernoulli(density)) v = 1.0f;
  return dense;
}

TEST(BitMask, FromDenseMatchesDenseRowOnRandomMasks) {
  Rng rng(21);
  for (const std::uint32_t length : {1u, 7u, 63u, 64u, 65u, 130u, 200u}) {
    for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      std::vector<float> dense = random_mask_dense(length, density, rng);
      // Any nonzero value, not just 1, is an allowed position.
      for (std::size_t p = 0; p < dense.size(); p += 3) dense[p] *= -0.25f;
      const BitMask mask = bitmask_from_dense(dense);
      std::size_t allowed = 0;
      for (const float v : dense) allowed += v != 0.0f ? 1 : 0;
      ASSERT_EQ(mask.length(), length);
      EXPECT_EQ(mask.allowed(), allowed);
      EXPECT_DOUBLE_EQ(mask.density(), static_cast<double>(allowed) /
                                           static_cast<double>(length));
      for (std::uint32_t p = 0; p < length; ++p)
        EXPECT_EQ(mask.allows(p), dense[p] != 0.0f)
            << "length " << length << " density " << density << " p " << p;
      EXPECT_FALSE(mask.allows(length));  // total beyond length()
    }
  }
}

TEST(BitMask, AllPassAndNone) {
  for (const std::uint32_t length : {0u, 1u, 64u, 100u}) {
    BitMask all;
    all.assign_all(length);
    EXPECT_EQ(all.length(), length);
    EXPECT_EQ(all.allowed(), length);
    for (std::uint32_t p = 0; p < length; ++p) EXPECT_TRUE(all.allows(p));
    // Bits beyond length stay zero so popcounts are exact.
    for (const std::uint64_t w : all.words())
      EXPECT_EQ(std::popcount(w) <= 64, true);

    BitMask none;
    none.assign_none(length);
    EXPECT_EQ(none.allowed(), 0u);
    EXPECT_EQ(none.density(), 0.0);
  }
  EXPECT_EQ(bitmask_all(70).allowed(), 70u);
}

TEST(BitMask, CountInMatchesManualCount) {
  Rng rng(23);
  const std::uint32_t length = 200;
  const std::vector<float> dense = random_mask_dense(length, 0.35, rng);
  const BitMask mask = bitmask_from_dense(dense);
  for (std::uint32_t lo = 0; lo < length; lo += 7) {
    for (const std::uint32_t width : {0u, 1u, 3u, 5u, 11u, 64u, 130u, 500u}) {
      const std::uint32_t hi = lo + width;  // may exceed length: clamped
      std::size_t manual = 0;
      for (std::uint32_t p = lo; p < std::min(hi, length); ++p)
        manual += dense[p] != 0.0f ? 1 : 0;
      EXPECT_EQ(mask.count_in(lo, hi), manual) << "lo " << lo << " hi " << hi;
    }
  }
  EXPECT_EQ(mask.count_in(50, 50), 0u);
  EXPECT_EQ(mask.count_in(120, 40), 0u);  // empty window
}

TEST(BitMask, AssignReusesStorage) {
  BitMask mask;
  mask.assign_all(128);
  const std::size_t full = mask.allowed();
  EXPECT_EQ(full, 128u);
  // Re-assigning a shorter mask must fully clear the previous contents.
  std::vector<float> dense(40, 0.0f);
  dense[3] = 1.0f;
  mask.assign_from_dense(dense);
  EXPECT_EQ(mask.length(), 40u);
  EXPECT_EQ(mask.allowed(), 1u);
  EXPECT_TRUE(mask.allows(3));
  EXPECT_FALSE(mask.allows(4));
}

// ------------------------------- work counters vs per-tap reference

// The original per-tap / binary-search implementations, kept verbatim as
// the semantic reference the optimised kernels must match exactly.
namespace reference {

using dataflow::RowGeometry;
using dataflow::RowOpWork;

bool src_output_index(std::uint32_t in_pos, std::uint32_t k,
                      const RowGeometry& geo, std::size_t out_len,
                      std::size_t& ox) {
  const std::int64_t num = static_cast<std::int64_t>(in_pos) +
                           static_cast<std::int64_t>(geo.padding) -
                           static_cast<std::int64_t>(k);
  if (num < 0) return false;
  if (num % geo.stride != 0) return false;
  const auto candidate = static_cast<std::size_t>(num / geo.stride);
  if (candidate >= out_len) return false;
  ox = candidate;
  return true;
}

RowOpWork src_work(const SparseRow& input, const RowGeometry& geo,
                   std::size_t out_len) {
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      std::size_t ox;
      if (src_output_index(input.offsets[i], k, geo, out_len, ox))
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

RowOpWork msrc_work(const SparseRow& input, const std::vector<float>& mask,
                    const RowGeometry& geo, std::size_t out_len) {
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      const std::int64_t idx = static_cast<std::int64_t>(input.offsets[i]) *
                                   static_cast<std::int64_t>(geo.stride) +
                               static_cast<std::int64_t>(k) -
                               static_cast<std::int64_t>(geo.padding);
      if (idx < 0 || idx >= static_cast<std::int64_t>(out_len)) continue;
      if (mask[static_cast<std::size_t>(idx)] == 0.0f) continue;
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

RowOpWork osrc_work(const SparseRow& input_acts, const SparseRow& grad_out,
                    const RowGeometry& geo) {
  RowOpWork w;
  for (std::size_t j = 0; j < grad_out.nnz(); ++j) {
    const std::uint32_t ox = grad_out.offsets[j];
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      const std::int64_t ipos = static_cast<std::int64_t>(ox) *
                                    static_cast<std::int64_t>(geo.stride) +
                                static_cast<std::int64_t>(k) -
                                static_cast<std::int64_t>(geo.padding);
      if (ipos < 0 || ipos >= static_cast<std::int64_t>(input_acts.length))
        continue;
      if (std::binary_search(input_acts.offsets.begin(),
                             input_acts.offsets.end(),
                             static_cast<std::uint32_t>(ipos)))
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

}  // namespace reference

SparseRow random_row(std::uint32_t length, double density, Rng& rng) {
  std::vector<float> dense(length, 0.0f);
  for (auto& v : dense)
    if (rng.bernoulli(density)) v = static_cast<float>(rng.normal());
  return compress_row(dense);
}

void expect_same_work(const dataflow::RowOpWork& got,
                      const dataflow::RowOpWork& ref, const char* what,
                      const dataflow::RowGeometry& geo, std::size_t len) {
  EXPECT_EQ(got.macs, ref.macs)
      << what << " K=" << geo.kernel << " S=" << geo.stride
      << " P=" << geo.padding << " len=" << len;
  EXPECT_EQ(got.active_inputs, ref.active_inputs) << what;
  EXPECT_EQ(got.skipped_inputs, ref.skipped_inputs) << what;
}

TEST(RowOpWorkEquivalence, OptimisedCountersMatchPerTapReference) {
  Rng rng(31);
  for (const std::uint32_t K : {1u, 3u, 5u, 11u}) {
    for (const std::uint32_t S : {1u, 2u, 3u, 4u}) {
      for (const std::uint32_t P : {0u, 1u, 2u, K}) {
        for (const std::uint32_t len : {1u, 7u, 64u, 301u}) {
          for (const double density : {0.0, 0.1, 0.5, 1.0}) {
            const dataflow::RowGeometry geo{K, S, P};
            // Output length of a conv with this geometry (guard the
            // underflow case where the padded row is shorter than K).
            if (len + 2 * P < K) continue;
            const std::size_t out_len = (len + 2 * P - K) / S + 1;

            const SparseRow in = random_row(len, density, rng);
            expect_same_work(dataflow::src_work(in, geo, out_len),
                             reference::src_work(in, geo, out_len), "src",
                             geo, len);

            const std::vector<float> mask_ref = random_mask_dense(
                static_cast<std::uint32_t>(out_len), 0.5, rng);
            const BitMask mask = bitmask_from_dense(mask_ref);
            expect_same_work(
                dataflow::msrc_work(in, mask, geo, out_len),
                reference::msrc_work(in, mask_ref, geo, out_len), "msrc",
                geo, len);

            const SparseRow grad = random_row(
                static_cast<std::uint32_t>(out_len), density, rng);
            // OSRC pairs an I row of length `len` with a dO row of length
            // out_len (in_len known to the reference via input.length).
            expect_same_work(dataflow::osrc_work(in, grad, geo),
                             reference::osrc_work(in, grad, geo), "osrc",
                             geo, len);
          }
        }
      }
    }
  }
}

// The two-pointer osrc_row_conv must also be bit-identical (same add
// order) to the binary-search reference.
TEST(RowOpWorkEquivalence, OsrcRowConvMatchesBinarySearchReference) {
  Rng rng(32);
  for (const std::uint32_t K : {1u, 3u, 5u}) {
    for (const std::uint32_t S : {1u, 2u}) {
      for (const std::uint32_t P : {0u, 1u, 2u}) {
        const std::uint32_t len = 64;
        if (len + 2 * P < K) continue;
        const std::size_t out_len = (len + 2 * P - K) / S + 1;
        const dataflow::RowGeometry geo{K, S, P};
        const SparseRow in = random_row(len, 0.5, rng);
        const SparseRow grad =
            random_row(static_cast<std::uint32_t>(out_len), 0.3, rng);

        std::vector<float> got(K, 0.0f);
        osrc_row_conv(in, grad, geo, got);

        std::vector<float> want(K, 0.0f);
        for (std::size_t j = 0; j < grad.nnz(); ++j) {
          const std::uint32_t ox = grad.offsets[j];
          const float g = grad.values[j];
          for (std::uint32_t k = 0; k < K; ++k) {
            const std::int64_t ipos =
                static_cast<std::int64_t>(ox) * S + k - P;
            if (ipos < 0 || ipos >= static_cast<std::int64_t>(in.length))
              continue;
            const auto it =
                std::lower_bound(in.offsets.begin(), in.offsets.end(),
                                 static_cast<std::uint32_t>(ipos));
            if (it != in.offsets.end() &&
                *it == static_cast<std::uint32_t>(ipos))
              want[k] +=
                  g * in.values[static_cast<std::size_t>(
                          it - in.offsets.begin())];
          }
        }
        for (std::uint32_t k = 0; k < K; ++k)
          EXPECT_EQ(got[k], want[k]) << "K=" << K << " S=" << S << " P=" << P
                                     << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace sparsetrain
