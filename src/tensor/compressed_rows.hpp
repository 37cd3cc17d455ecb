// Arena-backed CSR storage for a whole tensor's compressed rows.
//
// The exact engine used to hold a tensor as vector<vector<SparseRow>> —
// every row owning two heap vectors, so a VGG-scale activation tensor
// scattered tens of thousands of small allocations across the heap and
// the PE loops chased pointers instead of streaming memory. This type
// stores all rows of one tensor in three contiguous arrays (one offsets
// arena, one values arena, a row-pointer index) and hands the hot loops
// lightweight SparseRowView spans into them. Rows of an NCHW tensor are
// indexed flat in (n, c, y) order — the same contiguous order as the
// tensor's own storage — so row (n, c, y) is row((n·C + c)·H + y).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/shape.hpp"
#include "tensor/sparse_row.hpp"
#include "util/require.hpp"

namespace sparsetrain {

class Tensor;

namespace util {
class ThreadPool;
}

class CompressedRows {
 public:
  CompressedRows() = default;

  std::size_t rows() const {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  /// Dense length shared by every row (NCHW rows all have length W).
  std::uint32_t row_length() const { return row_len_; }
  std::size_t total_nnz() const { return values_.size(); }
  bool empty() const { return rows() == 0; }

  /// View of row i — two spans into the arena, no ownership.
  SparseRowView row(std::size_t i) const {
    ST_REQUIRE(i + 1 < row_ptr_.size(), "CompressedRows row out of range");
    const std::size_t b = row_ptr_[i];
    const std::size_t e = row_ptr_[i + 1];
    return SparseRowView(
        row_len_,
        std::span<const std::uint32_t>(offsets_).subspan(b, e - b),
        std::span<const float>(values_).subspan(b, e - b));
  }

  /// Nonzero count of row i — row(i).nnz() without building the view.
  std::size_t row_nnz(std::size_t i) const {
    ST_REQUIRE(i + 1 < row_ptr_.size(), "CompressedRows row out of range");
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Fraction of nonzeros over all rows; 0 when empty.
  double density() const;

  /// Every row's SparseRowView invariants plus a monotone row index.
  bool valid() const;

  // ----------------------------------------------------------- builder
  // compress_tensor() builds in two tiled passes: start() turns per-row
  // nonzero counts into the row-pointer index and sizes both arenas in
  // one shot; fill_row() then compresses each dense row into its
  // pre-sized slice (disjoint slices, so the fill pass parallelises
  // without synchronisation).

  /// Allocates the arena for rows of dense length `row_len` whose
  /// per-row nonzero counts are `counts`.
  void start(std::uint32_t row_len, std::span<const std::uint32_t> counts);

  /// Compresses `dense` (length row_length()) into row i's slice. The
  /// nonzero count must match what start() was told for this row.
  void fill_row(std::size_t i, std::span<const float> dense);

 private:
  friend CompressedRows sparse_normal_rows(std::uint64_t seed,
                                           const Shape& shape,
                                           double density);

  std::uint32_t row_len_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< all rows' offsets, concatenated
  std::vector<float> values_;           ///< all rows' values, concatenated
  std::vector<std::size_t> row_ptr_;    ///< row i spans [ptr[i], ptr[i+1])
};

/// Compresses every row of `t` into one arena. Both passes (count, fill)
/// are tiled across `pool` when one is given; the resulting layout is
/// byte-identical for any pool/worker count (and to the serial build).
CompressedRows compress_tensor(const Tensor& t,
                               util::ThreadPool* pool = nullptr);

/// The rows compress_tensor() builds from a tensor of `shape` after
/// fill_sparse_normal(rng, density) on a fresh Rng(seed): the same
/// offsets and row index, drawn from the same stream, but no value is
/// ever evaluated. Every stored value is the placeholder 1.0f, so callers
/// that read positions only (the exact engine) skip the Box–Muller math
/// and the dense tensor, and decompressing a row gives a 0/1 mask row.
CompressedRows sparse_normal_rows(std::uint64_t seed, const Shape& shape,
                                  double density);

}  // namespace sparsetrain
