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
//
// Two builders fill it, each in one pass that appends row after row:
// compress_tensor() from a dense tensor, and sparse_normal_rows() from a
// random stream without ever forming the tensor. The exact engine reads
// every operand in this form: activations, gradients, ReLU masks (a
// mask row's offsets are the positions it lets through) and FC vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/shape.hpp"
#include "tensor/sparse_row.hpp"
#include "util/require.hpp"

namespace sparsetrain {

class Tensor;

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

 private:
  friend CompressedRows compress_tensor(const Tensor& t);
  friend CompressedRows sparse_normal_rows(std::uint64_t seed,
                                           const Shape& shape,
                                           double density);

  std::uint32_t row_len_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< all rows' offsets, concatenated
  std::vector<float> values_;           ///< all rows' values, concatenated
  std::vector<std::size_t> row_ptr_;    ///< row i spans [ptr[i], ptr[i+1])
};

/// Compresses every row of `t` into one arena, in one pass that appends
/// each row's nonzero offsets and values.
CompressedRows compress_tensor(const Tensor& t);

/// The rows compress_tensor() builds from a tensor of `shape` after
/// fill_sparse_normal(rng, density) on a fresh Rng(seed): the same
/// offsets and row index, drawn from the same stream, but no value is
/// ever evaluated. Every stored value is the placeholder 1.0f, so callers
/// that read positions only (the exact engine) skip the Box–Muller math
/// and the dense tensor.
CompressedRows sparse_normal_rows(std::uint64_t seed, const Shape& shape,
                                  double density);

}  // namespace sparsetrain
