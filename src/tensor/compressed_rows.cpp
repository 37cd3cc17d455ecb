#include "tensor/compressed_rows.hpp"

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sparsetrain {

double CompressedRows::density() const {
  const std::size_t dense =
      rows() * static_cast<std::size_t>(row_len_);
  if (dense == 0) return 0.0;
  return static_cast<double>(total_nnz()) / static_cast<double>(dense);
}

bool CompressedRows::valid() const {
  if (row_ptr_.empty()) return offsets_.empty() && values_.empty();
  if (row_ptr_.front() != 0 || row_ptr_.back() != values_.size()) return false;
  if (offsets_.size() != values_.size()) return false;
  for (std::size_t i = 0; i + 1 < row_ptr_.size(); ++i) {
    if (row_ptr_[i] > row_ptr_[i + 1]) return false;
    if (!row(i).valid()) return false;
  }
  return true;
}

CompressedRows compress_tensor(const Tensor& t) {
  const Shape& s = t.shape();
  const std::size_t n_rows = s.n * s.c * s.h;
  const std::span<const float> flat = t.flat();
  CompressedRows rows;
  rows.row_len_ = static_cast<std::uint32_t>(s.w);
  rows.row_ptr_.resize(n_rows + 1);
  rows.row_ptr_[0] = 0;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::span<const float> dense = flat.subspan(r * s.w, s.w);
    for (std::uint32_t x = 0; x < dense.size(); ++x) {
      if (dense[x] != 0.0f) {
        rows.offsets_.push_back(x);
        rows.values_.push_back(dense[x]);
      }
    }
    rows.row_ptr_[r + 1] = rows.offsets_.size();
  }
  return rows;
}

CompressedRows sparse_normal_rows(std::uint64_t seed, const Shape& shape,
                                  double density) {
  ST_REQUIRE(density >= 0.0 && density <= 1.0, "density must be in [0,1]");
  // Replays Tensor::fill_sparse_normal draw for draw: an element survives
  // its Bernoulli draw, then stores the next normal variate, which is
  // nonzero exactly when Rng::normal_nonzero() says so.
  Rng rng(seed);
  const std::size_t n_rows = shape.n * shape.c * shape.h;
  const std::size_t w = shape.w;
  CompressedRows rows;
  rows.row_len_ = static_cast<std::uint32_t>(w);
  rows.row_ptr_.resize(n_rows + 1);
  rows.row_ptr_[0] = 0;
  // The expected count plus a margin, so a draw above the mean rarely
  // reallocates.
  rows.offsets_.reserve(static_cast<std::size_t>(
      density * static_cast<double>(n_rows * w) * 1.05 + 64.0));
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::uint32_t x = 0; x < w; ++x) {
      if (rng.bernoulli(density) && rng.normal_nonzero()) {
        rows.offsets_.push_back(x);
      }
    }
    rows.row_ptr_[r + 1] = rows.offsets_.size();
  }
  rows.values_.assign(rows.offsets_.size(), 1.0f);
  return rows;
}

}  // namespace sparsetrain
