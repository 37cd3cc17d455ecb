#include "tensor/compressed_rows.hpp"

#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

void CompressedRows::start(std::uint32_t row_len,
                           std::span<const std::uint32_t> counts) {
  row_len_ = row_len;
  row_ptr_.resize(counts.size() + 1);
  row_ptr_[0] = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ST_REQUIRE(counts[i] <= row_len, "CompressedRows: count exceeds row");
    row_ptr_[i + 1] = row_ptr_[i] + counts[i];
  }
  offsets_.resize(row_ptr_.back());
  values_.resize(row_ptr_.back());
}

void CompressedRows::fill_row(std::size_t i, std::span<const float> dense) {
  ST_REQUIRE(i + 1 < row_ptr_.size(), "CompressedRows fill_row out of range");
  ST_REQUIRE(dense.size() == row_len_, "CompressedRows fill_row length");
  std::size_t k = row_ptr_[i];
  for (std::uint32_t p = 0; p < dense.size(); ++p) {
    if (dense[p] != 0.0f) {
      ST_REQUIRE(k < row_ptr_[i + 1],
                 "CompressedRows fill_row: more nonzeros than counted");
      offsets_[k] = p;
      values_[k] = dense[p];
      ++k;
    }
  }
  ST_REQUIRE(k == row_ptr_[i + 1],
             "CompressedRows fill_row: fewer nonzeros than counted");
}

CompressedRows compress_tensor(const Tensor& t, util::ThreadPool* pool) {
  const Shape& s = t.shape();
  const std::size_t n_rows = s.n * s.c * s.h;
  const std::span<const float> flat = t.flat();
  const std::size_t w = s.w;

  // Pass 1: per-row nonzero counts (tiled; each chunk writes its own
  // slots, so the count array is identical for any worker count).
  std::vector<std::uint32_t> counts(n_rows);
  constexpr std::size_t kGrain = 64;
  util::parallel_for(pool, n_rows, kGrain,
                     [&](std::size_t first, std::size_t last) {
                       for (std::size_t r = first; r < last; ++r) {
                         std::uint32_t c = 0;
                         for (const float v : flat.subspan(r * w, w))
                           c += (v != 0.0f);
                         counts[r] = c;
                       }
                     });

  // Pass 2: prefix-sum the index, then fill each row's disjoint slice.
  CompressedRows rows;
  rows.start(static_cast<std::uint32_t>(w), counts);
  util::parallel_for(pool, n_rows, kGrain,
                     [&](std::size_t first, std::size_t last) {
                       for (std::size_t r = first; r < last; ++r)
                         rows.fill_row(r, flat.subspan(r * w, w));
                     });
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
