#include "tensor/sparse_row.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace sparsetrain {

double SparseRow::density() const {
  return SparseRowView(*this).density();
}

std::size_t SparseRow::encoded_bytes() const {
  return SparseRowView(*this).encoded_bytes();
}

bool SparseRow::valid() const { return SparseRowView(*this).valid(); }

double SparseRowView::density() const {
  if (length == 0) return 0.0;
  return static_cast<double>(nnz()) / static_cast<double>(length);
}

std::size_t SparseRowView::encoded_bytes() const {
  // Modelled encoding: a presence bitmap (1 bit per dense position) plus
  // 16-bit values for the nonzeros, plus a 2-byte row descriptor. This is
  // what the PPU's format converter emits; it beats offset+value encodings
  // for the short, moderately dense rows CNN layers produce.
  return 2 + (length + 7) / 8 + nnz() * 2;
}

bool SparseRowView::valid() const {
  if (offsets.size() != values.size()) return false;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    if (offsets[i] >= length) return false;
    if (i > 0 && offsets[i] <= offsets[i - 1]) return false;
    if (values[i] == 0.0f) return false;
  }
  return true;
}

SparseRow compress_row(std::span<const float> dense) {
  SparseRow row;
  row.length = static_cast<std::uint32_t>(dense.size());
  for (std::uint32_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0f) {
      row.offsets.push_back(i);
      row.values.push_back(dense[i]);
    }
  }
  return row;
}

std::vector<float> decompress_row(const SparseRow& row) {
  ST_REQUIRE(row.valid(), "decompress_row: malformed sparse row");
  std::vector<float> dense(row.length, 0.0f);
  decompress_into(row, dense);
  return dense;
}

void decompress_into(SparseRowView row, std::span<float> dense) {
  ST_REQUIRE(dense.size() == row.length, "decompress_into length mismatch");
  std::fill(dense.begin(), dense.end(), 0.0f);
  for (std::size_t i = 0; i < row.nnz(); ++i)
    dense[row.offsets[i]] = row.values[i];
}

SparseRow materialize(SparseRowView row) {
  SparseRow out;
  out.length = row.length;
  out.offsets.assign(row.offsets.begin(), row.offsets.end());
  out.values.assign(row.values.begin(), row.values.end());
  return out;
}

}  // namespace sparsetrain
