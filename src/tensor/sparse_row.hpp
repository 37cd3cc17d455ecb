// Compressed sparse row format — the accelerator's on-wire data layout.
//
// The SparseTrain architecture moves activation / gradient rows between the
// global buffer and the PEs in an offset+value format (the PPU's "Format
// Converter" produces it, the PE's converters consume it). The same type is
// used by the functional dataflow reference and by the cycle simulator, so
// there is exactly one definition of what "compressed row" means.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace sparsetrain {

/// One sparse row: strictly increasing offsets with matching nonzero
/// values, plus the logical (dense) length.
struct SparseRow {
  std::uint32_t length = 0;            ///< dense length of the row
  std::vector<std::uint32_t> offsets;  ///< positions of nonzeros, ascending
  std::vector<float> values;           ///< values[i] lives at offsets[i]

  std::size_t nnz() const { return offsets.size(); }
  bool empty() const { return offsets.empty(); }

  /// Fraction of nonzeros; 0 for zero-length rows.
  double density() const;

  /// Storage cost in bytes for the modelled 16-bit value + 16-bit offset
  /// encoding used in the traffic/energy model.
  std::size_t encoded_bytes() const;

  /// Checks the representation invariants (sorted unique offsets in range,
  /// no stored zeros, matching array sizes). Used by tests and debug paths.
  bool valid() const;
};

/// Non-owning view of one compressed row. This is what the hot paths pass
/// around: two spans that may point into an owning SparseRow or into a
/// CompressedRows arena. Trivially copyable — pass by value.
struct SparseRowView {
  std::uint32_t length = 0;            ///< dense length of the row
  std::span<const std::uint32_t> offsets;
  std::span<const float> values;

  SparseRowView() = default;
  SparseRowView(std::uint32_t len, std::span<const std::uint32_t> offs,
                std::span<const float> vals)
      : length(len), offsets(offs), values(vals) {}
  /*implicit*/ SparseRowView(const SparseRow& row)
      : length(row.length), offsets(row.offsets), values(row.values) {}

  std::size_t nnz() const { return offsets.size(); }
  bool empty() const { return offsets.empty(); }

  /// Fraction of nonzeros; 0 for zero-length rows.
  double density() const;

  /// Same modelled encoding as SparseRow::encoded_bytes().
  std::size_t encoded_bytes() const;

  /// Representation invariants (sorted unique offsets in range, no stored
  /// zeros, matching span sizes).
  bool valid() const;
};

/// Compresses a dense row (exact zeros are dropped).
SparseRow compress_row(std::span<const float> dense);

/// Expands back to dense; output size is row.length.
std::vector<float> decompress_row(const SparseRow& row);

/// Expands a view into caller-provided storage (dense.size() must equal
/// row.length; positions without a nonzero are zeroed).
void decompress_into(SparseRowView row, std::span<float> dense);

/// Owning copy of a view (for callers that outlive the arena).
SparseRow materialize(SparseRowView row);

}  // namespace sparsetrain
