#include "dataflow/row_ops.hpp"

#include <algorithm>
#include <cstdint>

#include "util/require.hpp"

namespace sparsetrain::dataflow {

namespace {

/// True when the (input position, kernel tap) pair maps to a valid output
/// index for the gather-style SRC mapping; writes it to `ox`.
bool src_output_index(std::uint32_t in_pos, std::uint32_t k,
                      const RowGeometry& geo, std::size_t out_len,
                      std::size_t& ox) {
  // ox·S + k − P = in_pos  →  ox = (in_pos + P − k) / S
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

/// Output index of the scatter-style MSRC mapping (GTA direction).
bool msrc_output_index(std::uint32_t in_pos, std::uint32_t k,
                       const RowGeometry& geo, std::size_t out_len,
                       std::size_t& ix) {
  // ix = in_pos·S + k − P
  const std::int64_t idx = static_cast<std::int64_t>(in_pos) *
                               static_cast<std::int64_t>(geo.stride) +
                           static_cast<std::int64_t>(k) -
                           static_cast<std::int64_t>(geo.padding);
  if (idx < 0 || idx >= static_cast<std::int64_t>(out_len)) return false;
  ix = static_cast<std::size_t>(idx);
  return true;
}

}  // namespace

void src_row_conv(SparseRowView input, std::span<const float> kernel,
                  const RowGeometry& geo, std::span<float> out) {
  ST_REQUIRE(kernel.size() == geo.kernel, "SRC kernel length != K");
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    const std::uint32_t pos = input.offsets[i];
    const float v = input.values[i];
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      std::size_t ox;
      if (src_output_index(pos, k, geo, out.size(), ox))
        out[ox] += v * kernel[k];
    }
  }
}

void msrc_row_conv(SparseRowView input, std::span<const float> kernel,
                   const BitMask& mask, const RowGeometry& geo,
                   std::span<float> out) {
  ST_REQUIRE(kernel.size() == geo.kernel, "MSRC kernel length != K");
  ST_REQUIRE(mask.length() == out.size(), "MSRC mask length != output length");
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    const std::uint32_t pos = input.offsets[i];
    const float v = input.values[i];
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      std::size_t ix;
      if (!msrc_output_index(pos, k, geo, out.size(), ix)) continue;
      if (!mask.allows(static_cast<std::uint32_t>(ix))) continue;
      out[ix] += v * kernel[k];
    }
  }
}

void osrc_row_conv(SparseRowView input_acts, SparseRowView grad_out,
                   const RowGeometry& geo, std::span<float> dw) {
  ST_REQUIRE(dw.size() == geo.kernel, "OSRC scratchpad length != K");
  // dw[k] += Σ dO[ox] · I[ox·S + k − P]: window member at I offset o
  // contributes to tap k = o − win_lo.
  osrc_window_sweep(
      input_acts, grad_out, geo,
      [&](std::size_t j, std::int64_t win_lo, std::size_t lo,
          std::size_t hi) {
        const float g = grad_out.values[j];
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::size_t k =
              static_cast<std::size_t>(input_acts.offsets[idx] - win_lo);
          dw[k] += g * input_acts.values[idx];
        }
      });
}

}  // namespace sparsetrain::dataflow
