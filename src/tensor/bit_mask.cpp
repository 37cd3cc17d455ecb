#include "tensor/bit_mask.hpp"

#include <algorithm>

namespace sparsetrain {

void BitMask::reset_words(std::uint32_t length) {
  length_ = length;
  const std::size_t n = (static_cast<std::size_t>(length) + 63) / 64;
  // One zero guard word past the payload: count_in's two-word funnel
  // reads words_[w + 1] for any start word w < n.
  words_.assign(n + 1, 0);  // reuses capacity: no allocation once warm
}

void BitMask::assign_all(std::uint32_t length) {
  reset_words(length);
  if (length == 0) return;
  const std::size_t n = word_count();
  std::fill(words_.begin(), words_.begin() + n, ~std::uint64_t{0});
  const std::uint32_t tail = length & 63;
  if (tail != 0) words_[n - 1] = (std::uint64_t{1} << tail) - 1;
}

void BitMask::assign_none(std::uint32_t length) { reset_words(length); }

void BitMask::assign_from_dense(std::span<const float> dense) {
  reset_words(static_cast<std::uint32_t>(dense.size()));
  for (std::size_t i = 0; i < dense.size(); ++i)
    if (dense[i] != 0.0f) words_[i >> 6] |= std::uint64_t{1} << (i & 63);
}

std::size_t BitMask::allowed() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words()) n += std::popcount(w);
  return n;
}

double BitMask::density() const {
  if (length_ == 0) return 0.0;
  return static_cast<double>(allowed()) / static_cast<double>(length_);
}

std::size_t BitMask::count_in(std::uint32_t lo, std::uint32_t hi) const {
  hi = std::min(hi, length_);
  if (lo >= hi) return 0;
  const std::uint32_t width = hi - lo;
  if (width <= 64) {
    // Narrow window (the MSRC case: width ≤ kernel ≤ 64): funnel the at
    // most two straddled words into one and popcount once. The guard
    // word makes words_[w + 1] readable for every start word, and the
    // double shift keeps the s == 0 case defined (shift counts stay
    // ≤ 63).
    const std::size_t w = lo >> 6;
    const std::uint32_t s = lo & 63;
    const std::uint64_t span =
        (words_[w] >> s) | ((words_[w + 1] << 1) << (63 - s));
    const std::uint64_t keep = ~std::uint64_t{0} >> (64 - width);
    return static_cast<std::size_t>(std::popcount(span & keep));
  }
  const std::size_t wlo = lo >> 6;
  const std::size_t whi = (hi - 1) >> 6;
  const std::uint64_t lo_keep = ~std::uint64_t{0} << (lo & 63);
  const std::uint64_t hi_keep =
      ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
  if (wlo == whi) return std::popcount(words_[wlo] & lo_keep & hi_keep);
  std::size_t n = std::popcount(words_[wlo] & lo_keep);
  for (std::size_t w = wlo + 1; w < whi; ++w)
    n += std::popcount(words_[w]);
  return n + std::popcount(words_[whi] & hi_keep);
}

BitMask bitmask_all(std::uint32_t length) {
  BitMask m;
  m.assign_all(length);
  return m;
}

BitMask bitmask_from_dense(std::span<const float> dense) {
  BitMask m;
  m.assign_from_dense(dense);
  return m;
}

}  // namespace sparsetrain
