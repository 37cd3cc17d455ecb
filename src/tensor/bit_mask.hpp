// Word-packed mask of allowed row positions.
//
// The GTA step skips gradient positions the following ReLU mask zeroes.
// BitMask stores the allowed positions as 64-bit words: allows() is one
// shift-and-test, allowed() is a popcount sum, and the look-ahead window
// test of MSRC (is anything allowed in [lo, hi)?) collapses to a couple of
// word operations. The assign_* methods reuse the word storage, so a
// per-thread scratch BitMask rebuilds from a dense mask row with zero
// steady-state allocations.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace sparsetrain {

class BitMask {
 public:
  BitMask() = default;

  /// All positions of [0, length) allowed.
  void assign_all(std::uint32_t length);

  /// No positions allowed.
  void assign_none(std::uint32_t length);

  /// Any nonzero entry of `dense` is an allowed position.
  void assign_from_dense(std::span<const float> dense);

  std::uint32_t length() const { return length_; }

  /// True when position p survives the mask; false beyond length(). O(1).
  bool allows(std::uint32_t p) const {
    return p < length_ && ((words_[p >> 6] >> (p & 63)) & 1u);
  }

  /// Number of allowed positions (popcount sum over the words).
  std::size_t allowed() const;

  /// allowed() / length; 0 for zero-length masks.
  double density() const;

  /// Allowed positions in [lo, hi) ∩ [0, length). The MSRC inner loop
  /// uses this as its window test: a window of K consecutive output
  /// positions spans at most two words.
  std::size_t count_in(std::uint32_t lo, std::uint32_t hi) const;

  /// Word-level access for word-skipping iteration (bits ≥ length() are
  /// guaranteed zero). Excludes the guard word.
  std::span<const std::uint64_t> words() const {
    return std::span<const std::uint64_t>(words_.data(), word_count());
  }

  /// Number of payload words, ⌈length() / 64⌉.
  std::size_t word_count() const {
    return (static_cast<std::size_t>(length_) + 63) / 64;
  }

 private:
  /// Sizes the word array for `length` bits plus the guard, zero-filled.
  void reset_words(std::uint32_t length);

  std::uint32_t length_ = 0;
  std::vector<std::uint64_t> words_;  ///< word_count() payload + 1 guard
};

/// Value-returning conveniences (tests, reference paths).
BitMask bitmask_all(std::uint32_t length);
BitMask bitmask_from_dense(std::span<const float> dense);

}  // namespace sparsetrain
