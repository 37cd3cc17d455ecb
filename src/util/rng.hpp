// Deterministic pseudo-random number generation.
//
// The whole library must be reproducible run-to-run (the stochastic pruning
// rule itself consumes randomness, and experiments must be repeatable), so
// every randomised component takes an explicit Rng instead of touching
// global state. The generator is xoshiro256**, which is small, fast and has
// no observable bias for the sample sizes used here.
#pragma once

#include <cstdint>

namespace sparsetrain {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to
/// <random> adaptors, but the members below avoid libstdc++'s distribution
/// objects so streams are stable across standard library versions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value. This, uniform() and bernoulli() are inline
  /// because operand synthesis draws at least once per tensor element.
  std::uint64_t operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of the next raw value.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Advances the stream exactly as normal() does and returns whether
  /// that variate is nonzero, without evaluating it. A fresh pair's first
  /// variate r·cos θ is never zero: r = √(−2 ln u1) ≥ 2^-26 because
  /// u1 ≤ 1 − 2^-53, and |cos θ| ≥ 6.1e-17 for every double θ = 2π·u2
  /// (the closest ones to π/2 and 3π/2), so |r·cos θ| ≥ 9.1e-25. The
  /// second variate r·sin θ is zero exactly when u2 == 0; any other u2
  /// gives |sin θ| ≥ 1.2e-16 (at θ = fl(π)). Both bounds sit far above the
  /// smallest positive float, so a nonzero variate stays nonzero as a
  /// float too. The pair is cached unevaluated: a normal() call that
  /// takes it gets the value normal() itself would have cached.
  bool normal_nonzero();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Creates an independent child stream (for per-layer / per-worker use).
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  /// The second variate of the last Box–Muller pair, when one is cached.
  /// A pair cached by normal_nonzero() is unevaluated: cached_normal_
  /// then holds its u1 and cached_u2_ its u2.
  double cached_normal_ = 0.0;
  double cached_u2_ = 0.0;
  bool has_cached_normal_ = false;
  bool cached_unevaluated_ = false;
};

}  // namespace sparsetrain
