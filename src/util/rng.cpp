#include "util/rng.hpp"

#include <cmath>

#include "util/require.hpp"

namespace sparsetrain {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The variates (r·cos θ, r·sin θ) of the Box–Muller pair drawn as
/// (u1, u2).
struct NormalPair {
  double first;
  double second;
};

NormalPair box_muller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) {
  ST_REQUIRE(lo <= hi, "uniform bounds reversed");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  ST_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return v % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    if (cached_unevaluated_) {
      cached_unevaluated_ = false;
      return box_muller(cached_normal_, cached_u2_).second;
    }
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const NormalPair pair = box_muller(u1, uniform());
  cached_normal_ = pair.second;
  has_cached_normal_ = true;
  return pair.first;
}

bool Rng::normal_nonzero() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    if (cached_unevaluated_) {
      cached_unevaluated_ = false;
      return cached_u2_ != 0.0;
    }
    return cached_normal_ != 0.0;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  cached_normal_ = u1;
  cached_u2_ = uniform();
  has_cached_normal_ = true;
  cached_unevaluated_ = true;
  return true;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Rng Rng::split() { return Rng((*this)()); }

}  // namespace sparsetrain
