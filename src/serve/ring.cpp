#include "serve/ring.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/hash.hpp"
#include "util/require.hpp"

namespace sparsetrain::serve {

Ring::Ring(std::vector<std::string> endpoints)
    : endpoints_(std::move(endpoints)) {
  ST_REQUIRE(!endpoints_.empty(), "ring: needs at least one endpoint");
  std::unordered_set<std::string> seen;
  for (const std::string& ep : endpoints_) {
    ST_REQUIRE(!ep.empty(), "ring: empty endpoint spec");
    ST_REQUIRE(seen.insert(ep).second,
               "ring: duplicate endpoint '" + ep + "'");
  }
  points_.reserve(endpoints_.size() * kVnodes);
  for (std::size_t s = 0; s < endpoints_.size(); ++s) {
    const std::uint64_t base = fnv1a(endpoints_[s]);
    for (std::size_t v = 0; v < kVnodes; ++v) {
      points_.push_back(
          Point{mix64(base, static_cast<std::uint64_t>(v)),
                static_cast<std::uint32_t>(s)});
    }
  }
  // Tie-break by shard index so a (vanishingly unlikely) hash collision
  // between two endpoints' points still orders deterministically.
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.shard < b.shard;
            });
}

std::size_t Ring::at(std::uint64_t key) const {
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.hash < k; });
  const std::size_t idx =
      static_cast<std::size_t>(it - points_.begin());
  return idx == points_.size() ? 0 : idx;  // wrap past the top point
}

std::size_t Ring::owner(std::uint64_t key) const {
  return points_[at(key)].shard;
}

std::vector<std::size_t> Ring::successors(std::uint64_t key,
                                          std::size_t count) const {
  const std::size_t want = std::min(count + 1, endpoints_.size());
  std::vector<std::size_t> order;
  order.reserve(want);
  std::vector<bool> taken(endpoints_.size(), false);
  const std::size_t start = at(key);
  for (std::size_t i = 0; i < points_.size() && order.size() < want; ++i) {
    const std::uint32_t shard = points_[(start + i) % points_.size()].shard;
    if (!taken[shard]) {
      taken[shard] = true;
      order.push_back(shard);
    }
  }
  return order;
}

}  // namespace sparsetrain::serve
