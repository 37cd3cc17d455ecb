// Consistent-hash ring over daemon endpoints.
//
// The shard router places every evaluation on the ring by its store
// fingerprint: each endpoint contributes kVnodes points whose positions
// are derived purely from the endpoint *string* (mix64 over its FNV-1a
// hash and the virtual-node index), so placement is a function of which
// endpoints exist — not of list order, construction history, or anything
// process-local. Two routers configured with the same pool agree on every
// key, and a router restart changes nothing.
//
// The memcached property this buys: adding a shard moves only the keys
// that now fall on the new shard's points (~1/N of the space), and
// removing a shard moves only the keys it owned — everything else stays
// put, so a pool resize invalidates almost none of the shards' warm
// stores. tests/test_serve_router.cpp pins both directions.
//
// successors() is the replication/failover order: the distinct shards
// whose points follow the key clockwise. The owner is successors()[0];
// a router that finds the owner down walks the same list, and replicas
// go to the next R entries — so failover traffic lands exactly where
// the replicas were sent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sparsetrain::serve {

class Ring {
 public:
  /// Points per endpoint. More virtual nodes flatten the load split
  /// between shards (64 keeps the max/min ratio under ~1.5 for small
  /// pools) at O(N * kVnodes * log) build cost. A constant, not an
  /// option: every router on one pool must build the same ring, or they
  /// place keys on different shards.
  static constexpr std::size_t kVnodes = 64;

  /// Builds the ring. Endpoint specs must be non-empty and distinct
  /// (duplicates would silently double one shard's share); throws
  /// ContractError otherwise.
  explicit Ring(std::vector<std::string> endpoints);

  std::size_t size() const { return endpoints_.size(); }
  const std::vector<std::string>& endpoints() const { return endpoints_; }
  const std::string& endpoint(std::size_t shard) const {
    return endpoints_[shard];
  }

  /// Shard index owning `key` (the first ring point at or after it,
  /// wrapping at the top).
  std::size_t owner(std::uint64_t key) const;

  /// The first `count` *distinct* shards in ring order starting at the
  /// owner — owner first, then its failover/replication successors.
  /// Capped at size(); count = 0 yields just the owner.
  std::vector<std::size_t> successors(std::uint64_t key,
                                      std::size_t count) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t shard;
  };

  std::size_t at(std::uint64_t key) const;  ///< index into points_

  std::vector<std::string> endpoints_;
  std::vector<Point> points_;  ///< sorted by (hash, shard)
};

}  // namespace sparsetrain::serve
