// The controller's dispatch rule (paper §V): every task goes to the
// least-loaded PE group, ties to the lowest group id. Both simulation
// engines schedule through this one class — the statistical engine with
// sampled double-valued task times, the exact engine with integer cycles —
// so the two cannot drift apart on the (load, id) order.
//
// A winner (tournament) tree over the groups, padded to a power of two
// with leaves in id order: node i's winner is the lesser of its children
// 2i and 2i+1. Assigning a task changes one leaf, so only its
// leaf-to-root path is replayed: O(log groups), reading one sibling per
// level. Which side wins a level is data-dependent and unpredictable, so
// the replay selects without a branch: written as a ternary, GCC emits a
// branch per level and the mispredictions cost more than the rest of the
// replay.
//
// Cycle loads pack into one 64-bit key per node, (load << 16) | group:
// the keys' integer order is then the (load, lowest id) order itself, so
// a level is one load, one min and one store, and no id is kept beside
// the key. That needs at most 2^16 groups — ArchConfig::validate caps
// pe_groups at 65,536 — and loads below 2^48 (2.8e14 cycles), which
// assign() checks. A double has no spare bits, so double loads keep the
// key (the load's bit pattern) and a separate id per node, and break ties
// by letting the left child, which covers the lower ids, win them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "util/require.hpp"

namespace sparsetrain::sim {

/// Least-loaded-group scheduler. `Load` is `double` (statistical task
/// times) or `std::size_t` (exact cycles). Work must be non-negative:
/// double loads compare as the bits of their 64-bit patterns, and
/// non-negative doubles order like their bit patterns.
template <typename Load>
class LeastLoaded {
  static_assert(std::is_same_v<Load, double> ||
                    (std::is_same_v<Load, std::size_t> &&
                     sizeof(std::size_t) == sizeof(std::uint64_t)),
                "loads are doubles or 64-bit cycle counts");
  /// Cycle loads carry their group in the key's low bits.
  static constexpr bool kPacked = std::is_same_v<Load, std::size_t>;
  static constexpr unsigned kGroupBits = 16;
  /// The most groups one scheduler holds.
  static constexpr std::size_t kMaxGroups =
      kPacked ? std::size_t{1} << kGroupBits
              : std::numeric_limits<std::uint32_t>::max();
  /// Cycle loads stay below this (the key's load bits).
  static constexpr std::uint64_t kLoadLimit = std::uint64_t{1}
                                              << (64 - kGroupBits);

 public:
  /// `groups` groups, every load zero. Reuses the storage of any earlier
  /// reset to at least as many groups.
  void reset(std::size_t groups) {
    ST_REQUIRE(groups > 0 && groups <= kMaxGroups,
               "scheduler needs 1 to " + std::to_string(kMaxGroups) +
                   " groups");
    groups_ = groups;
    leaves_ = std::bit_ceil(groups);
    // Pad leaves never win: they sit right of every real leaf and hold
    // the largest key (a packed real key reaches it only with 2^16
    // groups, which leave no pad).
    key_.assign(2 * leaves_, kPad);
    if constexpr (!kPacked) id_.resize(2 * leaves_);
    for (std::size_t g = 0; g < leaves_; ++g) {
      if constexpr (!kPacked) id_[leaves_ + g] = static_cast<std::uint32_t>(g);
      if (g < groups) key_[leaves_ + g] = kPacked ? g : 0;
    }
    for (std::size_t i = leaves_ - 1; i >= 1; --i) {
      const std::size_t w = key_[2 * i + 1] < key_[2 * i] ? 2 * i + 1 : 2 * i;
      key_[i] = key_[w];
      if constexpr (!kPacked) id_[i] = id_[w];
    }
  }

  /// Adds `work` (≥ 0) to the least-loaded group (lowest id among equal
  /// loads) and returns that group. A cycle load that would reach 2^48
  /// throws ContractError.
  std::size_t assign(Load work) {
    if constexpr (kPacked) {
      std::uint64_t key = key_[1];
      const std::size_t group = key & kGroupMask;
      ST_REQUIRE(work < kLoadLimit - (key >> kGroupBits),
                 "a cycle load reached 2^48");
      key += work << kGroupBits;
      std::size_t node = leaves_ + group;
      key_[node] = key;
      for (; node > 1; node >>= 1) {
        // Keys are distinct (their group bits are), so the smaller one
        // wins with no tie-break.
        key = std::min(key, key_[node ^ 1]);
        key_[node >> 1] = key;
      }
      return group;
    } else {
      const std::uint32_t group = id_[1];
      std::uint64_t key = key_of(load_of(key_[1]) + work);
      std::uint32_t id = group;
      std::size_t node = leaves_ + group;
      key_[node] = key;
      for (; node > 1; node >>= 1) {
        const std::uint64_t sib_key = key_[node ^ 1];
        const std::uint32_t sib_id = id_[node ^ 1];
        // The climbing winner keeps its place on a strictly smaller key,
        // or on an equal one from the left.
        const std::uint64_t is_left = ~node & 1;
        const std::uint64_t keep =
            0 - ((key < sib_key) | ((key == sib_key) & is_left));
        key = (key & keep) | (sib_key & ~keep);
        id = (id & static_cast<std::uint32_t>(keep)) |
             (sib_id & ~static_cast<std::uint32_t>(keep));
        key_[node >> 1] = key;
        id_[node >> 1] = id;
      }
      return group;
    }
  }

  Load load(std::size_t group) const { return load_of(key_[leaves_ + group]); }

  /// The makespan: the largest group load.
  Load max_load() const {
    std::uint64_t m = 0;
    for (std::size_t g = 0; g < groups_; ++g) {
      m = key_[leaves_ + g] > m ? key_[leaves_ + g] : m;
    }
    return load_of(m);
  }

 private:
  static constexpr std::uint64_t kPad = ~std::uint64_t{0};
  static constexpr std::uint64_t kGroupMask =
      (std::uint64_t{1} << kGroupBits) - 1;

  static std::uint64_t key_of(Load load) {
    return std::bit_cast<std::uint64_t>(load);
  }

  static Load load_of(std::uint64_t key) {
    if constexpr (kPacked) {
      return key >> kGroupBits;
    } else {
      return std::bit_cast<double>(key);
    }
  }

  struct NoIds {};

  std::size_t groups_ = 0;
  std::size_t leaves_ = 0;
  /// Node i ∈ [1, leaves_) holds the winner of its subtree; leaf
  /// leaves_ + g holds group g. Slot 0 is unused.
  std::vector<std::uint64_t> key_;
  /// Double loads only: the group each node's key belongs to.
  [[no_unique_address]] std::conditional_t<kPacked, NoIds,
                                           std::vector<std::uint32_t>>
      id_;
};

}  // namespace sparsetrain::sim
