// Checks the least-loaded-group scheduler both simulation engines share
// against a std::priority_queue of (load, group id) pairs: after every
// assign the chosen group must be the queue's top, and the final loads
// must be bit-equal. The work streams force ties (integer-valued work,
// zero work, all-equal loads), so the id tie-break is exercised at every
// tree level, with group counts on both sides of powers of two, up to the
// 65,536 groups packed cycle keys hold; cycle loads must stay below 2^48.
// This binary replaces the global operator new to check that reset()
// reuses storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/least_loaded.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sparsetrain::sim {
namespace {

constexpr std::size_t kGroupCounts[] = {1, 2, 3, 7, 8, 56, 64, 65, 168, 1000};

enum class Stream { Random, Integer, Zero, Equal };
constexpr Stream kStreams[] = {Stream::Random, Stream::Integer, Stream::Zero,
                               Stream::Equal};

/// One task's work. Random draws like the statistical engine (a normal
/// clamped to ≥ 1) or spans many cycle counts; Integer takes 0..3, so
/// equal loads recur; Zero never separates any load; Equal keeps every
/// load equal after each full round.
template <typename Load>
Load draw(Stream stream, Rng& rng) {
  switch (stream) {
    case Stream::Random:
      if constexpr (std::is_same_v<Load, double>) {
        return std::max(1.0, rng.normal(40.0, 15.0));
      } else {
        return rng.uniform_index(1000);
      }
    case Stream::Integer:
      return static_cast<Load>(rng.uniform_index(4));
    case Stream::Zero:
      return 0;
    case Stream::Equal:
      return 3;
  }
  return 0;
}

template <typename Load>
std::uint64_t bits(Load load) {
  if constexpr (std::is_same_v<Load, double>) {
    return std::bit_cast<std::uint64_t>(load);
  } else {
    return load;
  }
}

/// Runs one seeded stream through `sched` (just reset to `groups`) and
/// through the reference queue.
template <typename Load>
void expect_matches_reference(LeastLoaded<Load>& sched, std::size_t groups,
                              Stream stream, std::uint64_t seed) {
  using Slot = std::pair<Load, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> ref;
  for (std::size_t g = 0; g < groups; ++g) ref.emplace(Load{0}, g);

  Rng rng(seed);
  const std::size_t tasks = 3 * groups + 400;
  for (std::size_t t = 0; t < tasks; ++t) {
    const Load work = draw<Load>(stream, rng);
    const auto [load, want] = ref.top();
    ref.pop();
    ref.emplace(load + work, want);
    ASSERT_EQ(sched.assign(work), want)
        << groups << " groups, stream " << static_cast<int>(stream)
        << ", task " << t;
  }

  std::vector<Load> loads(groups);
  while (!ref.empty()) {
    loads[ref.top().second] = ref.top().first;
    ref.pop();
  }
  for (std::size_t g = 0; g < groups; ++g) {
    EXPECT_EQ(bits(sched.load(g)), bits(loads[g]))
        << groups << " groups, group " << g;
  }
  EXPECT_EQ(bits(sched.max_load()),
            bits(*std::max_element(loads.begin(), loads.end())));
}

template <typename Load>
class LeastLoadedTest : public ::testing::Test {};
using LoadTypes = ::testing::Types<double, std::size_t>;
TYPED_TEST_SUITE(LeastLoadedTest, LoadTypes);

TYPED_TEST(LeastLoadedTest, EveryAssignMatchesPriorityQueue) {
  std::uint64_t seed = 1;
  for (const std::size_t groups : kGroupCounts) {
    for (const Stream stream : kStreams) {
      LeastLoaded<TypeParam> sched;
      sched.reset(groups);
      expect_matches_reference(sched, groups, stream, seed++);
    }
  }
}

TYPED_TEST(LeastLoadedTest, ResetReusesStorage) {
  LeastLoaded<TypeParam> sched;
  sched.reset(1000);
  expect_matches_reference(sched, 1000, Stream::Random, 11);

  const std::size_t before_small = g_alloc_count.load();
  sched.reset(7);
  const std::size_t small_allocs = g_alloc_count.load() - before_small;
  expect_matches_reference(sched, 7, Stream::Integer, 12);

  const std::size_t before_larger = g_alloc_count.load();
  sched.reset(168);
  const std::size_t larger_allocs = g_alloc_count.load() - before_larger;
  expect_matches_reference(sched, 168, Stream::Random, 13);

  EXPECT_EQ(small_allocs, 0u);
  EXPECT_EQ(larger_allocs, 0u);
}

TYPED_TEST(LeastLoadedTest, RejectsZeroGroups) {
  LeastLoaded<TypeParam> sched;
  EXPECT_THROW(sched.reset(0), ContractError);
}

// Cycle loads pack (load << 16) | group into one key: the 65,536 groups
// ArchConfig admits fill the group bits exactly, and one more does not fit.
TEST(LeastLoadedCycles, MostGroupsMatchPriorityQueue) {
  LeastLoaded<std::size_t> sched;
  sched.reset(65536);
  expect_matches_reference(sched, 65536, Stream::Integer, 21);
  sched.reset(65536);
  expect_matches_reference(sched, 65536, Stream::Random, 22);
  EXPECT_THROW(sched.reset(65537), ContractError);
}

// A cycle load has 48 bits: reaching 2^48 throws rather than carrying
// into — or, from a group's bits, out of — the key's other field.
TEST(LeastLoadedCycles, LoadsReachingTwoToThe48Throw) {
  constexpr std::size_t kLimit = std::size_t{1} << 48;
  LeastLoaded<std::size_t> one;
  one.reset(1);
  EXPECT_EQ(one.assign(kLimit - 2), 0u);
  EXPECT_EQ(one.assign(1), 0u);
  EXPECT_EQ(one.max_load(), kLimit - 1);
  EXPECT_THROW(one.assign(1), ContractError);
  EXPECT_EQ(one.load(0), kLimit - 1);  // the refused work left no trace

  // A stream over several groups that crosses 2^48 on its last task.
  LeastLoaded<std::size_t> sched;
  sched.reset(3);
  const std::size_t step = kLimit / 4;
  for (std::size_t t = 0; t < 9; ++t) EXPECT_EQ(sched.assign(step), t % 3);
  EXPECT_EQ(sched.max_load(), 3 * step);
  EXPECT_THROW(sched.assign(step), ContractError);
  EXPECT_THROW(sched.assign(~std::size_t{0}), ContractError);
  EXPECT_EQ(sched.assign(step - 1), 0u);
  EXPECT_EQ(sched.load(0), kLimit - 1);
}

}  // namespace
}  // namespace sparsetrain::sim
