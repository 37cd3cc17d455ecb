// Asserts the exact engine's zero-allocation contract: once a stage has
// warmed the per-thread scratch, evaluating tasks performs no heap
// allocation at all. This binary replaces the global operator new/delete
// pair with a counting shim; each stage is run twice on pre-compressed
// operands and the second (steady-state) run must cost a small constant
// number of allocations that does NOT grow with the task count — i.e.
// per-task allocations are exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "dataflow/conv_decompose.hpp"
#include "sim/exact_engine.hpp"
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

struct StageSetup {
  Tensor input;
  Tensor grad;
  Tensor mask;
  dataflow::ConvGeometry geo;
};

StageSetup make_setup(std::size_t h) {
  StageSetup s;
  s.geo.in_channels = 6;
  s.geo.out_channels = 12;
  s.geo.kernel = 3;
  s.geo.stride = 1;
  s.geo.padding = 1;
  Rng rng(41);
  s.input = Tensor(Shape{1, s.geo.in_channels, h, 32});
  s.input.fill_sparse_normal(rng, 0.4);
  const Shape out = dataflow::conv_output_shape(s.geo, s.input.shape());
  s.grad = Tensor(out);
  s.grad.fill_sparse_normal(rng, 0.3);
  s.mask = Tensor(s.input.shape());
  s.mask.fill_sparse_normal(rng, 0.5);
  for (float& v : s.mask.flat())
    if (v != 0.0f) v = 1.0f;
  return s;
}

/// Allocations of one steady-state stage run (stage already ran once to
/// warm the scratch; results of both runs must match exactly).
template <typename Fn>
std::size_t steady_state_allocs(const Fn& run) {
  const ExactStageResult warm = run();
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const ExactStageResult again = run();
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(warm.cycles, again.cycles);
  EXPECT_EQ(warm.activity.busy_cycles, again.activity.busy_cycles);
  EXPECT_EQ(warm.activity.macs, again.activity.macs);
  return allocs;
}

// Since the streaming-merge rewrite there is no per-stage task-cost
// vector at all: the serial path folds every task straight into the
// group scheduler, and the scheduler arrays and every stage-wide table
// (forward's row costs, GTA's clipped windows and all-pass counts, the
// GTA/GTW MAC tables) live in a pooled arena that a warmed engine
// reuses without touching the heap, as do the per-thread scratch
// buffers (GTA's blocked lanes and per-channel counts, GTW's open
// rounds). No steady-state stage run may allocate at all.
constexpr std::size_t kZero = 0;

TEST(ExactAlloc, SteadyStateTaskEvaluationIsAllocationFree) {
  const StageSetup small = make_setup(/*h=*/24);
  const StageSetup big = make_setup(/*h=*/96);  // 4× the tasks

  ArchConfig cfg;
  const ExactEngine engine(cfg);  // serial: everything on this thread

  auto measure = [&](const StageSetup& s) {
    const auto in_rows = compress_tensor(s.input);
    const auto go_rows = compress_tensor(s.grad);
    const auto mask_rows = compress_tensor(s.mask);
    const Shape in_shape = s.input.shape();
    const Shape out_shape = s.grad.shape();

    struct {
      std::size_t fwd, gta_masked, gta_all, gtw;
    } allocs{};
    allocs.fwd = steady_state_allocs(
        [&] { return engine.run_forward(in_rows, in_shape, s.geo); });
    allocs.gta_masked = steady_state_allocs([&] {
      return engine.run_gta(go_rows, out_shape, in_shape, &mask_rows, s.geo);
    });
    allocs.gta_all = steady_state_allocs([&] {
      return engine.run_gta(go_rows, out_shape, in_shape, nullptr, s.geo);
    });
    allocs.gtw = steady_state_allocs([&] {
      return engine.run_gtw(go_rows, out_shape, in_rows, in_shape, s.geo);
    });
    return allocs;
  };

  const auto small_allocs = measure(small);
  const auto big_allocs = measure(big);

  // Steady state is *exactly* allocation-free — in particular the old
  // per-stage `std::vector<TaskCost> costs(tasks)` is gone, not merely
  // flat.
  EXPECT_EQ(small_allocs.fwd, kZero);
  EXPECT_EQ(small_allocs.gtw, kZero);
  EXPECT_EQ(small_allocs.gta_masked, kZero);
  EXPECT_EQ(small_allocs.gta_all, kZero);

  // The proof that per-task allocations are zero: quadrupling the task
  // count must not change the per-stage allocation count at all.
  EXPECT_EQ(big_allocs.fwd, small_allocs.fwd);
  EXPECT_EQ(big_allocs.gta_masked, small_allocs.gta_masked);
  EXPECT_EQ(big_allocs.gta_all, small_allocs.gta_all);
  EXPECT_EQ(big_allocs.gtw, small_allocs.gtw);
}

}  // namespace
}  // namespace sparsetrain::sim
