// Profiling seam for the exact engine.
//
// The sim layer must not depend on obs (the engine is usable without
// the serving tier), so the engine only sees this abstract interface.
// obs::EngineProfiler implements it on top of the metrics registry.
//
// The hook is called once per engine stage (forward, gta, gtw, fc)
// after the stage's tasks complete — never inside the per-task loop —
// so the zero-allocation, byte-identical hot path is untouched.
// sim::run_exact also calls it once per synthesised operand tensor under
// the stage `operands` (tasks 1, row_ops = the tensor's rows, tiles 1).
// When ExactOptions::profiler is null (the default) neither takes any
// timestamp at all.
#pragma once

#include <chrono>
#include <cstdint>

namespace sparsetrain::sim {

class ExactProfiler {
 public:
  virtual ~ExactProfiler() = default;

  /// One engine stage finished. `seconds` is wall time for the whole
  /// stage (all tasks, all tiles), `tiles` is the number of tiles
  /// util::parallel_for spread over the pool (1 when the stage ran as
  /// one inline call: no pool, or a single tile; 0 for an empty stage).
  /// A tile is a run of units (see ExactOptions::tile_tasks): a GTW
  /// tile holds whole (n, f) channel runs and a GTA tile whole (n, iy)
  /// dI-row sets, so GTA counts at most N·IH tiles.
  virtual void record_stage(const char* stage, double seconds,
                            std::uint64_t tasks, std::uint64_t row_ops,
                            std::uint64_t tiles) noexcept = 0;
};

/// Times one stage for a profiler: the clock is read at construction and
/// at record(), and never when the profiler is null.
class StageTimer {
 public:
  StageTimer(ExactProfiler* profiler, const char* stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  /// Reports the time since construction with the stage's counts.
  void record(std::uint64_t tasks, std::uint64_t row_ops,
              std::uint64_t tiles) const {
    if (profiler_ == nullptr) return;
    profiler_->record_stage(
        stage_,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count(),
        tasks, row_ops, tiles);
  }

 private:
  ExactProfiler* profiler_;
  const char* stage_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sparsetrain::sim
