// Registry-backed implementation of the exact engine's profiling seam.
//
// Pre-resolves one handle set per known stage at construction, so
// record_stage() on the engine's completion path is handle lookups by
// strcmp plus relaxed atomic adds — no registry lock, no allocation.
#pragma once

#include "obs/metrics.hpp"
#include "sim/profile_hook.hpp"

namespace sparsetrain::obs {

class EngineProfiler final : public sim::ExactProfiler {
 public:
  explicit EngineProfiler(Registry& registry);

  void record_stage(const char* stage, double seconds, std::uint64_t tasks,
                    std::uint64_t row_ops, std::uint64_t tiles)
      noexcept override;

 private:
  struct StageHandles {
    const char* stage = nullptr;
    Histogram* seconds = nullptr;
    Counter* tasks = nullptr;
    Counter* row_ops = nullptr;
    Counter* tiles = nullptr;
  };
  static constexpr std::size_t kStages = 5;

  StageHandles& handles_for(const char* stage) noexcept;

  Registry* registry_;
  StageHandles stages_[kStages];
  StageHandles other_;  ///< fallback bucket for stages named later
};

}  // namespace sparsetrain::obs
