#include "obs/engine_profiler.hpp"

#include <cstring>

namespace sparsetrain::obs {

namespace {

const char* const kKnownStages[] = {"forward", "gta", "gtw", "fc",
                                    "operands"};

}  // namespace

EngineProfiler::EngineProfiler(Registry& registry) : registry_(&registry) {
  auto bind = [&](StageHandles& h, const char* stage) {
    const Labels labels = {{"stage", stage}};
    h.stage = stage;
    h.seconds = &registry.histogram("engine_stage_seconds", labels);
    h.tasks = &registry.counter("engine_stage_tasks_total", labels);
    h.row_ops = &registry.counter("engine_stage_row_ops_total", labels);
    h.tiles = &registry.counter("engine_stage_tiles_total", labels);
  };
  for (std::size_t i = 0; i < kStages; ++i) {
    bind(stages_[i], kKnownStages[i]);
  }
  bind(other_, "other");
}

EngineProfiler::StageHandles& EngineProfiler::handles_for(
    const char* stage) noexcept {
  for (std::size_t i = 0; i < kStages; ++i) {
    if (std::strcmp(stages_[i].stage, stage) == 0) return stages_[i];
  }
  return other_;
}

void EngineProfiler::record_stage(const char* stage, double seconds,
                                  std::uint64_t tasks, std::uint64_t row_ops,
                                  std::uint64_t tiles) noexcept {
  StageHandles& h = handles_for(stage);
  h.seconds->record(seconds);
  h.tasks->inc(tasks);
  h.row_ops->inc(row_ops);
  h.tiles->inc(tiles);
}

}  // namespace sparsetrain::obs
