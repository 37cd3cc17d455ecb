#include "baseline/eyeriss_like.hpp"

namespace sparsetrain::baseline {

sim::ArchConfig eyeriss_like_config() {
  sim::ArchConfig cfg;
  cfg.name = "Eyeriss-like dense";
  cfg.sparse = false;
  // Same 168-PE / 386 KB budget as the SparseTrain configuration.
  cfg.pe_groups = 56;
  cfg.pes_per_group = 3;
  cfg.buffer_bytes = 386 * 1024;
  return cfg;
}

}  // namespace sparsetrain::baseline
