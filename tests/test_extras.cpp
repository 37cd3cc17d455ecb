// Tests for the oracle pruner, the exact-threshold reference the FIFO
// predictor is measured against.
#include <gtest/gtest.h>

#include "pruning/gradient_pruner.hpp"
#include "pruning/oracle_pruner.hpp"
#include "util/rng.hpp"

namespace sparsetrain {
namespace {

TEST(OraclePrunerTest, MatchesTargetOnFirstBatch) {
  // Unlike the FIFO pruner, the oracle needs no warm-up.
  pruning::OraclePruner pruner(0.9, Rng(4));
  Tensor g(Shape::vec(50000));
  Rng data_rng(5);
  g.fill_normal(data_rng, 0.0f, 1.0f);
  pruner.apply(g);
  EXPECT_GT(pruner.last_threshold(), 0.0);
  EXPECT_NEAR(pruner.last_density(), 0.46, 0.03);  // analytic value at p=0.9
}

TEST(OraclePrunerTest, FifoConvergesToOracle) {
  // On a stationary stream the FIFO prediction must reach the oracle's
  // realised density — the paper's justification for the cheap scheme.
  pruning::OraclePruner oracle(0.9, Rng(6));
  pruning::PruningConfig cfg;
  cfg.target_sparsity = 0.9;
  cfg.fifo_depth = 4;
  pruning::GradientPruner fifo(cfg, Rng(7));

  double oracle_density = 1.0, fifo_density = 1.0;
  for (int b = 0; b < 16; ++b) {
    Rng data_rng(100 + b);
    Tensor g1(Shape::vec(30000));
    g1.fill_normal(data_rng, 0.0f, 0.8f);
    Tensor g2 = g1;
    oracle.apply(g1);
    fifo.apply(g2);
    oracle_density = oracle.last_density();
    fifo_density = fifo.last_density();
  }
  EXPECT_NEAR(fifo_density, oracle_density, 0.02);
}

}  // namespace
}  // namespace sparsetrain
