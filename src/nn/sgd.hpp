// Stochastic gradient descent — the paper's Weight Update stage.
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/param.hpp"

namespace sparsetrain::nn {

struct SgdConfig {
  float learning_rate = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
};

/// SGD with classical momentum and decoupled L2 weight decay.
class Sgd {
 public:
  explicit Sgd(std::vector<Param*> params, SgdConfig cfg = {});

  /// Applies one update from the accumulated gradients, then clears them.
  void step();

  /// Clears all gradients without updating.
  void zero_grad();

 private:
  std::vector<Param*> params_;
  SgdConfig cfg_;
  std::unordered_map<Param*, Tensor> velocity_;
};

}  // namespace sparsetrain::nn
