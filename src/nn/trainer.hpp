// Minibatch training loop (Forward → Backward(GTA+GTW) → Weight Update).
#pragma once

#include <functional>
#include <vector>

#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"

namespace sparsetrain::nn {

struct TrainConfig {
  std::size_t batch_size = 32;
  std::size_t epochs = 5;
  SgdConfig sgd;
};

/// Metrics of one epoch.
struct EpochStats {
  std::size_t epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
};

/// Result of a full training run.
struct TrainResult {
  std::vector<EpochStats> epochs;
  double final_train_accuracy = 0.0;
  double test_accuracy = 0.0;
};

/// Drives the three training stages over a dataset. The network's conv
/// layers may carry pruning transforms / probes; the trainer is agnostic.
class Trainer {
 public:
  /// Called at the end of every optimisation step (for FIFO pushes etc.).
  using StepHook = std::function<void()>;

  Trainer(Sequential& net, TrainConfig cfg);

  /// Runs cfg.epochs over `train`; evaluates on `test` at the end.
  TrainResult fit(const data::Dataset& train, const data::Dataset& test);

  /// One optimisation step on an explicit batch; returns the batch loss.
  float step(const data::Batch& batch);

  /// Accuracy over a dataset in eval mode.
  double evaluate(const data::Dataset& dataset);

  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

 private:
  Sequential& net_;
  TrainConfig cfg_;
  Sgd optimizer_;
  SoftmaxCrossEntropy loss_;
  StepHook step_hook_;
};

}  // namespace sparsetrain::nn
