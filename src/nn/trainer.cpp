#include "nn/trainer.hpp"

#include "util/require.hpp"

namespace sparsetrain::nn {

Trainer::Trainer(Sequential& net, TrainConfig cfg)
    : net_(net), cfg_(cfg), optimizer_(net.params(), cfg.sgd) {
  ST_REQUIRE(cfg_.batch_size > 0, "batch size must be positive");
}

float Trainer::step(const data::Batch& batch) {
  const Tensor logits = net_.forward(batch.images, /*training=*/true);
  const float loss = loss_.forward(logits, batch.labels);
  net_.backward(loss_.backward());
  optimizer_.step();
  if (step_hook_) step_hook_();
  return loss;
}

TrainResult Trainer::fit(const data::Dataset& train,
                         const data::Dataset& test) {
  TrainResult result;
  const std::size_t steps_per_epoch =
      (train.size() + cfg_.batch_size - 1) / cfg_.batch_size;

  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    double loss_sum = 0.0;
    std::size_t hits = 0;
    std::size_t seen = 0;
    for (std::size_t s = 0; s < steps_per_epoch; ++s) {
      const data::Batch batch =
          train.batch(s * cfg_.batch_size, cfg_.batch_size);
      loss_sum += step(batch);
      const auto& preds = loss_.predictions();
      for (std::size_t i = 0; i < preds.size(); ++i)
        if (preds[i] == batch.labels[i]) ++hits;
      seen += preds.size();
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_sum / static_cast<double>(steps_per_epoch);
    stats.train_accuracy =
        static_cast<double>(hits) / static_cast<double>(seen);
    result.epochs.push_back(stats);
  }

  if (!result.epochs.empty())
    result.final_train_accuracy = result.epochs.back().train_accuracy;
  result.test_accuracy = evaluate(test);
  return result;
}

double Trainer::evaluate(const data::Dataset& dataset) {
  std::size_t hits = 0;
  std::size_t seen = 0;
  SoftmaxCrossEntropy eval_loss;
  const std::size_t steps =
      (dataset.size() + cfg_.batch_size - 1) / cfg_.batch_size;
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t first = s * cfg_.batch_size;
    const std::size_t count =
        std::min(cfg_.batch_size, dataset.size() - first);
    if (count == 0) break;
    const data::Batch batch = dataset.batch(first, count);
    const Tensor logits = net_.forward(batch.images, /*training=*/false);
    (void)eval_loss.forward(logits, batch.labels);
    const auto& preds = eval_loss.predictions();
    for (std::size_t i = 0; i < preds.size(); ++i)
      if (preds[i] == batch.labels[i]) ++hits;
    seen += count;
  }
  return seen == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(seen);
}

}  // namespace sparsetrain::nn
