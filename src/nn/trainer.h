// Mini-batch Adam trainer for TrainableClassifier models.
//
// Mirrors the paper's training recipe at laptop scale: mini-batches of 16,
// a held-out validation slice used to pick the stopping epoch, and frozen
// pretrained embeddings as the first layer.
//
// Training runs under supervise() (src/nn/supervisor.h): the loop exposes
// its full state (model params, Adam moments, RNG streams, epoch / batch
// cursor) for periodic snapshots, divergence rollback with learning-rate
// backoff, and cooperative shutdown. The same driver trains one data shard
// or K of them in parallel with epoch-boundary parameter averaging; with
// the default configs it is numerically identical to the pre-supervisor
// trainer.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/supervisor.h"
#include "src/nn/text_classifier.h"
#include "src/text/corpus.h"

namespace advtext {

/// Mini-batch size (paper: a constant mini-batch of 16).
inline constexpr std::size_t kTrainBatchSize = 16;

struct TrainConfig {
  std::size_t epochs = 12;
  double learning_rate = 1e-2;
  /// Global gradient-norm clip applied per batch (0 disables). Standard
  /// stabilizer for BPTT on longer documents.
  double clip_norm = 5.0;
  /// Fraction of the training set held out to pick the stopping epoch
  /// (paper: 10%). 0 disables validation-based selection.
  double validation_fraction = 0.1;
  std::uint64_t seed = 17;
};

/// What the loop tracked, on top of the supervisor's report. With several
/// shards these curves are the result shard's.
struct TrainReport : SupervisorReport {
  std::size_t epochs_run = 0;
  double final_train_loss = 0.0;
  double best_validation_accuracy = 0.0;
  std::vector<double> epoch_losses;
  std::size_t clipped_steps = 0;  ///< batches hit by clip_norm
};

/// Adam optimizer over raw parameter views. State is indexed by parameter
/// order, so the same ParamRef layout must be passed to every step.
class Adam {
 public:
  explicit Adam(const TrainConfig& config)
      : config_(config), lr_(config.learning_rate) {}

  /// Applies one update given accumulated gradients (scaled by 1/batch).
  void step(const std::vector<ParamRef>& params, double batch_scale);

  /// Current learning rate (mutable for divergence backoff; starts at
  /// TrainConfig::learning_rate).
  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

  /// Batches whose gradient norm exceeded clip_norm and were rescaled.
  std::size_t clipped_steps() const { return clipped_steps_; }

  /// Moment/step-count round-trip for training snapshots. load_state
  /// requires the same parameter layout the saved optimizer stepped on.
  void save_state(std::ostream& out) const;
  void load_state(std::istream& in);

 private:
  TrainConfig config_;
  double lr_;
  std::size_t clipped_steps_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::size_t t_ = 0;
};

/// Data-shard parallel training.
struct ShardConfig {
  /// Worker shards. 1 trains `model` alone, on the calling thread.
  std::size_t shards = 1;
  /// Builds a model with the same architecture as the primary one (its
  /// parameters are overwritten with a copy of the primary's before
  /// training starts). Required when shards > 1.
  std::function<std::unique_ptr<TrainableClassifier>()> make_replica;
};

/// Trains `model` on `data`: documents are flattened to token sequences
/// (empty ones are skipped) and dealt round-robin over `shards.shards`
/// shards. Shard k trains a replica (shard 0 uses `model` itself) seeded
/// with config.seed + k, parameters are averaged at aligned epoch
/// boundaries, and the result shard's parameters end up in `model`.
/// Snapshots, resume, divergence rollback and cooperative shutdown follow
/// `resilience`. One shard keeps the bare snapshot path and the bare
/// "train.loss" fault site; shard k of several snapshots to
/// "<snapshot_path>.shard<k>" and poisons at "train.loss@shard<k>". Resume
/// replays a cooperatively stopped run bitwise at any shard count.
TrainReport train_classifier(TrainableClassifier& model, const Dataset& data,
                             const TrainConfig& config = {},
                             const ResilienceConfig& resilience = {},
                             const ShardConfig& shards = {});

}  // namespace advtext
