// Adversarial training experiment (paper Table 5).
//
// Generates adversarial examples from a random 20% of the training data
// (Alg. 1 against the clean model), merges them — with their *correct*
// labels — into the training set, retrains from scratch, and reports clean
// test accuracy and adversarial accuracy before and after.
//
// This is the repo's longest single code path (two full training runs plus
// an attack sweep), so it runs under the resilience layer: both training
// stages are supervised (snapshots at `<snapshot_path>.pre` / `.post`,
// divergence rollback, resume) and the augmentation loop polls the
// StopToken so SIGINT/SIGTERM exits cleanly with kStopped instead of
// discarding hours of work.
#pragma once

#include <functional>
#include <memory>

#include "src/eval/pipeline.h"
#include "src/nn/trainer.h"

namespace advtext {

struct AdvTrainingConfig {
  /// Fraction of training documents to generate adversarial examples from.
  double augmentation_fraction = 0.2;
  TrainConfig train;
  AttackEvalConfig attack;
  /// Training resilience policy; snapshot_path (when set) is staged per
  /// phase: "<path>.pre" for the clean model, "<path>.post" for the
  /// retrained one.
  ResilienceConfig resilience;
  /// Data shards for both training stages (1 = one loop on the calling
  /// thread). Shards > 1 train replicas from `make_model` in parallel with
  /// epoch-boundary parameter averaging (ShardConfig); deterministic for a
  /// fixed shard count, but a different count is a different (valid)
  /// training run.
  std::size_t shards = 1;
  std::uint64_t seed = 99;
};

struct AdvTrainingReport {
  double test_before = 0.0;
  double test_after = 0.0;
  double adv_before = 0.0;
  double adv_after = 0.0;
  std::size_t augmented_examples = 0;
  /// Worst termination across both training stages and the augmentation
  /// loop; kStopped / kError mean the later metrics are partial.
  TerminationReason termination = TerminationReason::kSucceeded;
  TrainReport train_before;
  TrainReport train_after;
};

/// `make_model` builds a fresh untrained classifier (called twice: before
/// and after augmentation, so both models start from the same init).
AdvTrainingReport adversarial_training_experiment(
    const std::function<std::unique_ptr<TrainableClassifier>()>& make_model,
    const SynthTask& task, const TaskAttackContext& context,
    const AdvTrainingConfig& config);

}  // namespace advtext
