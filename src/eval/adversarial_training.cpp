#include "src/eval/adversarial_training.h"

#include "src/eval/metrics.h"
#include "src/util/rng.h"
#include "src/util/stop_token.h"

namespace advtext {

namespace {

/// Per-stage resilience policy: distinct snapshot paths keep the clean and
/// retrained runs from clobbering each other's generations.
ResilienceConfig stage_resilience(const ResilienceConfig& base,
                                  const char* stage) {
  ResilienceConfig staged = base;
  if (!staged.snapshot_path.empty()) staged.snapshot_path += stage;
  return staged;
}

}  // namespace

AdvTrainingReport adversarial_training_experiment(
    const std::function<std::unique_ptr<TrainableClassifier>()>& make_model,
    const SynthTask& task, const TaskAttackContext& context,
    const AdvTrainingConfig& config) {
  AdvTrainingReport report;
  StopToken& stop = StopToken::instance();
  // Both stages shard alike; `make_model` doubles as the replica factory,
  // so replicas share the primary's architecture and init by construction.
  const ShardConfig shards{config.shards, make_model};

  // ---- Before: clean training + attack ----
  auto model = make_model();
  report.train_before =
      train_classifier(*model, task.train, config.train,
                       stage_resilience(config.resilience, ".pre"), shards);
  report.termination =
      worse_of(report.termination, report.train_before.termination);
  if (report.termination >= TerminationReason::kStopped) return report;
  report.test_before = classification_accuracy(*model, task.test);
  const AttackEvalResult before =
      evaluate_attack(*model, task, context, config.attack);
  report.adv_before = before.adversarial_accuracy;

  // ---- Generate adversarial training examples ----
  Rng rng(config.seed);
  const auto order = rng.permutation(task.train.docs.size());
  const std::size_t num_augment = static_cast<std::size_t>(
      config.augmentation_fraction *
      static_cast<double>(task.train.docs.size()));
  const AttackResources resources = context.resources();

  Dataset augmented = task.train;
  for (std::size_t i = 0; i < num_augment && i < order.size(); ++i) {
    if (stop.stop_requested()) {
      // Partial augmentation is unusable for the before/after comparison;
      // report the stop and let the caller rerun (training resumes from
      // its snapshots, the augmentation sweep is cheap by comparison).
      report.termination =
          worse_of(report.termination, TerminationReason::kStopped);
      return report;
    }
    const Document& doc = task.train.docs[order[i]];
    const TokenSeq tokens = doc.flatten();
    if (tokens.empty()) continue;
    const std::size_t true_label = static_cast<std::size_t>(doc.label);
    // ADVTEXT_ALLOW(uncharged-forward): harness probe skipping already-misclassified docs; the adversarial queries inside joint_attack are charged to its budget — this filter is not attack cost
    if (model->predict(tokens) != true_label) continue;
    const JointAttackResult attack = joint_attack(
        *model, doc, 1 - true_label, resources, config.attack.joint);
    Document adv = attack.adv_doc;
    adv.label = doc.label;  // corrected label (paper §6.6)
    augmented.docs.push_back(std::move(adv));
    ++report.augmented_examples;
  }

  // ---- After: retrain from scratch on the merged set + attack ----
  auto retrained = make_model();
  report.train_after =
      train_classifier(*retrained, augmented, config.train,
                       stage_resilience(config.resilience, ".post"), shards);
  report.termination =
      worse_of(report.termination, report.train_after.termination);
  if (report.termination >= TerminationReason::kStopped) return report;
  report.test_after = classification_accuracy(*retrained, task.test);
  const AttackEvalResult after =
      evaluate_attack(*retrained, task, context, config.attack);
  report.adv_after = after.adversarial_accuracy;
  return report;
}

}  // namespace advtext
