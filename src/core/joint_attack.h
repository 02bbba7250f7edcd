// Joint Sentence And Word Paraphrasing — the paper's Algorithm 1.
//
// The full attack pipeline:
//   1. build sentence neighbouring sets S_i (paraphrase engine + WMD δs
//      filter) and run Greedy Sentence Paraphrasing (Alg. 2);
//   2. if the target probability is still below τ, build word neighbouring
//      sets W_i (paragram WMD δw filter + language-model δ filter) and run
//      a word-level attack — by default Gradient Guided Greedy Word
//      Paraphrasing (Alg. 3); the baselines of [18]/[19] are selectable so
//      the comparison benches share one pipeline.
#pragma once

#include "src/core/attack_types.h"
#include "src/core/gradient_attack.h"
#include "src/core/gradient_guided_greedy.h"
#include "src/core/objective_greedy.h"
#include "src/core/sentence_attack.h"
#include "src/nn/text_classifier.h"
#include "src/text/ngram_lm.h"
#include "src/text/paraphrase_index.h"
#include "src/text/sentence_paraphraser.h"
#include "src/text/wmd.h"

namespace advtext {

/// Word-level optimization scheme used in phase 2 (Table 3 compares them).
enum class WordAttackMethod {
  kGradientGuidedGreedy,  ///< Alg. 3 (ours)
  kObjectiveGreedy,       ///< Kuleshov et al. [19]
  kGradient,              ///< Gong et al. [18]
};

struct JointAttackConfig {
  double success_threshold = 0.7;  ///< τ, shared by both phases
  bool enable_sentence = true;     ///< λs = 0 shortcut
  bool enable_word = true;         ///< λw = 0 shortcut
  double sentence_fraction = 0.2;  ///< λs
  double word_fraction = 0.2;      ///< λw
  WordAttackMethod word_method = WordAttackMethod::kGradientGuidedGreedy;
  GradientGuidedGreedyConfig ggg;  ///< N, beam cap for Alg. 3
  /// Use the language model filter when building word candidates (the
  /// paper sets δ = ∞ on Trec07p; encode that via
  /// word_index config lm_delta = inf or use_lm_filter = false here).
  bool use_lm_filter = true;
  /// Wall-clock limit for the whole attack (both phases share it);
  /// 0 disables. On expiry the attack returns best-so-far with
  /// termination = kDeadlineExceeded.
  double deadline_ms = 0.0;
  /// Model-forward-pass limit shared by both phases; 0 disables. On
  /// exhaustion the attack returns best-so-far with kBudgetExhausted.
  std::size_t max_queries = 0;
};

/// Per-task attack resources, built once and shared across all attacked
/// documents.
struct AttackResources {
  const ParaphraseIndex* word_index = nullptr;       ///< W_i source
  const SentenceParaphraser* paraphraser = nullptr;  ///< S_i source
  const Wmd* wmd = nullptr;                          ///< δs filter
  const NGramLm* lm = nullptr;  ///< syntactic filter; may be null
};

JointAttackResult joint_attack(const TextClassifier& model,
                               const Document& doc, std::size_t target,
                               const AttackResources& resources,
                               const JointAttackConfig& config = {});

}  // namespace advtext
