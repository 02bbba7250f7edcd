// Shared configuration and result types for the attack algorithms.
#pragma once

#include <cstddef>
#include <vector>

#include "src/text/corpus.h"
#include "src/util/robust.h"

namespace advtext {

/// Rows per eval_swap_batch / eval_tokens_batch call in a search round
/// (score_round.h). Bounds how much work happens between deadline polls
/// (the shell checks per row before admitting it, then computes the
/// admitted rows in one call), keeping the watchdog and chaos-campaign
/// latency guarantees intact.
inline constexpr std::size_t kScoreChunkRows = 64;

/// What every attack reports besides its adversarial state. Attacks return
/// the best-so-far state: when a deadline or query budget cuts the search
/// short, `termination` says so and the state is the last committed (never
/// partially applied) one, scored exactly by `final_target_proba`
/// (DESIGN.md §12, "The cap contract").
struct AttackStats {
  bool success = false;  ///< target probability reached threshold
  TerminationReason termination = TerminationReason::kExhaustedCandidates;
  double final_target_proba = 0.0;
  /// The query-count metric: evaluator rows, plus the verification of
  /// gradient_attack and joint_attack's fallback verification.
  std::size_t queries = 0;
  /// Every forward the attack ran, each admitted by the QueryBudget: the
  /// queries, plus anchors, gradient calls and uncounted verifications.
  /// lazy_greedy_attack takes no AttackControl and leaves it 0.
  std::size_t forwards = 0;
  double seconds = 0.0;

  /// Folds a finished phase into a pipeline total (joint_attack): counts
  /// add and the phase's score and outcome become the total's.
  void fold(const AttackStats& phase) {
    queries += phase.queries;
    forwards += phase.forwards;
    final_target_proba = phase.final_target_proba;
    success = phase.success;
    termination = phase.success ? TerminationReason::kSucceeded
                                : worse_of(termination, phase.termination);
  }
};

/// Result of a word-level attack on a flat token sequence.
struct WordAttackResult : AttackStats {
  std::size_t words_changed = 0;   ///< positions differing from original
  std::size_t gradient_calls = 0;  ///< input-gradient computations
  std::size_t iterations = 0;
  TokenSeq adv_tokens;
};

/// Result of the sentence-level greedy attack (Alg. 2).
struct SentenceAttackResult : AttackStats {
  std::size_t sentences_changed = 0;
  Document adv_doc;
};

/// Result of the joint attack (Alg. 1). `termination` aggregates both
/// phases by severity (worse_of), so kSucceeded means the whole pipeline
/// ran inside its limits.
struct JointAttackResult : AttackStats {
  std::size_t sentences_changed = 0;
  std::size_t words_changed = 0;
  Document adv_doc;
};

}  // namespace advtext
