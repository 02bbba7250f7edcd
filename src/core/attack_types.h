// Shared configuration and result types for the attack algorithms.
#pragma once

#include <cstddef>
#include <vector>

#include "src/text/corpus.h"
#include "src/util/robust.h"

namespace advtext {

/// Rows per eval_swap_batch / eval_tokens_batch call in the attack loops.
/// Bounds how much work happens between deadline polls (the shell checks
/// per row before admitting it, then computes the admitted rows in one
/// call), keeping the watchdog and chaos-campaign latency guarantees
/// intact.
inline constexpr std::size_t kScoreChunkRows = 64;

/// Result of a word-level attack on a flat token sequence. Attacks always
/// return the best-so-far perturbation: when a deadline or query budget
/// cuts the search short, `termination` says so and `adv_tokens` holds the
/// last committed (never partially applied) state.
struct WordAttackResult {
  bool success = false;            ///< target probability reached threshold
  TerminationReason termination = TerminationReason::kExhaustedCandidates;
  double final_target_proba = 0.0;
  std::size_t words_changed = 0;   ///< positions differing from original
  std::size_t queries = 0;         ///< classifier forward evaluations
  std::size_t budget_charged = 0;  ///< queries charged to the QueryBudget
  std::size_t gradient_calls = 0;  ///< input-gradient computations
  std::size_t iterations = 0;
  double seconds = 0.0;
  TokenSeq adv_tokens;
};

/// Result of the sentence-level greedy attack (Alg. 2).
struct SentenceAttackResult {
  bool success = false;
  TerminationReason termination = TerminationReason::kExhaustedCandidates;
  double final_target_proba = 0.0;
  std::size_t sentences_changed = 0;
  std::size_t queries = 0;
  std::size_t budget_charged = 0;
  double seconds = 0.0;
  Document adv_doc;
};

/// Result of the joint attack (Alg. 1). `termination` aggregates both
/// phases by severity (worse_of), so kSucceeded means the whole pipeline
/// ran inside its limits.
struct JointAttackResult {
  bool success = false;
  TerminationReason termination = TerminationReason::kExhaustedCandidates;
  double final_target_proba = 0.0;
  std::size_t sentences_changed = 0;
  std::size_t words_changed = 0;
  std::size_t queries = 0;
  std::size_t budget_charged = 0;
  double seconds = 0.0;
  Document adv_doc;
};

}  // namespace advtext
