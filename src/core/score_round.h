// One search round and one admission path for every attack: scoring a
// round of candidate rows, the best-gain argmax, anchors, verifications and
// the end-of-attack classification. Every forward goes through
// AttackControl::try_charge(), so none runs past a per-document cap
// (DESIGN.md §12, "The cap contract").
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/core/attack_types.h"
#include "src/nn/text_classifier.h"

namespace advtext {

/// Scores `rows` (SwapCandidates against the evaluator's base, or token
/// rows) in kScoreChunkRows chunks and calls visit(i, p) with each admitted
/// row's index and target probability, in order. Stops at the first limit
/// and records it in `stop`; scores nothing if `stop` already holds one.
template <typename Row, typename Visit>
void score_round(SwapEvaluator& evaluator, const std::vector<Row>& rows,
                 std::size_t target, BatchStatus& stop, Visit&& visit) {
  Matrix scores;
  for (std::size_t off = 0; off < rows.size() && !stop.truncated();
       off += kScoreChunkRows) {
    const std::size_t len = std::min(kScoreChunkRows, rows.size() - off);
    BatchStatus chunk;
    if constexpr (std::is_same_v<Row, SwapCandidate>) {
      chunk = evaluator.eval_swap_batch(rows.data() + off, len, scores);
    } else {
      chunk = evaluator.eval_tokens_batch(rows.data() + off, len, scores);
    }
    for (std::size_t i = 0; i < chunk.evaluated; ++i) {
      visit(off + i, static_cast<double>(scores(i, target)));
    }
    stop.out_of_time = chunk.out_of_time;
    stop.out_of_budget = chunk.out_of_budget;
  }
}

/// A round's best row (index rows.size() when none gains enough) and its
/// score, which stands for the committed state until a re-anchor.
struct BestRow {
  std::size_t index;
  double proba;
};

/// Scores a round and returns the row whose gain p - current is largest
/// and above `min_gain`; the first such row wins ties.
template <typename Row>
BestRow best_gain_row(SwapEvaluator& evaluator, const std::vector<Row>& rows,
                      std::size_t target, double current, double min_gain,
                      BatchStatus& stop) {
  BestRow best{rows.size(), 0.0};
  double best_gain = min_gain;
  score_round(evaluator, rows, target, stop, [&](std::size_t i, double p) {
    if (p - current > best_gain) {
      best_gain = p - current;
      best = {i, p};
    }
  });
  return best;
}

/// Scores the committed state with one tokens row (an anchor or a
/// re-anchor) if the budget admits it, else returns `held`, the score the
/// search already has for it. After a refused re-anchor the search stops
/// at its next round's first row, as if the re-anchor had run.
inline double anchor_score(SwapEvaluator& evaluator, const TokenSeq& tokens,
                           std::size_t target, double held) {
  Vector proba;
  return evaluator.try_eval_tokens(tokens, proba) ? proba[target] : held;
}

/// One model forward outside the evaluator shell (an anchor or a
/// verification), run and tallied in stats.forwards only if the budget
/// admits it.
inline std::optional<double> score_forward(const TextClassifier& model,
                                           const TokenSeq& tokens,
                                           std::size_t target,
                                           const AttackControl& control,
                                           AttackStats& stats) {
  if (!control.try_charge()) return std::nullopt;
  ++stats.forwards;
  return model.class_probability(tokens, target);
}

/// Classifies how an attack ended once final_target_proba is set: a
/// deadline, then a spent budget, then success, which wins over both.
inline void finish(AttackStats& stats, const BatchStatus& stop,
                   double threshold) {
  if (stop.out_of_time) {
    stats.termination =
        worse_of(stats.termination, TerminationReason::kDeadlineExceeded);
  } else if (stop.out_of_budget) {
    stats.termination =
        worse_of(stats.termination, TerminationReason::kBudgetExhausted);
  }
  stats.success = stats.final_target_proba >= threshold;
  if (stats.success) stats.termination = TerminationReason::kSucceeded;
}

}  // namespace advtext
