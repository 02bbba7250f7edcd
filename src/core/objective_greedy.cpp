#include "src/core/objective_greedy.h"

#include <algorithm>
#include <cmath>

#include "src/util/stopwatch.h"

namespace advtext {

WordAttackResult objective_greedy_attack(const TextClassifier& model,
                                         const TokenSeq& tokens,
                                         const WordCandidates& candidates,
                                         std::size_t target,
                                         const ObjectiveGreedyConfig& config,
                                         const AttackControl& control) {
  FaultInjector::instance().maybe_fault("attack.word");
  Stopwatch watch;
  WordAttackResult result;
  result.adv_tokens = tokens;
  const std::size_t n = tokens.size();
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(config.max_replace_fraction * static_cast<double>(n)));

  auto evaluator = model.make_swap_evaluator(result.adv_tokens);
  // The evaluator shell owns all query accounting from here on: it polls
  // the deadline per candidate and charges the QueryBudget once per
  // evaluated row.
  evaluator->bind_control(&control);
  double current = model.class_probability(result.adv_tokens, target);
  control.charge(1);
  std::vector<bool> replaced(n, false);

  bool out_of_time = false;
  bool out_of_budget = false;
  std::vector<SwapCandidate> round;
  Matrix scores;

  while (current < config.success_threshold &&
         count_changes(tokens, result.adv_tokens) < budget) {
    ++result.iterations;
    double best_gain = config.min_gain;
    std::size_t best_pos = n;
    WordId best_word = Vocab::kUnk;
    // Collect the round's full candidate set, in the same position/word
    // order the per-candidate loop used, then score it through batched
    // evaluator calls — one gemm per network layer per chunk.
    round.clear();
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (replaced[pos]) continue;  // one replacement per position
      for (WordId cand : candidates.per_position[pos]) {
        if (cand == result.adv_tokens[pos]) continue;
        round.push_back({pos, cand});
      }
    }
    for (std::size_t off = 0;
         off < round.size() && !out_of_time && !out_of_budget;
         off += kScoreChunkRows) {
      const std::size_t len = std::min(kScoreChunkRows, round.size() - off);
      const BatchStatus status =
          evaluator->eval_swap_batch(round.data() + off, len, scores);
      for (std::size_t i = 0; i < status.evaluated; ++i) {
        const double p = scores(i, target);
        const double gain = p - current;
        if (gain > best_gain) {
          best_gain = gain;
          best_pos = round[off + i].pos;
          best_word = round[off + i].word;
        }
      }
      // A deadline/budget hit abandons the sweep but keeps the last
      // *committed* document — never a half-evaluated swap.
      out_of_time = status.out_of_time;
      out_of_budget = status.out_of_budget;
    }
    if (out_of_time || out_of_budget || best_pos == n) break;
    result.adv_tokens[best_pos] = best_word;
    replaced[best_pos] = true;
    evaluator->rebase(result.adv_tokens);
    // ADVTEXT_ALLOW(float-accum): running objective in greedy selection order; re-anchored by a fresh forward on the next line
    current += best_gain;
    // Re-anchor against drift (and MC-dropout noise) with a fresh forward.
    current = evaluator->eval_tokens(result.adv_tokens)[target];
  }

  if (out_of_time) {
    result.termination = TerminationReason::kDeadlineExceeded;
  } else if (out_of_budget) {
    result.termination = TerminationReason::kBudgetExhausted;
  }
  result.queries = evaluator->queries();
  result.budget_charged = evaluator->budget_charged();
  result.final_target_proba =
      model.class_probability(result.adv_tokens, target);
  control.charge(1);
  // The initial anchor and final verification forwards charge the budget
  // directly (charge() no-ops without one, so mirror that here).
  if (control.budget != nullptr) result.budget_charged += 2;
  result.success = result.final_target_proba >= config.success_threshold;
  if (result.success) result.termination = TerminationReason::kSucceeded;
  result.words_changed = count_changes(tokens, result.adv_tokens);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace advtext
