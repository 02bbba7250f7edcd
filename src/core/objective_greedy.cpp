#include "src/core/objective_greedy.h"

#include <cmath>

#include "src/core/score_round.h"
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
  // The evaluator shell admits and counts every row from here on; the
  // anchor and the verification are model forwards admitted directly.
  evaluator->bind_control(&control);
  double current =
      score_forward(model, result.adv_tokens, target, control, result)
          .value_or(0.0);
  std::vector<bool> replaced(n, false);

  BatchStatus stop;
  std::vector<SwapCandidate> round;

  while (current < config.success_threshold &&
         count_changes(tokens, result.adv_tokens) < budget) {
    ++result.iterations;
    round.clear();
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (replaced[pos]) continue;  // one replacement per position
      for (WordId cand : candidates.per_position[pos]) {
        if (cand == result.adv_tokens[pos]) continue;
        round.push_back({pos, cand});
      }
    }
    const BestRow best = best_gain_row(*evaluator, round, target, current,
                                       config.min_gain, stop);
    // A limit hit abandons the round but keeps the last *committed*
    // document — never a half-evaluated swap.
    if (stop.truncated() || best.index == round.size()) break;
    const SwapCandidate& chosen = round[best.index];
    result.adv_tokens[chosen.pos] = chosen.word;
    replaced[chosen.pos] = true;
    evaluator->rebase(result.adv_tokens);
    // Re-anchor against drift (and MC-dropout noise) with a fresh forward.
    current = anchor_score(*evaluator, result.adv_tokens, target, best.proba);
  }

  result.queries = evaluator->queries();
  result.forwards += evaluator->queries();
  result.final_target_proba =
      score_forward(model, result.adv_tokens, target, control, result)
          .value_or(current);
  finish(result, stop, config.success_threshold);
  result.words_changed = count_changes(tokens, result.adv_tokens);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace advtext
