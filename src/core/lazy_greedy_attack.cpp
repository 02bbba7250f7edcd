#include "src/core/lazy_greedy_attack.h"

#include <cmath>
#include <queue>

#include "src/core/score_round.h"
#include "src/util/stopwatch.h"

namespace advtext {

WordAttackResult lazy_greedy_attack(const TextClassifier& model,
                                    const TokenSeq& tokens,
                                    const WordCandidates& candidates,
                                    std::size_t target,
                                    const LazyGreedyAttackConfig& config) {
  Stopwatch watch;
  WordAttackResult result;
  result.adv_tokens = tokens;
  const std::size_t n = tokens.size();
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(config.max_replace_fraction * static_cast<double>(n)));

  auto evaluator = model.make_swap_evaluator(result.adv_tokens);
  double current = model.class_probability(result.adv_tokens, target);
  std::vector<bool> replaced(n, false);

  struct Entry {
    double gain;        // last-known gain (upper bound under submodularity)
    std::size_t pos;
    WordId word;
    std::size_t round;  // round in which `gain` was computed
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  std::priority_queue<Entry> heap;
  // Initial exact gains from the clean document (round 0): the whole
  // candidate set is known up front, so score it as one round and push in
  // (pos, word) order. The lazy per-round refreshes below stay sequential —
  // each pop depends on the previous one's result.
  std::vector<SwapCandidate> initial;
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (WordId cand : candidates.per_position[pos]) {
      if (cand == tokens[pos]) continue;
      initial.push_back({pos, cand});
    }
  }
  BatchStatus unbounded;  // no control is bound: every row is admitted
  score_round(*evaluator, initial, target, unbounded,
              [&](std::size_t i, double p) {
                heap.push({p - current, initial[i].pos, initial[i].word, 0});
              });

  std::size_t round = 0;
  while (current < config.success_threshold &&
         count_changes(tokens, result.adv_tokens) < budget && !heap.empty()) {
    ++round;
    ++result.iterations;
    // Pop until the top is fresh for this round.
    Entry chosen{0.0, n, Vocab::kUnk, 0};
    bool found = false;
    while (!heap.empty()) {
      Entry top = heap.top();
      heap.pop();
      if (replaced[top.pos]) continue;
      if (top.round == round) {
        if (top.gain > config.min_gain) {
          chosen = top;
          found = true;
        }
        break;
      }
      top.gain = evaluator->eval_swap(top.pos, top.word)[target] - current;
      top.round = round;
      if (heap.empty() || top.gain >= heap.top().gain) {
        if (top.gain > config.min_gain) {
          chosen = top;
          found = true;
        }
        break;
      }
      heap.push(top);
    }
    if (!found) break;
    result.adv_tokens[chosen.pos] = chosen.word;
    replaced[chosen.pos] = true;
    evaluator->rebase(result.adv_tokens);
    current = evaluator->eval_tokens(result.adv_tokens)[target];
  }

  result.queries = evaluator->queries();
  result.final_target_proba =
      model.class_probability(result.adv_tokens, target);
  result.success = result.final_target_proba >= config.success_threshold;
  result.words_changed = count_changes(tokens, result.adv_tokens);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace advtext
