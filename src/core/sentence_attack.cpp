#include "src/core/sentence_attack.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/stopwatch.h"

namespace advtext {

SentenceAttackResult greedy_sentence_attack(
    const TextClassifier& model, const Document& doc,
    const std::vector<std::vector<Sentence>>& neighbor_sets,
    std::size_t target, const SentenceAttackConfig& config,
    const AttackControl& control) {
  if (neighbor_sets.size() != doc.sentences.size()) {
    throw std::invalid_argument(
        "greedy_sentence_attack: neighbor set count mismatch");
  }
  FaultInjector::instance().maybe_fault("attack.sentence");
  Stopwatch watch;
  SentenceAttackResult result;
  result.adv_doc = doc;
  const std::size_t l = doc.sentences.size();
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(config.max_paraphrase_fraction * static_cast<double>(l)));

  auto evaluator = model.make_swap_evaluator(result.adv_doc.flatten());
  // The evaluator shell owns query accounting from here on: deadline polls
  // per row, budget charged once per evaluated row (the anchor eval below
  // included).
  evaluator->bind_control(&control);
  double current = evaluator->eval_tokens(result.adv_doc.flatten())[target];
  std::vector<bool> paraphrased(l, false);

  bool out_of_time = false;
  bool out_of_budget = false;
  struct TrialRef {
    std::size_t sentence;
    const Sentence* candidate;
  };
  std::vector<TokenSeq> trials;
  std::vector<TrialRef> refs;
  Matrix scores;

  while (current < config.success_threshold &&
         result.sentences_changed < budget) {
    double best_gain = config.min_gain;
    std::size_t best_sentence = l;
    const Sentence* best_candidate = nullptr;
    // Materialize the round's full trial set (each candidate paraphrase
    // spliced into the current document), then score it through batched
    // evaluator calls in the same sentence/candidate order the
    // per-candidate loop used.
    trials.clear();
    refs.clear();
    for (std::size_t j = 0; j < l; ++j) {
      if (paraphrased[j]) continue;
      for (const Sentence& candidate : neighbor_sets[j]) {
        Document trial = result.adv_doc;
        trial.sentences[j] = candidate;
        trials.push_back(trial.flatten());
        refs.push_back({j, &candidate});
      }
    }
    for (std::size_t off = 0;
         off < trials.size() && !out_of_time && !out_of_budget;
         off += kScoreChunkRows) {
      const std::size_t len = std::min(kScoreChunkRows, trials.size() - off);
      const BatchStatus status =
          evaluator->eval_tokens_batch(trials.data() + off, len, scores);
      for (std::size_t i = 0; i < status.evaluated; ++i) {
        const double p = scores(i, target);
        const double gain = p - current;
        if (gain > best_gain) {
          best_gain = gain;
          best_sentence = refs[off + i].sentence;
          best_candidate = refs[off + i].candidate;
        }
      }
      // Abandon the sweep on a limit hit; the last committed document
      // stands (best-so-far semantics).
      out_of_time = status.out_of_time;
      out_of_budget = status.out_of_budget;
    }
    if (out_of_time || out_of_budget || best_sentence == l) break;
    result.adv_doc.sentences[best_sentence] = *best_candidate;
    paraphrased[best_sentence] = true;
    ++result.sentences_changed;
    evaluator->rebase(result.adv_doc.flatten());
    current = evaluator->eval_tokens(result.adv_doc.flatten())[target];
  }

  if (out_of_time) {
    result.termination = TerminationReason::kDeadlineExceeded;
  } else if (out_of_budget) {
    result.termination = TerminationReason::kBudgetExhausted;
  }
  result.queries = evaluator->queries();
  result.budget_charged = evaluator->budget_charged();
  result.final_target_proba = current;
  result.success = current >= config.success_threshold;
  if (result.success) result.termination = TerminationReason::kSucceeded;
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace advtext
