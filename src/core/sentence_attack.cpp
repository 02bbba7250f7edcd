#include "src/core/sentence_attack.h"

#include <cmath>
#include <stdexcept>

#include "src/core/score_round.h"
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
  // The evaluator shell admits and counts every row from here on, the
  // anchor and re-anchors included.
  evaluator->bind_control(&control);
  double current =
      anchor_score(*evaluator, result.adv_doc.flatten(), target, 0.0);
  std::vector<bool> paraphrased(l, false);

  BatchStatus stop;
  struct TrialRef {
    std::size_t sentence;
    const Sentence* candidate;
  };
  std::vector<TokenSeq> trials;
  std::vector<TrialRef> refs;

  while (current < config.success_threshold &&
         result.sentences_changed < budget) {
    // Each candidate paraphrase spliced into the current document.
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
    const BestRow best = best_gain_row(*evaluator, trials, target, current,
                                       config.min_gain, stop);
    // Abandon the round on a limit hit; the last committed document
    // stands (best-so-far semantics).
    if (stop.truncated() || best.index == trials.size()) break;
    const TrialRef& chosen = refs[best.index];
    result.adv_doc.sentences[chosen.sentence] = *chosen.candidate;
    paraphrased[chosen.sentence] = true;
    ++result.sentences_changed;
    evaluator->rebase(result.adv_doc.flatten());
    current =
        anchor_score(*evaluator, result.adv_doc.flatten(), target, best.proba);
  }

  result.queries = evaluator->queries();
  result.forwards = evaluator->queries();
  result.final_target_proba = current;
  finish(result, stop, config.success_threshold);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace advtext
