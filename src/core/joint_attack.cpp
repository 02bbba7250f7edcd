#include "src/core/joint_attack.h"

#include <stdexcept>

#include "src/util/robust.h"
#include "src/util/stopwatch.h"

namespace advtext {

JointAttackResult joint_attack(const TextClassifier& model,
                               const Document& doc, std::size_t target,
                               const AttackResources& resources,
                               const JointAttackConfig& config) {
  Stopwatch watch;
  JointAttackResult result;
  result.adv_doc = doc;

  // Both phases draw on one shared deadline and query budget; the phase
  // terminations are folded together with worse_of below.
  QueryBudget budget(config.max_queries);
  AttackControl control;
  if (config.deadline_ms > 0.0) {
    control.deadline = Deadline::after_ms(config.deadline_ms);
  }
  control.budget = &budget;
  // Every query charge flows through `budget`; the phases report what they
  // charged, so the shared pool must reconcile exactly at every exit.
  const auto reconcile = [&budget](const JointAttackResult& r) {
    ADVTEXT_DCHECK(budget.used() == r.budget_charged)
        << "joint_attack: budget drift (" << budget.used()
        << " used != " << r.budget_charged << " charged)";
  };

  // ---- Phase 1: sentence paraphrasing (Alg. 1 steps 2-5) ----
  if (config.enable_sentence && config.sentence_fraction > 0.0) {
    if (resources.paraphraser == nullptr || resources.wmd == nullptr) {
      throw std::invalid_argument(
          "joint_attack: sentence phase needs paraphraser + wmd");
    }
    const auto neighbor_sets = resources.paraphraser->neighbor_sets(
        result.adv_doc, *resources.wmd, control.deadline);
    SentenceAttackConfig sentence_config;
    sentence_config.max_paraphrase_fraction = config.sentence_fraction;
    sentence_config.success_threshold = config.success_threshold;
    const SentenceAttackResult sentence_result = greedy_sentence_attack(
        model, result.adv_doc, neighbor_sets, target, sentence_config,
        control);
    result.adv_doc = sentence_result.adv_doc;
    result.sentences_changed = sentence_result.sentences_changed;
    result.queries += sentence_result.queries;
    result.budget_charged += sentence_result.budget_charged;
    result.final_target_proba = sentence_result.final_target_proba;
    result.termination =
        worse_of(result.termination, sentence_result.termination);
    if (sentence_result.success) {
      result.success = true;
      result.termination = TerminationReason::kSucceeded;
      result.seconds = watch.elapsed_seconds();
      reconcile(result);
      return result;
    }
  }

  // ---- Phase 2: word paraphrasing (Alg. 1 steps 6-9) ----
  const bool limits_hit =
      control.deadline.expired() || control.budget_exhausted();
  if (config.enable_word && config.word_fraction > 0.0 && !limits_hit) {
    if (resources.word_index == nullptr) {
      throw std::invalid_argument(
          "joint_attack: word phase needs a paraphrase index");
    }
    const TokenSeq tokens = result.adv_doc.flatten();
    if (!tokens.empty()) {
      const NGramLm* lm = config.use_lm_filter ? resources.lm : nullptr;
      WordCandidates candidates;
      candidates.per_position =
          resources.word_index->candidates_for(tokens, lm);

      // Resource governance: the candidate sets are the word phase's big
      // allocation. Charge them against the process MemoryBudget; under
      // pressure, halve every per-position list (candidates_for returns
      // them similarity-sorted, so the best candidates survive) until the
      // reservation fits or the floor of one candidate per position is
      // reached — a narrowed attack beats an OOM abort. The reservation is
      // held for the rest of the attack.
      const auto candidate_bytes = [&candidates] {
        std::size_t total = 0;
        for (const auto& list : candidates.per_position) {
          total += list.size() * sizeof(WordId) + sizeof(list);
        }
        return total;
      };
      MemoryReservation candidate_memory =
          MemoryReservation::try_acquire(candidate_bytes());
      while (!candidate_memory.ok()) {
        bool shrunk = false;
        for (auto& list : candidates.per_position) {
          if (list.size() > 1) {
            list.resize((list.size() + 1) / 2);
            shrunk = true;
          }
        }
        if (!shrunk) break;  // at the floor: proceed uncharged
        candidate_memory = MemoryReservation::try_acquire(candidate_bytes());
      }

      WordAttackResult word_result;
      switch (config.word_method) {
        case WordAttackMethod::kGradientGuidedGreedy: {
          GradientGuidedGreedyConfig ggg = config.ggg;
          ggg.max_replace_fraction = config.word_fraction;
          ggg.success_threshold = config.success_threshold;
          word_result = gradient_guided_greedy_attack(
              model, tokens, candidates, target, ggg, control);
          break;
        }
        case WordAttackMethod::kObjectiveGreedy: {
          ObjectiveGreedyConfig og;
          og.max_replace_fraction = config.word_fraction;
          og.success_threshold = config.success_threshold;
          word_result = objective_greedy_attack(model, tokens, candidates,
                                                target, og, control);
          break;
        }
        case WordAttackMethod::kGradient: {
          GradientAttackConfig ga;
          ga.max_replace_fraction = config.word_fraction;
          ga.success_threshold = config.success_threshold;
          word_result =
              gradient_attack(model, tokens, candidates, target, ga, control);
          break;
        }
      }

      // Write the flat adversarial tokens back into the sentence structure.
      std::size_t flat = 0;
      for (Sentence& sentence : result.adv_doc.sentences) {
        for (WordId& word : sentence) word = word_result.adv_tokens[flat++];
      }
      result.words_changed = word_result.words_changed;
      result.queries += word_result.queries;
      result.budget_charged += word_result.budget_charged;
      result.final_target_proba = word_result.final_target_proba;
      result.success = word_result.success;
      result.termination = word_result.success
                               ? TerminationReason::kSucceeded
                               : worse_of(result.termination,
                                          word_result.termination);
      result.seconds = watch.elapsed_seconds();
      reconcile(result);
      return result;
    }
  }

  if (limits_hit) {
    // The sentence phase (or the deadline itself) consumed the limits
    // before the word phase could start.
    result.termination = worse_of(
        result.termination, control.deadline.expired()
                                ? TerminationReason::kDeadlineExceeded
                                : TerminationReason::kBudgetExhausted);
  }
  if (result.final_target_proba == 0.0) {
    result.final_target_proba =
        model.class_probability(result.adv_doc.flatten(), target);
    ++result.queries;
    control.charge(1);  // the verification eval draws on the shared budget
    ++result.budget_charged;
  }
  result.success = result.final_target_proba >= config.success_threshold;
  if (result.success) result.termination = TerminationReason::kSucceeded;
  result.seconds = watch.elapsed_seconds();
  reconcile(result);
  return result;
}

}  // namespace advtext
