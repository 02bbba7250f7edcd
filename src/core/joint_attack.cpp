#include "src/core/joint_attack.h"

#include <stdexcept>

#include "src/core/score_round.h"
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

  // Both phases draw on one shared deadline and query budget; each phase's
  // outcome is folded into the total (AttackStats::fold).
  QueryBudget budget(config.max_queries);
  AttackControl control;
  if (config.deadline_ms > 0.0) {
    control.deadline = Deadline::after_ms(config.deadline_ms);
  }
  control.budget = &budget;
  bool scored = false;  // whether a phase has scored the document

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
    result.fold(sentence_result);
    scored = true;
  }

  // ---- Phase 2: word paraphrasing (Alg. 1 steps 6-9) ----
  // The limit, if any, that the sentence phase (or the deadline itself)
  // used up before the word phase could start.
  BatchStatus stop;
  stop.out_of_time = control.deadline.expired();
  stop.out_of_budget = !stop.out_of_time && control.budget_exhausted();
  if (!result.success && config.enable_word && config.word_fraction > 0.0 &&
      !stop.truncated()) {
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
      result.fold(word_result);
      scored = true;
    }
  }

  if (!scored) {
    // No phase ran: verify the document itself (a counted query).
    if (const auto verified = score_forward(model, result.adv_doc.flatten(),
                                            target, control, result)) {
      result.final_target_proba = *verified;
      ++result.queries;
    }
  }
  finish(result, stop, config.success_threshold);
  result.seconds = watch.elapsed_seconds();
  // Every forward was admitted by `budget`, and each phase tallied what it
  // admitted, so the shared pool reconciles exactly.
  ADVTEXT_DCHECK(budget.used() == result.forwards)
      << "joint_attack: budget drift (" << budget.used()
      << " used != " << result.forwards << " forwards)";
  return result;
}

}  // namespace advtext
