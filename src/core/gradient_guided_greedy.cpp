#include "src/core/gradient_guided_greedy.h"

#include <algorithm>
#include <cmath>

#include "src/core/score_round.h"
#include "src/util/det_accum.h"
#include "src/util/stopwatch.h"

namespace advtext {

WordAttackResult gradient_guided_greedy_attack(
    const TextClassifier& model, const TokenSeq& tokens,
    const WordCandidates& candidates, std::size_t target,
    const GradientGuidedGreedyConfig& config, const AttackControl& control) {
  FaultInjector::instance().maybe_fault("attack.word");
  Stopwatch watch;
  WordAttackResult result;
  result.adv_tokens = tokens;
  const std::size_t n = tokens.size();
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(config.max_replace_fraction * static_cast<double>(n)));

  auto evaluator = model.make_swap_evaluator(result.adv_tokens);
  // The shell admits every evaluated row and polls the deadline per row; a
  // gradient call embeds one forward, which the attack admits itself.
  evaluator->bind_control(&control);
  std::vector<bool> replaced(n, false);
  Vector proba;
  // The score of the current state, once a gradient call or a committed
  // candidate has given one; the verification falls back on it.
  double held = 0.0;

  BatchStatus stop;
  std::vector<TokenSeq> trial;

  while (result.iterations < config.max_iterations) {
    if ((stop.out_of_time = control.deadline.expired())) break;
    if ((stop.out_of_budget = control.budget_exhausted())) break;
    const std::size_t changed = count_changes(tokens, result.adv_tokens);
    if (changed >= budget) break;

    // Step 4: Gauss–Southwell scores from the input gradient.
    if ((stop.out_of_budget = !control.try_charge())) break;
    ++result.forwards;
    const Matrix grad =
        model.input_gradient(result.adv_tokens, target, &proba);
    ++result.gradient_calls;
    held = proba[target];
    if (held >= config.success_threshold) break;
    ++result.iterations;

    struct Scored {
      double score;
      std::size_t pos;
    };
    const Matrix& table = model.embedding_table();
    const std::size_t dim = model.embedding_dim();
    std::vector<Scored> scores;
    for (std::size_t i = 0; i < n; ++i) {
      if (replaced[i] || candidates.per_position[i].empty()) continue;
      double score = 0.0;
      if (config.rule == GaussSouthwellRule::kGradientNorm) {
        score = norm2(grad.row(i), dim);
      } else {
        // Best first-order gain over this position's candidates.
        const float* g = grad.row(i);
        const float* orig = table.row(
            static_cast<std::size_t>(result.adv_tokens[i]));
        for (WordId cand : candidates.per_position[i]) {
          const float* vec = table.row(static_cast<std::size_t>(cand));
          score = std::max(score, det_diff_dot(vec, orig, g, dim));
        }
      }
      scores.push_back({score, i});
    }
    if (scores.empty()) break;
    const std::size_t take =
        std::min({config.words_per_iteration, scores.size(),
                  budget - changed});
    std::partial_sort(scores.begin(), scores.begin() + take, scores.end(),
                      [](const Scored& a, const Scored& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.pos < b.pos;
                      });

    // Steps 6-15: expand the candidate product over the selected positions,
    // keeping the best beam_cap partial combinations.
    struct Candidate {
      TokenSeq tokens;
      double proba;
    };
    std::vector<Candidate> pool;
    pool.push_back({result.adv_tokens, held});
    for (std::size_t t = 0; t < take && !stop.truncated(); ++t) {
      const std::size_t pos = scores[t].pos;
      // Materialize every expansion of the current pool at this position
      // and score them as one round. A limit hit abandons the expansion
      // mid-round; already-scored pool members (and already-evaluated rows)
      // are still eligible for the commit below (best-so-far semantics).
      trial.clear();
      for (const Candidate& base : pool) {
        for (WordId cand : candidates.per_position[pos]) {
          if (cand == base.tokens[pos]) continue;
          trial.push_back(base.tokens);
          trial.back()[pos] = cand;
        }
      }
      std::vector<Candidate> expanded;
      score_round(*evaluator, trial, target, stop,
                  [&](std::size_t i, double p) {
                    expanded.push_back({std::move(trial[i]), p});
                  });
      pool.insert(pool.end(), std::make_move_iterator(expanded.begin()),
                  std::make_move_iterator(expanded.end()));
      if (config.beam_cap > 0 && pool.size() > config.beam_cap) {
        std::partial_sort(pool.begin(), pool.begin() + config.beam_cap,
                          pool.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.proba > b.proba;
                          });
        pool.resize(config.beam_cap);
      }
    }

    // Step 16: commit the best candidate. Enforce the budget exactly (a
    // combination may touch more positions than the remaining budget).
    const Candidate* best = nullptr;
    for (const Candidate& cand : pool) {
      if (count_changes(tokens, cand.tokens) > budget) continue;
      if (best == nullptr || cand.proba > best->proba) best = &cand;
    }
    if (best == nullptr || best->tokens == result.adv_tokens) break;
    for (std::size_t i = 0; i < n; ++i) {
      if (best->tokens[i] != result.adv_tokens[i]) replaced[i] = true;
    }
    result.adv_tokens = best->tokens;
    held = best->proba;
    evaluator->rebase(result.adv_tokens);
    if (held >= config.success_threshold) break;
    if (stop.truncated()) break;
  }

  result.queries = evaluator->queries();
  result.forwards += evaluator->queries();
  result.final_target_proba =
      score_forward(model, result.adv_tokens, target, control, result)
          .value_or(held);
  finish(result, stop, config.success_threshold);
  result.words_changed = count_changes(tokens, result.adv_tokens);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace advtext
