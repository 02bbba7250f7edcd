#include "src/core/gradient_attack.h"

#include <algorithm>
#include <cmath>

#include "src/core/score_round.h"
#include "src/util/det_accum.h"
#include "src/util/stopwatch.h"

namespace advtext {

WordAttackResult gradient_attack(const TextClassifier& model,
                                 const TokenSeq& tokens,
                                 const WordCandidates& candidates,
                                 std::size_t target,
                                 const GradientAttackConfig& config,
                                 const AttackControl& control) {
  FaultInjector::instance().maybe_fault("attack.word");
  Stopwatch watch;
  WordAttackResult result;
  result.adv_tokens = tokens;
  const std::size_t n = tokens.size();
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(config.max_replace_fraction * static_cast<double>(n)));
  const Matrix& table = model.embedding_table();
  const std::size_t dim = model.embedding_dim();

  BatchStatus stop;
  Vector proba;
  for (std::size_t round = 0; round < std::max<std::size_t>(1, config.rounds);
       ++round) {
    // The per-round work is gradient-dominated (no per-candidate forward
    // passes), so round granularity is the natural check point. A round
    // ends on an unscored proposal, so it starts only if the budget can
    // admit both its gradient call and the verification after it.
    if ((stop.out_of_time = control.deadline.expired())) break;
    if ((stop.out_of_budget = control.budget_remaining() < 2)) break;
    const std::size_t already_changed = count_changes(tokens,
                                                      result.adv_tokens);
    if (already_changed >= budget) break;

    if ((stop.out_of_budget = !control.try_charge())) break;
    ++result.forwards;
    const Matrix grad =
        model.input_gradient(result.adv_tokens, target, &proba);
    ++result.gradient_calls;
    ++result.iterations;
    if (proba[target] >= config.success_threshold) break;

    // Per-position proposals, scored for the budgeted top-m selection.
    struct Gain {
      double value;
      std::size_t pos;
      WordId word;
    };
    std::vector<Gain> gains;
    for (std::size_t i = 0; i < n; ++i) {
      if (candidates.per_position[i].empty()) continue;
      const float* g = grad.row(i);
      const float* orig_vec =
          table.row(static_cast<std::size_t>(result.adv_tokens[i]));
      const double gnorm = norm2(g, dim);
      if (config.mode == GradientAttackMode::kNearestNeighborStep) {
        // [18]: step along the gradient, snap to the nearest candidate
        // embedding by Euclidean distance. Positions ranked by ||∇_i||.
        if (gnorm <= 0.0) continue;
        double best_dist = 0.0;  // distance of keeping the original: η
        WordId best_word = result.adv_tokens[i];
        // Stepping away from v by η leaves the original at distance η.
        best_dist = config.step_size;
        for (WordId cand : candidates.per_position[i]) {
          if (cand == result.adv_tokens[i]) continue;
          const float* cand_vec = table.row(static_cast<std::size_t>(cand));
          const double dist_sq = det_index_sum(dim, [&](std::size_t d) {
            const double target_coord =
                orig_vec[d] + config.step_size * g[d] / gnorm;
            const double diff = cand_vec[d] - target_coord;
            return diff * diff;
          });
          const double dist = std::sqrt(dist_sq);
          if (dist < best_dist) {
            best_dist = dist;
            best_word = cand;
          }
        }
        if (best_word != result.adv_tokens[i]) {
          gains.push_back({gnorm, i, best_word});
        }
        continue;
      }
      // Proposition 2: per-position modular gains under the linearization.
      double best = 0.0;
      WordId best_word = result.adv_tokens[i];
      for (WordId cand : candidates.per_position[i]) {
        if (cand == result.adv_tokens[i]) continue;
        const float* cand_vec = table.row(static_cast<std::size_t>(cand));
        const double delta = det_diff_dot(cand_vec, orig_vec, g, dim);
        if (delta > best) {
          best = delta;
          best_word = cand;
        }
      }
      if (best > 0.0 && best_word != result.adv_tokens[i]) {
        gains.push_back({best, i, best_word});
      }
    }
    std::sort(gains.begin(), gains.end(), [](const Gain& a, const Gain& b) {
      if (a.value != b.value) return a.value > b.value;
      return a.pos < b.pos;
    });

    // Apply the top gains without exceeding the overall budget (a position
    // already changed in a previous round may be re-replaced for free).
    TokenSeq proposal = result.adv_tokens;
    for (const Gain& gain : gains) {
      TokenSeq trial = proposal;
      trial[gain.pos] = gain.word;
      if (count_changes(tokens, trial) > budget) continue;
      proposal = std::move(trial);
    }
    if (proposal == result.adv_tokens) break;  // linearization found nothing
    result.adv_tokens = std::move(proposal);
  }

  // The verification is this attack's one counted query; only an attack
  // entered with a spent budget is refused it, and reports no score.
  if (const auto verified =
          score_forward(model, result.adv_tokens, target, control, result)) {
    result.final_target_proba = *verified;
    ++result.queries;
  }
  finish(result, stop, config.success_threshold);
  result.words_changed = count_changes(tokens, result.adv_tokens);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace advtext
