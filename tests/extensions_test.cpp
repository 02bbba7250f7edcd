// Tests for the extension modules: GRU classifier training (its forward,
// gradients and swap evaluator run in nn_test's typed suite with the
// LSTM's), bag-of-words classifier (gradients, Proposition 2
// exactness for linear models), character-flip candidates (Remark 2), and
// the lazy objective-guided greedy attack.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/char_flip.h"
#include "src/core/gradient_attack.h"
#include "src/core/lazy_greedy_attack.h"
#include "src/core/objective_greedy.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/pipeline.h"
#include "src/nn/bow_classifier.h"
#include "src/nn/gru.h"
#include "src/nn/trainer.h"
#include "src/optim/submodular.h"
#include "tests/ulp.h"

namespace advtext {
namespace {

// ---- GRU --------------------------------------------------------------------

TEST(Gru, LearnsSeparableTask) {
  const SynthTask task = make_yelp(91);
  GruConfig config;
  config.embed_dim = task.config.embedding_dim;
  config.hidden = 16;
  GruClassifier model(config, Matrix(task.paragram));
  TrainConfig train;
  train.epochs = 12;
  train.learning_rate = 5e-3;
  train_classifier(model, task.train, train);
  EXPECT_GT(classification_accuracy(model, task.test), 0.8);
}

// ---- BoW classifier ---------------------------------------------------------

TEST(Bow, ForwardCountsWords) {
  BowClassifierConfig config;
  config.vocab_size = 6;
  BowClassifier model(config);
  // Repeated tokens accumulate: logits differ from single occurrence.
  const Vector p1 = model.predict_proba({3});
  const Vector p2 = model.predict_proba({3, 3, 3});
  EXPECT_NE(p1[0], p2[0]);
  EXPECT_THROW(model.predict_proba({9}), std::invalid_argument);
}

TEST(Bow, ParameterGradientsMatchFiniteDifference) {
  BowClassifierConfig config;
  config.vocab_size = 8;
  BowClassifier model(config);
  const TokenSeq tokens = {2, 3, 3, 7};
  model.zero_grad();
  model.forward_backward(tokens, 0);
  const auto params = model.params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    const ParamRef& ref = params[p];
    for (std::size_t i = 0; i < ref.size; i += 3) {
      const float saved = ref.value[i];
      const double eps = 1e-3;
      ref.value[i] = static_cast<float>(saved + eps);
      model.zero_grad();
      const double plus = model.forward_backward(tokens, 0);
      ref.value[i] = static_cast<float>(saved - eps);
      model.zero_grad();
      const double minus = model.forward_backward(tokens, 0);
      ref.value[i] = saved;
      model.zero_grad();
      model.forward_backward(tokens, 0);
      EXPECT_NEAR(model.params()[p].grad[i], (plus - minus) / (2.0 * eps),
                  2e-3);
    }
  }
}

TEST(Bow, SwapEvaluatorMatchesFullForward) {
  BowClassifierConfig config;
  config.vocab_size = 10;
  BowClassifier model(config);
  TokenSeq base = {2, 4, 6, 8};
  auto evaluator = model.make_swap_evaluator(base);
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    TokenSeq swapped = base;
    swapped[pos] = 9;
    const Vector got = evaluator->eval_swap(pos, 9);
    const Vector want = model.predict_proba(swapped);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_LE(ulp_distance(got[c], want[c]), kBowSwapUlps)
          << "pos " << pos << " class " << c;
    }
  }
}

TEST(Bow, TrainsOnSyntheticTask) {
  const SynthTask task = make_yelp(92);
  BowClassifierConfig config;
  config.vocab_size = static_cast<std::size_t>(task.vocab.size());
  BowClassifier model(config);
  TrainConfig train;
  train.epochs = 6;
  train_classifier(model, task.train, train);
  EXPECT_GT(classification_accuracy(model, task.test), 0.85);
}

TEST(Bow, GradientAttackIsExactForLinearModel) {
  // Proposition 2: for a linear classifier the first-order relaxation is
  // not a relaxation at all (in logit space). The best single-round
  // gradient attack must therefore match brute force over the same budget
  // on the *logit margin*, and greedy cannot beat it.
  const SynthTask task = make_yelp(93);
  BowClassifierConfig config;
  config.vocab_size = static_cast<std::size_t>(task.vocab.size());
  BowClassifier model(config);
  TrainConfig train;
  train.epochs = 6;
  train_classifier(model, task.train, train);
  const TaskAttackContext context(task);

  std::size_t checked = 0;
  for (const Document& doc : task.test.docs) {
    TokenSeq tokens = doc.flatten();
    if (tokens.size() > 14) tokens.resize(14);
    const std::size_t label = static_cast<std::size_t>(doc.label);
    if (model.predict(tokens) != label) continue;
    const std::size_t target = 1 - label;
    WordCandidates candidates;
    candidates.per_position =
        context.word_index().candidates_for(tokens, nullptr);

    GradientAttackConfig ga;
    ga.max_replace_fraction = 0.3;
    ga.success_threshold = 2.0;  // exhaust the budget
    ga.mode = GradientAttackMode::kModularRelaxation;
    const WordAttackResult grad_result =
        gradient_attack(model, tokens, candidates, target, ga);

    // Brute-force the best swap set of the same size via the exact
    // per-position logit deltas (independent for a linear model).
    std::vector<double> best_gain_per_pos(tokens.size(), 0.0);
    for (std::size_t pos = 0; pos < tokens.size(); ++pos) {
      for (WordId cand : candidates.per_position[pos]) {
        // Margin gain = Δlogit[target] - Δlogit[label].
        const double gain =
            model.swap_logit_delta(target, tokens[pos], cand) -
            model.swap_logit_delta(label, tokens[pos], cand);
        best_gain_per_pos[pos] = std::max(best_gain_per_pos[pos], gain);
      }
    }
    std::sort(best_gain_per_pos.begin(), best_gain_per_pos.end(),
              std::greater<>());
    const std::size_t budget = static_cast<std::size_t>(
        std::ceil(0.3 * static_cast<double>(tokens.size())));
    double optimal_margin_gain = 0.0;
    for (std::size_t i = 0; i < budget; ++i) {
      optimal_margin_gain += best_gain_per_pos[i];
    }
    // The gradient attack maximizes d p_target, whose linearization is a
    // positive multiple of the margin gain — its achieved margin gain
    // must match the independent-swap optimum (up to fp noise).
    double achieved = 0.0;
    for (std::size_t pos = 0; pos < tokens.size(); ++pos) {
      if (grad_result.adv_tokens[pos] == tokens[pos]) continue;
      achieved +=
          model.swap_logit_delta(target, tokens[pos],
                                 grad_result.adv_tokens[pos]) -
          model.swap_logit_delta(label, tokens[pos],
                                 grad_result.adv_tokens[pos]);
    }
    EXPECT_NEAR(achieved, optimal_margin_gain,
                0.05 * std::abs(optimal_margin_gain) + 1e-3);
    if (++checked >= 5) break;
  }
  EXPECT_GE(checked, 3u);
}

// ---- Character flips (Remark 2) ---------------------------------------------

TEST(CharFlip, CorruptionsAreSingleEdits) {
  const auto c = char_corruptions("word");
  EXPECT_FALSE(c.empty());
  for (const std::string& cand : c) {
    EXPECT_NE(cand, "word");
    const std::size_t len_delta =
        cand.size() > 4 ? cand.size() - 4 : 4 - cand.size();
    EXPECT_LE(len_delta, 1u);
  }
}

TEST(CharFlip, CandidatesMapThroughVocab) {
  Vocab vocab;
  const WordId cat = vocab.add("cat");
  vocab.add("act");   // transposition of "cat" -> real word
  vocab.add("catt");  // doubling of "cat" -> real word
  CharFlipConfig config;
  config.max_candidates_per_word = 10;
  const WordCandidates candidates =
      char_flip_candidates({cat}, vocab, config);
  ASSERT_EQ(candidates.per_position.size(), 1u);
  const auto& list = candidates.per_position[0];
  EXPECT_NE(std::find(list.begin(), list.end(), vocab.id("act")), list.end());
  EXPECT_NE(std::find(list.begin(), list.end(), vocab.id("catt")),
            list.end());
  EXPECT_NE(std::find(list.begin(), list.end(), Vocab::kUnk), list.end());
}

TEST(CharFlip, ShortWordsAndSpecialsSkipped) {
  Vocab vocab;
  const WordId ab = vocab.add("ab");
  const WordCandidates candidates =
      char_flip_candidates({Vocab::kPad, Vocab::kUnk, ab}, vocab, {});
  for (const auto& list : candidates.per_position) {
    EXPECT_TRUE(list.empty());
  }
}

TEST(CharFlip, RespectsCap) {
  Vocab vocab;
  const WordId word = vocab.add("elephant");
  CharFlipConfig config;
  config.max_candidates_per_word = 2;
  const WordCandidates candidates =
      char_flip_candidates({word}, vocab, config);
  EXPECT_LE(candidates.per_position[0].size(), 2u);
}

TEST(CharFlip, PlugsIntoAttacks) {
  // Remark 2 end-to-end: the char-flip candidate generator drives the
  // greedy attack unchanged.
  const SynthTask task = make_trec07p(94);
  BowClassifierConfig config;
  config.vocab_size = static_cast<std::size_t>(task.vocab.size());
  BowClassifier model(config);
  TrainConfig train;
  train.epochs = 6;
  train_classifier(model, task.train, train);
  for (const Document& doc : task.test.docs) {
    const TokenSeq tokens = doc.flatten();
    const std::size_t label = static_cast<std::size_t>(doc.label);
    if (model.predict(tokens) != label) continue;
    const WordCandidates candidates =
        char_flip_candidates(tokens, task.vocab, {});
    ObjectiveGreedyConfig og;
    og.max_replace_fraction = 0.3;
    const WordAttackResult result =
        objective_greedy_attack(model, tokens, candidates, 1 - label, og);
    EXPECT_GE(result.final_target_proba,
              model.class_probability(tokens, 1 - label) - 1e-6);
    break;
  }
}

// ---- Lazy greedy attack ------------------------------------------------------

TEST(LazyGreedyAttack, MatchesObjectiveGreedyOnLinearModel) {
  // On a linear (hence modular-in-logit) victim the stale bounds are
  // exact, so lazy greedy must reproduce the eager greedy trajectory.
  const SynthTask task = make_yelp(95);
  BowClassifierConfig config;
  config.vocab_size = static_cast<std::size_t>(task.vocab.size());
  BowClassifier model(config);
  TrainConfig train;
  train.epochs = 6;
  train_classifier(model, task.train, train);
  const TaskAttackContext context(task);

  std::size_t compared = 0;
  for (const Document& doc : task.test.docs) {
    const TokenSeq tokens = doc.flatten();
    const std::size_t label = static_cast<std::size_t>(doc.label);
    if (model.predict(tokens) != label) continue;
    WordCandidates candidates;
    candidates.per_position =
        context.word_index().candidates_for(tokens, nullptr);
    ObjectiveGreedyConfig og;
    og.max_replace_fraction = 0.2;
    og.success_threshold = 2.0;
    LazyGreedyAttackConfig lazy;
    lazy.max_replace_fraction = 0.2;
    lazy.success_threshold = 2.0;
    const WordAttackResult eager =
        objective_greedy_attack(model, tokens, candidates, 1 - label, og);
    const WordAttackResult accelerated =
        lazy_greedy_attack(model, tokens, candidates, 1 - label, lazy);
    EXPECT_NEAR(accelerated.final_target_proba, eager.final_target_proba,
                2e-3);
    if (++compared >= 4) break;
  }
  EXPECT_GE(compared, 2u);
}

TEST(LazyGreedyAttack, UsesFewerQueriesOnNonTrivialModel) {
  const SynthTask task = make_yelp(96);
  const TaskAttackContext context(task);
  BowClassifierConfig config;
  config.vocab_size = static_cast<std::size_t>(task.vocab.size());
  BowClassifier model(config);
  TrainConfig train;
  train.epochs = 6;
  train_classifier(model, task.train, train);
  double eager_queries = 0.0;
  double lazy_queries = 0.0;
  std::size_t counted = 0;
  for (const Document& doc : task.test.docs) {
    const TokenSeq tokens = doc.flatten();
    const std::size_t label = static_cast<std::size_t>(doc.label);
    if (model.predict(tokens) != label) continue;
    WordCandidates candidates;
    candidates.per_position =
        context.word_index().candidates_for(tokens, nullptr);
    ObjectiveGreedyConfig og;
    og.max_replace_fraction = 0.3;
    og.success_threshold = 2.0;
    LazyGreedyAttackConfig lazy;
    lazy.max_replace_fraction = 0.3;
    lazy.success_threshold = 2.0;
    eager_queries += static_cast<double>(
        objective_greedy_attack(model, tokens, candidates, 1 - label, og)
            .queries);
    lazy_queries += static_cast<double>(
        lazy_greedy_attack(model, tokens, candidates, 1 - label, lazy)
            .queries);
    if (++counted >= 5) break;
  }
  EXPECT_LT(lazy_queries, eager_queries);
}

TEST(LazyGreedyAttack, RespectsBudget) {
  const SynthTask task = make_yelp(97);
  const TaskAttackContext context(task);
  BowClassifierConfig config;
  config.vocab_size = static_cast<std::size_t>(task.vocab.size());
  BowClassifier model(config);
  TrainConfig train;
  train.epochs = 4;
  train_classifier(model, task.train, train);
  const Document& doc = task.test.docs.front();
  const TokenSeq tokens = doc.flatten();
  WordCandidates candidates;
  candidates.per_position =
      context.word_index().candidates_for(tokens, nullptr);
  LazyGreedyAttackConfig lazy;
  lazy.max_replace_fraction = 0.1;
  lazy.success_threshold = 2.0;
  const WordAttackResult result =
      lazy_greedy_attack(model, tokens, candidates, 1, lazy);
  EXPECT_LE(result.words_changed,
            static_cast<std::size_t>(
                std::ceil(0.1 * static_cast<double>(tokens.size()))));
}

}  // namespace
}  // namespace advtext
