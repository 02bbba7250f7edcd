// Cross-cutting property tests: invariants that must hold across seeds,
// budgets, models and datasets (parameterized sweeps).
//
//  * generator invariants across seeds (separability proxy, cluster
//    structure, paraphrase-index coverage);
//  * attack invariants (budget monotonicity of greedy, determinism of the
//    full pipeline, success-flag consistency);
//  * WMD pseudo-metric axioms on random embeddings;
//  * language-model normalization across corpora;
//  * swap-evaluator/full-forward equivalence sweeps for all four victim
//    families.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/objective_greedy.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/pipeline.h"
#include "src/nn/bow_classifier.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "tests/ulp.h"

namespace advtext {
namespace {

// ---- Generator invariants across seeds --------------------------------------

class GeneratorSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedTest, SurfaceEvidenceSeparatesClasses) {
  // The sum of word_polarity over a document must predict its label far
  // above chance — otherwise no classifier could reach the paper's clean
  // accuracies on this seed.
  SynthConfig config;
  config.seed = GetParam();
  config.num_train = 150;
  config.num_test = 30;
  const SynthTask task = make_task(config);
  std::size_t correct = 0;
  for (const Document& doc : task.train.docs) {
    double surface = 0.0;
    for (WordId w : doc.flatten()) {
      surface += task.word_polarity[static_cast<std::size_t>(w)];
    }
    if ((surface >= 0.0 ? 1 : 0) == doc.label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(task.train.size()),
            0.85)
      << "seed " << GetParam();
}

TEST_P(GeneratorSeedTest, EveryClusterReachableThroughParaphraseIndex) {
  SynthConfig config;
  config.seed = GetParam();
  config.num_train = 60;
  config.num_test = 10;
  const SynthTask task = make_task(config);
  const ParaphraseIndex index(task.paragram, {});
  // Every canonical word must see at least half its cluster as neighbours
  // (the attack surface the paper's k = 15 candidate sets provide).
  for (const auto& members : task.concept_members) {
    std::size_t reachable = 0;
    const auto& neighbors = index.neighbors(members.front());
    for (WordId sibling : members) {
      if (sibling == members.front()) continue;
      for (WordId n : neighbors) {
        if (n == sibling) {
          ++reachable;
          break;
        }
      }
    }
    EXPECT_GE(reachable, (members.size() - 1) / 2)
        << "seed " << GetParam();
  }
}

TEST_P(GeneratorSeedTest, OracleBeatsChanceClearly) {
  SynthConfig config;
  config.seed = GetParam();
  config.num_train = 150;
  config.num_test = 30;
  const SynthTask task = make_task(config);
  std::size_t agree = 0;
  for (const Document& doc : task.train.docs) {
    if (task.oracle_label(doc) == doc.label) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) /
                static_cast<double>(task.train.size()),
            0.8)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedTest,
                         ::testing::Values(3, 17, 101, 5555, 98765));

// ---- Attack invariants -------------------------------------------------------

class AttackInvariantFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config = make_yelp(211).config;
    config.num_train = 400;
    config.num_test = 40;
    config.seed = 211;
    task_ = new SynthTask(make_task(config));
    context_ = new TaskAttackContext(*task_);
    WCnnConfig wconfig;
    wconfig.embed_dim = task_->config.embedding_dim;
    wconfig.num_filters = 32;
    model_ = new WCnn(wconfig, Matrix(task_->paragram));
    TrainConfig train;
    train.epochs = 8;
    train_classifier(*model_, task_->train, train);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete context_;
    delete task_;
    model_ = nullptr;
    context_ = nullptr;
    task_ = nullptr;
  }
  static SynthTask* task_;
  static TaskAttackContext* context_;
  static WCnn* model_;
};

SynthTask* AttackInvariantFixture::task_ = nullptr;
TaskAttackContext* AttackInvariantFixture::context_ = nullptr;
WCnn* AttackInvariantFixture::model_ = nullptr;

TEST_F(AttackInvariantFixture, GreedyFinalProbaMonotoneInBudget) {
  // Objective greedy only commits improving swaps, so a larger budget can
  // never end at a lower target probability (deterministic victim).
  std::size_t checked = 0;
  for (const Document& doc : task_->test.docs) {
    const TokenSeq tokens = doc.flatten();
    const std::size_t label = static_cast<std::size_t>(doc.label);
    if (model_->predict(tokens) != label) continue;
    WordCandidates candidates;
    candidates.per_position =
        context_->word_index().candidates_for(tokens, &context_->lm());
    double prev = -1.0;
    for (double lw : {0.05, 0.1, 0.2, 0.4}) {
      ObjectiveGreedyConfig config;
      config.max_replace_fraction = lw;
      config.success_threshold = 2.0;  // never early-stop
      const WordAttackResult result = objective_greedy_attack(
          *model_, tokens, candidates, 1 - label, config);
      EXPECT_GE(result.final_target_proba, prev - 1e-6)
          << "budget " << lw;
      prev = result.final_target_proba;
    }
    if (++checked >= 4) break;
  }
  EXPECT_GE(checked, 2u);
}

TEST_F(AttackInvariantFixture, PipelineIsDeterministic) {
  AttackEvalConfig config;
  config.max_docs = 8;
  config.joint.sentence_fraction = 0.2;
  config.joint.word_fraction = 0.2;
  const AttackEvalResult a =
      evaluate_attack(*model_, *task_, *context_, config);
  const AttackEvalResult b =
      evaluate_attack(*model_, *task_, *context_, config);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.adversarial_accuracy, b.adversarial_accuracy);
  ASSERT_EQ(a.adv_docs.size(), b.adv_docs.size());
  for (std::size_t i = 0; i < a.adv_docs.size(); ++i) {
    EXPECT_EQ(a.adv_docs[i].flatten(), b.adv_docs[i].flatten());
  }
}

TEST_F(AttackInvariantFixture, SuccessFlagMatchesThreshold) {
  std::size_t checked = 0;
  for (const Document& doc : task_->test.docs) {
    const TokenSeq tokens = doc.flatten();
    const std::size_t label = static_cast<std::size_t>(doc.label);
    if (model_->predict(tokens) != label) continue;
    WordCandidates candidates;
    candidates.per_position =
        context_->word_index().candidates_for(tokens, &context_->lm());
    ObjectiveGreedyConfig config;
    config.max_replace_fraction = 0.3;
    const WordAttackResult result = objective_greedy_attack(
        *model_, tokens, candidates, 1 - label, config);
    EXPECT_EQ(result.success,
              result.final_target_proba >= config.success_threshold);
    if (++checked >= 6) break;
  }
}

TEST_F(AttackInvariantFixture, AdversarialDocsStayInVocabulary) {
  AttackEvalConfig config;
  config.max_docs = 10;
  config.joint.sentence_fraction = 0.4;
  config.joint.word_fraction = 0.2;
  const AttackEvalResult result =
      evaluate_attack(*model_, *task_, *context_, config);
  for (const Document& doc : result.adv_docs) {
    for (WordId w : doc.flatten()) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, task_->vocab.size());
    }
  }
}

// ---- WMD pseudo-metric axioms -------------------------------------------------

class WmdAxiomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WmdAxiomTest, PseudoMetricAxiomsHold) {
  Rng rng(GetParam());
  Matrix emb(12, 4);
  emb.fill_normal(rng, 0.8f);
  const Wmd wmd(emb);
  auto random_sentence = [&](std::size_t length) {
    Sentence s;
    for (std::size_t i = 0; i < length; ++i) {
      s.push_back(static_cast<WordId>(rng.uniform_index(12)));
    }
    return s;
  };
  for (int trial = 0; trial < 10; ++trial) {
    const Sentence a = random_sentence(3 + rng.uniform_index(4));
    const Sentence b = random_sentence(3 + rng.uniform_index(4));
    const Sentence c = random_sentence(3 + rng.uniform_index(4));
    const double dab = wmd.distance(a, b);
    const double dba = wmd.distance(b, a);
    const double dac = wmd.distance(a, c);
    const double dcb = wmd.distance(c, b);
    EXPECT_GE(dab, 0.0);
    EXPECT_NEAR(dab, dba, 1e-6);                 // symmetry (fp slack)
    EXPECT_DOUBLE_EQ(wmd.distance(a, a), 0.0);   // identity
    EXPECT_LE(dab, dac + dcb + 1e-7);            // triangle inequality
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WmdAxiomTest,
                         ::testing::Values(1, 2, 3, 4));

// ---- Language model normalization ---------------------------------------------

class LmNormalizationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LmNormalizationTest, ConditionalsSumNearOne) {
  SynthConfig config;
  config.seed = GetParam();
  config.num_train = 80;
  config.num_test = 10;
  const SynthTask task = make_task(config);
  const std::size_t vocab = static_cast<std::size_t>(task.vocab.size());
  const NGramLm lm(task.train, vocab);
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 5; ++trial) {
    const WordId prev =
        trial == 0 ? -1
                   : static_cast<WordId>(rng.uniform_index(vocab));
    double total = 0.0;
    for (WordId w = 0; w < static_cast<WordId>(vocab); ++w) {
      total += lm.conditional(prev, w);
    }
    EXPECT_NEAR(total, 1.0, 0.2) << "context " << prev;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmNormalizationTest,
                         ::testing::Values(21, 22, 23));

// ---- Swap-evaluator equivalence across all victim families --------------------

enum class VictimKind { kWCnn, kLstm, kGru, kBow };

class SwapEquivalenceTest : public ::testing::TestWithParam<VictimKind> {};

TEST_P(SwapEquivalenceTest, EvaluatorMatchesFullForwardEverywhere) {
  Rng rng(7);
  Matrix emb(24, 6);
  emb.fill_normal(rng, 0.5f);
  std::unique_ptr<TextClassifier> model;
  switch (GetParam()) {
    case VictimKind::kWCnn: {
      WCnnConfig config;
      config.embed_dim = 6;
      config.num_filters = 10;
      model = std::make_unique<WCnn>(config, Matrix(emb));
      break;
    }
    case VictimKind::kLstm: {
      LstmConfig config;
      config.embed_dim = 6;
      config.hidden = 5;
      model = std::make_unique<LstmClassifier>(config, Matrix(emb));
      break;
    }
    case VictimKind::kGru: {
      GruConfig config;
      config.embed_dim = 6;
      config.hidden = 5;
      model = std::make_unique<GruClassifier>(config, Matrix(emb));
      break;
    }
    case VictimKind::kBow: {
      BowClassifierConfig config;
      config.vocab_size = 24;
      model = std::make_unique<BowClassifier>(config);
      break;
    }
  }
  const TokenSeq base = {2, 7, 12, 17, 21, 3, 9, 14};
  auto evaluator = model->make_swap_evaluator(base);
  // Exact, except BoW swaps (kBowSwapUlps, tests/ulp.h).
  const std::int64_t ulps =
      GetParam() == VictimKind::kBow ? kBowSwapUlps : 0;
  const auto expect_swap = [&](std::size_t pos, WordId cand,
                               const TokenSeq& swapped) {
    const Vector expected = model->predict_proba(swapped);
    const Vector got = evaluator->eval_swap(pos, cand);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t c = 0; c < expected.size(); ++c) {
      EXPECT_LE(ulp_distance(got[c], expected[c]), ulps)
          << "pos " << pos << " cand " << cand << ": " << got[c] << " vs "
          << expected[c];
    }
  };
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (WordId cand : {4, 11, 19}) {
      TokenSeq swapped = base;
      swapped[pos] = cand;
      expect_swap(pos, cand, swapped);
    }
  }
  // Rebase and re-verify (the loop greedy attacks run).
  TokenSeq rebased = base;
  rebased[3] = 20;
  evaluator->rebase(rebased);
  TokenSeq swapped = rebased;
  swapped[6] = 5;
  expect_swap(6, 5, swapped);
}

INSTANTIATE_TEST_SUITE_P(Victims, SwapEquivalenceTest,
                         ::testing::Values(VictimKind::kWCnn,
                                           VictimKind::kLstm,
                                           VictimKind::kGru,
                                           VictimKind::kBow));

}  // namespace
}  // namespace advtext
