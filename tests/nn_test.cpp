// Tests for the neural-network substrate: embedding layers, WCNN forward
// behaviour, the recurrent classifiers (one typed suite over LSTM and GRU:
// forward, gradients against finite differences), incremental swap
// evaluators vs full forwards, training convergence on separable data, and
// MC dropout.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <type_traits>

#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/nn/embedding.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "tests/grad_check.h"

namespace advtext {
namespace {

Matrix small_embeddings(std::size_t vocab, std::size_t dim,
                        std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(vocab, dim);
  m.fill_normal(rng, 0.5f);
  // Keep <pad> at zero like the task generator does.
  for (std::size_t d = 0; d < dim; ++d) m(0, d) = 0.0f;
  return m;
}

TEST(EmbeddingLayer, LookupStacksRows) {
  const Matrix table = small_embeddings(6, 3, 1);
  EmbeddingLayer layer{Matrix(table)};
  const Matrix looked = layer.lookup({4, 1, 4});
  EXPECT_EQ(looked.rows(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(looked(0, d), table(4, d));
    EXPECT_FLOAT_EQ(looked(2, d), table(4, d));
    EXPECT_FLOAT_EQ(looked(1, d), table(1, d));
  }
  EXPECT_THROW(layer.lookup({99}), std::out_of_range);
}

TEST(EmbeddingLayer, GradAccumulation) {
  Rng rng(1);
  EmbeddingLayer layer(4, 2, rng);
  const float g[2] = {1.0f, -2.0f};
  layer.accumulate_grad(3, g);
  layer.accumulate_grad(3, g);
  EXPECT_FLOAT_EQ(layer.grad()(3, 0), 2.0f);
  EXPECT_FLOAT_EQ(layer.grad()(3, 1), -4.0f);
  layer.zero_grad();
  EXPECT_FLOAT_EQ(layer.grad()(3, 0), 0.0f);
}

TEST(BagOfWords, CountsTokens) {
  const Vector counts = bag_of_words({2, 3, 2, 2}, 5);
  EXPECT_FLOAT_EQ(counts[2], 3.0f);
  EXPECT_FLOAT_EQ(counts[3], 1.0f);
  EXPECT_FLOAT_EQ(counts[4], 0.0f);
  EXPECT_THROW(bag_of_words({7}, 5), std::out_of_range);
}

TEST(WCnn, PredictProbaIsDistribution) {
  WCnnConfig config;
  config.embed_dim = 4;
  config.num_filters = 8;
  WCnn model(config, small_embeddings(10, 4, 2));
  const Vector p = model.predict_proba({2, 3, 4, 5, 6});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-5);
  EXPECT_GT(p[0], 0.0f);
}

TEST(WCnn, HandlesShortInputsViaPadding) {
  WCnnConfig config;
  config.embed_dim = 4;
  config.kernel = 3;
  WCnn model(config, small_embeddings(10, 4, 3));
  const Vector p1 = model.predict_proba({2});
  const Vector p2 = model.predict_proba({2, 3});
  EXPECT_NEAR(p1[0] + p1[1], 1.0, 1e-5);
  EXPECT_NEAR(p2[0] + p2[1], 1.0, 1e-5);
}

TEST(WCnn, DeterministicWithoutDropout) {
  WCnnConfig config;
  config.embed_dim = 4;
  config.mc_dropout = 0.0f;
  WCnn model(config, small_embeddings(10, 4, 4));
  const TokenSeq tokens = {2, 3, 4, 5};
  EXPECT_EQ(model.predict_proba(tokens), model.predict_proba(tokens));
}

TEST(WCnn, McDropoutMakesOutputStochastic) {
  WCnnConfig config;
  config.embed_dim = 4;
  config.num_filters = 32;
  config.mc_dropout = 0.3f;
  WCnn model(config, small_embeddings(10, 4, 5));
  const TokenSeq tokens = {2, 3, 4, 5, 6, 7};
  bool differs = false;
  const Vector first = model.predict_proba(tokens);
  for (int i = 0; i < 20 && !differs; ++i) {
    differs = model.predict_proba(tokens) != first;
  }
  EXPECT_TRUE(differs);
}

TEST(WCnn, SwapEvaluatorMatchesFullForward) {
  WCnnConfig config;
  config.embed_dim = 5;
  config.num_filters = 12;
  WCnn model(config, small_embeddings(20, 5, 6));
  TokenSeq base = {2, 5, 9, 13, 17, 3, 8};
  auto evaluator = model.make_swap_evaluator(base);
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (WordId cand : {4, 10, 19}) {
      TokenSeq swapped = base;
      swapped[pos] = cand;
      const Vector expected = model.predict_proba(swapped);
      EXPECT_EQ(evaluator->eval_swap(pos, cand), expected)
          << "pos " << pos << " cand " << cand;
    }
  }
  EXPECT_GT(evaluator->queries(), 0u);
}

TEST(WCnn, SwapEvaluatorMultiPositionMatchesFullForward) {
  WCnnConfig config;
  config.embed_dim = 5;
  config.num_filters = 12;
  WCnn model(config, small_embeddings(20, 5, 7));
  TokenSeq base = {2, 5, 9, 13, 17, 3, 8, 11};
  auto evaluator = model.make_swap_evaluator(base);
  TokenSeq multi = base;
  multi[1] = 18;
  multi[4] = 6;
  multi[7] = 15;
  EXPECT_EQ(evaluator->eval_tokens(multi), model.predict_proba(multi));
}

TEST(WCnn, SwapEvaluatorRebaseTracksNewDocument) {
  WCnnConfig config;
  config.embed_dim = 4;
  WCnn model(config, small_embeddings(15, 4, 8));
  TokenSeq base = {2, 3, 4, 5, 6};
  auto evaluator = model.make_swap_evaluator(base);
  base[2] = 10;
  evaluator->rebase(base);
  TokenSeq swapped = base;
  swapped[0] = 9;
  EXPECT_EQ(evaluator->eval_swap(0, 9), model.predict_proba(swapped));
}

// ---- Recurrent classifiers (LSTM, GRU) -------------------------------------

template <typename Model>
class RecurrentClassifierTest : public ::testing::Test {};

struct RecurrentName {
  template <typename Model>
  static std::string GetName(int) {
    return std::is_same_v<Model, LstmClassifier> ? "Lstm" : "Gru";
  }
};

using RecurrentModels = ::testing::Types<LstmClassifier, GruClassifier>;
TYPED_TEST_SUITE(RecurrentClassifierTest, RecurrentModels, RecurrentName);

RecurrentConfig recurrent_config(std::size_t embed_dim, std::size_t hidden) {
  RecurrentConfig config;
  config.embed_dim = embed_dim;
  config.hidden = hidden;
  return config;
}

TYPED_TEST(RecurrentClassifierTest, PredictProbaIsDistribution) {
  TypeParam model(recurrent_config(4, 6), small_embeddings(10, 4, 9));
  const Vector p = model.predict_proba({2, 3, 4});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-5);
  EXPECT_THROW(model.predict_proba({}), std::invalid_argument);
}

TYPED_TEST(RecurrentClassifierTest, InputGradientMatchesFiniteDifference) {
  RecurrentConfig config = recurrent_config(4, 6);
  config.train_dropout = 0.0f;
  TypeParam model(config, dense_embeddings(24, 4, 37));
  const TokenSeq tokens = {2, 5, 8, 11, 14, 17};
  for (std::size_t target : {0u, 1u}) {
    const Matrix grad = model.input_gradient(tokens, target);
    auto& table = const_cast<Matrix&>(model.embedding().table());
    for (std::size_t pos = 0; pos < tokens.size(); ++pos) {
      for (std::size_t d = 0; d < config.embed_dim; d += 2) {
        const double fd = fd_input_grad(model, table, tokens, target,
                                        tokens[pos], d, 1e-3);
        EXPECT_NEAR(grad(pos, d), fd, 5e-3)
            << "target " << target << " pos " << pos << " dim " << d;
      }
    }
  }
}

TYPED_TEST(RecurrentClassifierTest, ParameterGradientsMatchFiniteDifference) {
  RecurrentConfig config = recurrent_config(3, 4);
  config.train_dropout = 0.0f;  // dropout off: loss must be deterministic
  TypeParam model(config, dense_embeddings(16, 3, 47),
                  /*freeze_embedding=*/false);
  for (std::size_t label : {0u, 1u}) {
    check_param_gradients(model, {2, 5, 8, 11}, label, 5e-3);
  }
}

TYPED_TEST(RecurrentClassifierTest, SwapEvaluatorMatchesFullForward) {
  TypeParam model(recurrent_config(4, 5), small_embeddings(20, 4, 10));
  const TokenSeq base = {2, 7, 12, 17, 3, 9};
  auto evaluator = model.make_swap_evaluator(base);
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    TokenSeq swapped = base;
    swapped[pos] = 15;
    EXPECT_EQ(evaluator->eval_swap(pos, 15), model.predict_proba(swapped))
        << "pos " << pos;
  }
  TokenSeq multi = base;
  multi[1] = 9;
  multi[4] = 11;
  EXPECT_EQ(evaluator->eval_tokens(multi), model.predict_proba(multi));
}

TYPED_TEST(RecurrentClassifierTest, SwapEvaluatorHandlesLengthChange) {
  TypeParam model(recurrent_config(4, 5), small_embeddings(20, 4, 11));
  const TokenSeq base = {2, 7, 12, 17};
  auto evaluator = model.make_swap_evaluator(base);
  const TokenSeq longer = {2, 7, 12, 17, 5, 6};
  EXPECT_EQ(evaluator->eval_tokens(longer), model.predict_proba(longer));
}

TYPED_TEST(RecurrentClassifierTest, SwapEvaluatorIdenticalTokensMatchesBase) {
  TypeParam model(recurrent_config(4, 5), small_embeddings(20, 4, 12));
  const TokenSeq base = {2, 7, 12};
  auto evaluator = model.make_swap_evaluator(base);
  EXPECT_EQ(evaluator->eval_tokens(base), model.predict_proba(base));
}

TEST(Trainer, WCnnLearnsSeparableTask) {
  const SynthTask task = make_yelp(21);
  WCnnConfig config;
  config.embed_dim = task.config.embedding_dim;
  config.num_filters = 32;
  WCnn model(config, Matrix(task.paragram));
  TrainConfig train;
  train.epochs = 8;
  train_classifier(model, task.train, train);
  EXPECT_GT(classification_accuracy(model, task.test), 0.85);
}

TEST(Trainer, LstmLearnsSeparableTask) {
  const SynthTask task = make_yelp(22);
  LstmConfig config;
  config.embed_dim = task.config.embedding_dim;
  config.hidden = 16;
  LstmClassifier model(config, Matrix(task.paragram));
  TrainConfig train;
  train.epochs = 10;
  train_classifier(model, task.train, train);
  EXPECT_GT(classification_accuracy(model, task.test), 0.85);
}

TEST(Trainer, LossDecreases) {
  const SynthTask task = make_news(23);
  WCnnConfig config;
  config.embed_dim = task.config.embedding_dim;
  config.num_filters = 24;
  WCnn model(config, Matrix(task.paragram));
  TrainConfig train;
  train.epochs = 6;
  train.validation_fraction = 0.0;
  const TrainReport report = train_classifier(model, task.train, train);
  ASSERT_GE(report.epoch_losses.size(), 2u);
  EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front());
}

TEST(Trainer, FrozenEmbeddingStaysFixed) {
  const SynthTask task = make_yelp(24);
  WCnnConfig config;
  config.embed_dim = task.config.embedding_dim;
  WCnn model(config, Matrix(task.paragram), /*freeze_embedding=*/true);
  const Matrix before = model.embedding().table();
  TrainConfig train;
  train.epochs = 2;
  train_classifier(model, task.train, train);
  EXPECT_EQ(model.embedding().table(), before);
}

TEST(Trainer, UnfrozenEmbeddingMoves) {
  const SynthTask task = make_yelp(25);
  WCnnConfig config;
  config.embed_dim = task.config.embedding_dim;
  WCnn model(config, Matrix(task.paragram), /*freeze_embedding=*/false);
  const Matrix before = model.embedding().table();
  TrainConfig train;
  train.epochs = 2;
  train_classifier(model, task.train, train);
  EXPECT_NE(model.embedding().table(), before);
}

}  // namespace
}  // namespace advtext
