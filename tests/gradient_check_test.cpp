// Finite-difference gradient checks of the WCNN (nn_test's typed suite
// checks the LSTM and GRU), and the probabilities the gradient calls
// return.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/nn/bow_classifier.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/wcnn.h"
#include "tests/grad_check.h"

namespace advtext {
namespace {

TEST(GradientCheck, WCnnInputGradient) {
  WCnnConfig config;
  config.embed_dim = 5;
  config.num_filters = 7;
  config.train_dropout = 0.0f;
  WCnn model(config, dense_embeddings(24, 5, 31));
  // All tokens distinct so each table row maps to one position.
  const TokenSeq tokens = {2, 5, 8, 11, 14, 17, 20};
  for (std::size_t target : {0u, 1u}) {
    const Matrix grad = model.input_gradient(tokens, target);
    auto& table = const_cast<Matrix&>(model.embedding().table());
    for (std::size_t pos = 0; pos < tokens.size(); pos += 2) {
      for (std::size_t d = 0; d < config.embed_dim; d += 2) {
        const double fd = fd_input_grad(model, table, tokens, target,
                                        tokens[pos], d, 1e-3);
        EXPECT_NEAR(grad(pos, d), fd, 5e-3)
            << "target " << target << " pos " << pos << " dim " << d;
      }
    }
  }
}

TEST(GradientCheck, InputGradientRowsSumToProbGradient) {
  // Probabilities sum to 1, so the gradients of the two class
  // probabilities must be opposite.
  LstmConfig config;
  config.embed_dim = 4;
  config.hidden = 5;
  LstmClassifier model(config, dense_embeddings(16, 4, 41));
  const TokenSeq tokens = {2, 4, 6, 8};
  const Matrix g0 = model.input_gradient(tokens, 0);
  const Matrix g1 = model.input_gradient(tokens, 1);
  for (std::size_t i = 0; i < g0.rows(); ++i) {
    for (std::size_t d = 0; d < g0.cols(); ++d) {
      EXPECT_NEAR(g0(i, d), -g1(i, d), 1e-5);
    }
  }
}

TEST(GradientCheck, WCnnParameterGradients) {
  WCnnConfig config;
  config.embed_dim = 4;
  config.num_filters = 5;
  config.train_dropout = 0.0f;  // dropout off: loss must be deterministic
  WCnn model(config, dense_embeddings(20, 4, 43), /*freeze_embedding=*/false);
  check_param_gradients(model, {2, 5, 8, 11, 14}, 1, 5e-3);
}

// Alg. 3 takes the probabilities a gradient call returns as the current
// document's score, so they must be predict_proba's bits: for every
// family, with MC dropout off.
TEST(GradientCheck, InputGradientProbaIsPredictProba) {
  const std::size_t dim = 4;
  const Matrix table = dense_embeddings(20, dim, 53);
  std::vector<std::unique_ptr<TextClassifier>> models;
  WCnnConfig wcnn;
  wcnn.embed_dim = dim;
  wcnn.num_filters = 6;
  models.push_back(std::make_unique<WCnn>(wcnn, Matrix(table)));
  RecurrentConfig recurrent;
  recurrent.embed_dim = dim;
  recurrent.hidden = 5;
  models.push_back(std::make_unique<LstmClassifier>(recurrent, Matrix(table)));
  models.push_back(std::make_unique<GruClassifier>(recurrent, Matrix(table)));
  BowClassifierConfig bow;
  bow.vocab_size = table.rows();
  models.push_back(std::make_unique<BowClassifier>(bow));
  for (const TokenSeq& tokens : {TokenSeq{3}, TokenSeq{2, 5, 8, 11, 14, 5}}) {
    for (const auto& model : models) {
      for (std::size_t target : {0u, 1u}) {
        Vector proba;
        (void)model->input_gradient(tokens, target, &proba);
        EXPECT_EQ(proba, model->predict_proba(tokens))
            << "model " << (&model - models.data()) << " length "
            << tokens.size() << " target " << target;
      }
    }
  }
}

}  // namespace
}  // namespace advtext
