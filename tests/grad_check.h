// Finite-difference helpers for the gradient checks: the attacks are
// driven by input-embedding gradients, and training by parameter
// gradients, so both must match numerical derivatives.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/nn/text_classifier.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace advtext {

/// A vocab x dim table of N(0, 0.6) rows.
inline Matrix dense_embeddings(std::size_t vocab, std::size_t dim,
                               std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(vocab, dim);
  m.fill_normal(rng, 0.6f);
  return m;
}

// Numerically differentiates p_target w.r.t. one embedding coordinate by
// perturbing the (shared) embedding table entry of a token that occurs
// exactly once in the sequence.
template <typename Model>
double fd_input_grad(Model& model, Matrix& table, const TokenSeq& tokens,
                     std::size_t target, WordId word, std::size_t dim_index,
                     double eps) {
  const std::size_t row = static_cast<std::size_t>(word);
  const float saved = table(row, dim_index);
  table(row, dim_index) = static_cast<float>(saved + eps);
  const double plus = model.predict_proba(tokens)[target];
  table(row, dim_index) = static_cast<float>(saved - eps);
  const double minus = model.predict_proba(tokens)[target];
  table(row, dim_index) = saved;
  return (plus - minus) / (2.0 * eps);
}

// Parameter-gradient check via loss finite differences on every parameter
// tensor of the model.
template <typename Model>
void check_param_gradients(Model& model, const TokenSeq& tokens,
                           std::size_t label, double tol) {
  model.zero_grad();
  model.forward_backward(tokens, label);
  const auto params = model.params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    const ParamRef& ref = params[p];
    const std::size_t stride = std::max<std::size_t>(1, ref.size / 7);
    for (std::size_t i = 0; i < ref.size; i += stride) {
      const float saved = ref.value[i];
      const double eps = 1e-3;
      ref.value[i] = static_cast<float>(saved + eps);
      model.zero_grad();
      const double plus = model.forward_backward(tokens, label);
      ref.value[i] = static_cast<float>(saved - eps);
      model.zero_grad();
      const double minus = model.forward_backward(tokens, label);
      ref.value[i] = saved;
      const double fd = (plus - minus) / (2.0 * eps);
      model.zero_grad();
      model.forward_backward(tokens, label);
      EXPECT_NEAR(model.params()[p].grad[i], fd, tol)
          << "param " << p << " index " << i;
    }
  }
}

}  // namespace advtext
