// The dense softmax output layer of the WCNN, LSTM and GRU: class
// probabilities softmax(W x + b) from a feature vector x (the WCNN's
// pooled maps, a recurrent model's final hidden state), its training
// backward, and the back-projection of one class probability's gradient
// that the attacks' input gradients start from. Also the inverted-dropout
// mask those models apply to x while training.
#pragma once

#include <cstddef>
#include <vector>

#include "src/nn/text_classifier.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace advtext {

/// Inverted dropout over n units: each is 0 with probability `rate` and
/// 1 / (1 - rate) otherwise, drawn in unit order. A rate <= 0 gives all
/// ones and draws nothing.
std::vector<float> dropout_mask(Rng& rng, float rate, std::size_t n);

class SoftmaxHead {
 public:
  /// Zero weights and bias over `features` inputs and `classes` outputs.
  SoftmaxHead(std::size_t features, std::size_t classes);

  /// W ~ U(-a, a) with the Glorot bound a = sqrt(6 / (F + C)); b stays 0.
  void init(Rng& rng);

  /// W x + b.
  Vector logits(const Vector& x) const;

  /// softmax(W x + b).
  Vector proba(const Vector& x) const;

  /// proba for m stacked feature rows (m x F -> m x C, row-major). One gemm
  /// of ascending-k dots, so row i equals proba(x_i) bit for bit.
  void proba_batch(const float* x, std::size_t m, float* proba) const;

  /// d p_target / d x = W^T [p_target (onehot(target) - p)] for p =
  /// proba(x).
  Vector target_grad(const Vector& p, std::size_t target) const;

  /// Cross-entropy training step for one example: returns the loss of
  /// logits(x) at `label`, adds the W and b gradients, and sets dx to dL/dx.
  float backward(const Vector& x, std::size_t label, Vector& dx);

  /// Appends W, then b, to an optimizer's parameter list.
  void append_params(std::vector<ParamRef>& refs);

  void zero_grad();

 private:
  Matrix w_;  // C x F
  Matrix w_grad_;
  Vector b_;  // C
  Vector b_grad_;
};

}  // namespace advtext
