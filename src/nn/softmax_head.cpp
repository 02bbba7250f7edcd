#include "src/nn/softmax_head.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/ops.h"

namespace advtext {

std::vector<float> dropout_mask(Rng& rng, float rate, std::size_t n) {
  std::vector<float> mask(n, 1.0f);
  if (rate <= 0.0f) return mask;
  const float scale = 1.0f / (1.0f - rate);
  for (float& m : mask) m = rng.bernoulli(rate) ? 0.0f : scale;
  return mask;
}

SoftmaxHead::SoftmaxHead(std::size_t features, std::size_t classes)
    : w_(classes, features),
      w_grad_(classes, features),
      b_(classes, 0.0f),
      b_grad_(classes, 0.0f) {}

void SoftmaxHead::init(Rng& rng) {
  const float bound = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(w_.cols() + w_.rows())));
  w_.fill_uniform(rng, bound);
}

Vector SoftmaxHead::logits(const Vector& x) const {
  Vector logits = matvec(w_, x);
  for (std::size_t c = 0; c < logits.size(); ++c) logits[c] += b_[c];
  return logits;
}

Vector SoftmaxHead::proba(const Vector& x) const {
  return softmax(logits(x));
}

void SoftmaxHead::proba_batch(const float* x, std::size_t m,
                              float* proba) const {
  const std::size_t classes = w_.rows();
  gemm_nt(x, m, w_.data(), classes, w_.cols(), proba);
  for (std::size_t i = 0; i < m; ++i) {
    float* row = proba + i * classes;
    for (std::size_t c = 0; c < classes; ++c) row[c] += b_[c];
    softmax_inplace(row, classes);
  }
}

Vector SoftmaxHead::target_grad(const Vector& p, std::size_t target) const {
  Vector dlogits(p.size());
  for (std::size_t c = 0; c < p.size(); ++c) {
    dlogits[c] = p[target] * ((c == target ? 1.0f : 0.0f) - p[c]);
  }
  return matvec_transposed(w_, dlogits);
}

float SoftmaxHead::backward(const Vector& x, std::size_t label, Vector& dx) {
  const Vector z = logits(x);
  const float loss = cross_entropy(z, label);
  const Vector dlogits = cross_entropy_grad(z, label);
  add_outer(w_grad_, 1.0f, dlogits, x);
  for (std::size_t c = 0; c < dlogits.size(); ++c) b_grad_[c] += dlogits[c];
  dx = matvec_transposed(w_, dlogits);
  return loss;
}

void SoftmaxHead::append_params(std::vector<ParamRef>& refs) {
  refs.push_back({w_.data(), w_grad_.data(), w_.size()});
  refs.push_back({b_.data(), b_grad_.data(), b_.size()});
}

void SoftmaxHead::zero_grad() {
  w_grad_.fill(0.0f);
  std::fill(b_grad_.begin(), b_grad_.end(), 0.0f);
}

}  // namespace advtext
