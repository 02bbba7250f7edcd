// Member definitions of RecurrentClassifier<Cell> (recurrent_classifier.h).
// Include only from a cell's own translation unit (lstm.cpp, gru.cpp),
// which explicitly instantiates its classifier: those are built at -O3,
// and any other file that instantiated the template would compile it at
// the default level with the linker keeping one copy of its choosing.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "src/nn/recurrent_classifier.h"
#include "src/nn/recurrent_swap_evaluator.h"
#include "src/util/check.h"

namespace advtext {

template <typename Cell>
RecurrentClassifier<Cell>::RecurrentClassifier(const RecurrentConfig& config,
                                               Matrix pretrained_embeddings,
                                               bool freeze_embedding)
    : config_(config),
      embedding_(std::move(pretrained_embeddings)),
      w_(Cell::kGates, config.hidden, config.embed_dim),
      grad_(Cell::kGates, config.hidden, config.embed_dim),
      head_(config.hidden, config.num_classes),
      rng_(config.seed) {
  ADVTEXT_CHECK_SHAPE(embedding_.dim() == config_.embed_dim)
      << "RecurrentClassifier: embedding dim mismatch";
  embedding_.set_frozen(freeze_embedding);
  const float bx = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(config.embed_dim + config.hidden)));
  w_.wx.fill_uniform(rng_, bx);
  const float bh = static_cast<float>(
      std::sqrt(3.0 / static_cast<double>(config.hidden)));
  w_.wh.fill_uniform(rng_, bh);
  Cell::init_bias(w_.b, config.hidden);
  head_.init(rng_);
}

template <typename Cell>
Vector RecurrentClassifier<Cell>::forward(const TokenSeq& tokens,
                                          std::vector<Trace>* traces,
                                          Matrix* embedded) const {
  ADVTEXT_CHECK_SHAPE(!tokens.empty()) << "RecurrentClassifier: empty input";
  Matrix emb = embedding_.lookup(tokens);
  std::array<Vector, Cell::kStates> state;
  for (Vector& s : state) s.assign(config_.hidden, 0.0f);
  if (traces != nullptr) traces->resize(tokens.size());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    Cell::step(w_, emb.row(t), state,
               traces != nullptr ? &(*traces)[t] : nullptr);
  }
  if (embedded != nullptr) *embedded = std::move(emb);
  return std::move(state[0]);
}

template <typename Cell>
Vector RecurrentClassifier<Cell>::predict_proba(const TokenSeq& tokens) const {
  return head_.proba(forward(tokens, nullptr, nullptr));
}

template <typename Cell>
void RecurrentClassifier<Cell>::bptt(const std::vector<Trace>& traces,
                                     Vector dh, GateWeights* grad,
                                     const Matrix* embedded,
                                     Matrix* input_grad) const {
  const std::size_t hidden = config_.hidden;
  const std::size_t rows = Cell::kGates * hidden;
  std::array<Vector, Cell::kStates> dstate;
  dstate[0] = std::move(dh);
  for (std::size_t s = 1; s < Cell::kStates; ++s) {
    dstate[s].assign(hidden, 0.0f);
  }
  Vector dz(rows);
  for (std::size_t t = traces.size(); t-- > 0;) {
    const Trace* prev = t > 0 ? &traces[t - 1] : nullptr;
    Cell::backward_step(w_, traces[t], prev, dstate, dz.data(),
                        input_grad != nullptr ? input_grad->row(t) : nullptr);
    if (grad == nullptr) continue;
    // Each element gets one add per step, so the row order is free.
    const float* x = embedded->row(t);
    for (std::size_t r = 0; r < rows; ++r) {
      const float dzr = dz[r];
      if (dzr == 0.0f) continue;
      float* wxg = grad->wx.row(r);
      for (std::size_t d = 0; d < config_.embed_dim; ++d) wxg[d] += dzr * x[d];
      if (prev != nullptr) {
        const float* in = Cell::recurrent_input(traces[t], *prev, r / hidden);
        float* whg = grad->wh.row(r);
        for (std::size_t j = 0; j < hidden; ++j) whg[j] += dzr * in[j];
      }
      grad->b[r] += dzr;
    }
  }
}

template <typename Cell>
Matrix RecurrentClassifier<Cell>::input_gradient(const TokenSeq& tokens,
                                                 std::size_t target,
                                                 Vector* proba) const {
  ADVTEXT_CHECK_SHAPE(target < config_.num_classes)
      << "RecurrentClassifier::input_gradient: target out of range";
  std::vector<Trace> traces;
  const Vector p = head_.proba(forward(tokens, &traces, nullptr));
  if (proba != nullptr) *proba = p;
  Matrix grad(tokens.size(), config_.embed_dim);
  bptt(traces, head_.target_grad(p, target), nullptr, nullptr, &grad);
  return grad;
}

template <typename Cell>
float RecurrentClassifier<Cell>::forward_backward(const TokenSeq& tokens,
                                                  std::size_t label) {
  ADVTEXT_CHECK_SHAPE(label < config_.num_classes)
      << "RecurrentClassifier::forward_backward: label out of range";
  std::vector<Trace> traces;
  Matrix embedded;
  Vector h = forward(tokens, &traces, &embedded);
  const std::vector<float> mask =
      dropout_mask(rng_, config_.train_dropout, config_.hidden);
  for (std::size_t j = 0; j < config_.hidden; ++j) h[j] *= mask[j];
  Vector dh;
  const float loss = head_.backward(h, label, dh);
  for (std::size_t j = 0; j < config_.hidden; ++j) dh[j] *= mask[j];

  const bool train_embedding = !embedding_.frozen();
  Matrix input_grad(tokens.size(), config_.embed_dim);
  bptt(traces, std::move(dh), &grad_, &embedded,
       train_embedding ? &input_grad : nullptr);
  if (train_embedding) {
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      embedding_.accumulate_grad(tokens[t], input_grad.row(t));
    }
  }
  return loss;
}

template <typename Cell>
std::vector<ParamRef> RecurrentClassifier<Cell>::params() {
  std::vector<ParamRef> refs = {
      {w_.wx.data(), grad_.wx.data(), w_.wx.size()},
      {w_.wh.data(), grad_.wh.data(), w_.wh.size()},
      {w_.b.data(), grad_.b.data(), w_.b.size()},
  };
  head_.append_params(refs);
  if (!embedding_.frozen()) {
    refs.push_back({embedding_.mutable_table().data(),
                    embedding_.grad().data(),
                    embedding_.mutable_table().size()});
  }
  return refs;
}

template <typename Cell>
void RecurrentClassifier<Cell>::zero_grad() {
  grad_.wx.fill(0.0f);
  grad_.wh.fill(0.0f);
  std::fill(grad_.b.begin(), grad_.b.end(), 0.0f);
  head_.zero_grad();
  embedding_.zero_grad();
}

template <typename Cell>
std::unique_ptr<SwapEvaluator> RecurrentClassifier<Cell>::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<RecurrentSwapEvaluator<Cell>>(*this, base);
}

}  // namespace advtext
