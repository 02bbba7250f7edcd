// One-layer recurrent text classifier: embedding -> recurrent cell over the
// tokens -> dense softmax head (SoftmaxHead) on the final hidden state, with
// inverted dropout on that state while training. Full backpropagation
// through time is implemented by hand, both for training and for the
// per-word input-embedding gradients that drive the attacks.
//
// The classifier is a template over its cell, the part that differs
// between families (LstmCell in lstm.h, GruCell in gru.h). The template
// owns the embedding, the stacked gate weights and their gradients, the
// head and the dropout RNG, and runs the forward pass, the BPTT driver
// with the gate-weight gradient sums, training and the swap evaluator
// (RecurrentSwapEvaluator). A Cell provides:
//   static constexpr kStates;  state vectors per row, h first
//   static constexpr kGates;   gate blocks stacked in GateWeights
//   struct Trace;              one step's activations, kept for BPTT
//   static void init_bias(b, hidden);
//   static void step(w, x, state, trace);
//       one step of the scalar recurrence on embedding row x, updating
//       state in place and recording the step in *trace when trace is not
//       null; predict_proba's path, the reference the batched members are
//       tested against
//   static void backward_step(w, trace, prev, dstate, dz, dx);
//       one BPTT step: dstate holds dL/d(state after the step) and is left
//       holding dL/d(state before it); dz receives the gate pre-activation
//       gradients (kGates * hidden, stacked like the weights); dL/dx is
//       added into dx when it is not null. prev is the previous step's
//       trace, null at the first step (zero state)
//   static const float* recurrent_input(trace, prev, gate);
//       the vector gate `gate`'s recurrent weights multiplied at the step
//       (only asked when prev is not null)
// plus the batched members RecurrentSwapEvaluator calls (its header).
//
// The member definitions live in recurrent_classifier_impl.h, which only
// the cells' own (-O3) translation units include; each explicitly
// instantiates its classifier, and the family headers declare that
// instantiation extern.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/embedding.h"
#include "src/nn/softmax_head.h"
#include "src/nn/text_classifier.h"
#include "src/util/rng.h"

namespace advtext {

struct RecurrentConfig {
  std::size_t embed_dim = 16;
  std::size_t hidden = 24;       ///< paper: 512; scaled down (DESIGN.md §4)
  std::size_t num_classes = 2;
  float train_dropout = 0.05f;   ///< dropout on the final hidden state
  std::uint64_t seed = 1;
};

/// A cell's gate weights, stacked gate by gate: rows [g H, (g + 1) H) of wx,
/// wh and b belong to gate g. The classifier keeps its gradients in a
/// second instance of the same shape.
struct GateWeights {
  GateWeights(std::size_t gates, std::size_t hidden, std::size_t embed_dim)
      : wx(gates * hidden, embed_dim),
        wh(gates * hidden, hidden),
        b(gates * hidden, 0.0f) {}

  std::size_t hidden() const { return wh.cols(); }

  Matrix wx;  ///< kGates H x D
  Matrix wh;  ///< kGates H x H
  Vector b;   ///< kGates H
};

template <typename Cell>
class RecurrentClassifier final : public TrainableClassifier {
 public:
  RecurrentClassifier(const RecurrentConfig& config,
                      Matrix pretrained_embeddings,
                      bool freeze_embedding = true);

  std::size_t num_classes() const override { return config_.num_classes; }
  std::size_t embedding_dim() const override { return config_.embed_dim; }
  const Matrix& embedding_table() const override {
    return embedding_.table();
  }

  Vector predict_proba(const TokenSeq& tokens) const override;
  Matrix input_gradient(const TokenSeq& tokens, std::size_t target,
                        Vector* proba = nullptr) const override;
  std::unique_ptr<SwapEvaluator> make_swap_evaluator(
      const TokenSeq& base) const override;

  float forward_backward(const TokenSeq& tokens, std::size_t label) override;
  std::vector<ParamRef> params() override;
  void zero_grad() override;

  // Dropout RNG round-trip for bitwise-identical training resume.
  std::vector<std::uint64_t> stochastic_state() const override {
    return state_words(rng_);
  }
  void set_stochastic_state(const std::vector<std::uint64_t>& words) override {
    set_state_words(rng_, words);
  }

  const RecurrentConfig& config() const { return config_; }
  const EmbeddingLayer& embedding() const { return embedding_; }
  const GateWeights& gates() const { return w_; }
  const SoftmaxHead& head() const { return head_; }

 private:
  using Trace = typename Cell::Trace;

  /// Runs the scalar recurrence over tokens; returns the final hidden
  /// state. Records every step's trace and the embedded rows when asked.
  Vector forward(const TokenSeq& tokens, std::vector<Trace>* traces,
                 Matrix* embedded) const;

  /// Backpropagation through time from dh, the gradient at the final
  /// hidden state. Adds the gate-weight gradients into *grad when grad is
  /// not null (embedded: the forward's embedded rows), and dL/dx_t into row
  /// t of *input_grad when input_grad is not null.
  void bptt(const std::vector<Trace>& traces, Vector dh, GateWeights* grad,
            const Matrix* embedded, Matrix* input_grad) const;

  RecurrentConfig config_;
  EmbeddingLayer embedding_;
  GateWeights w_;
  GateWeights grad_;
  SoftmaxHead head_;
  mutable Rng rng_;  // training dropout
};

}  // namespace advtext
