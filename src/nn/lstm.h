// One-layer LSTM text classifier (Hochreiter & Schmidhuber 1997), as used
// in the paper: embedding -> LSTM -> fully connected softmax on the final
// hidden state. Full backpropagation-through-time is implemented by hand,
// both for training and for the per-word input-embedding gradients that
// drive the attacks.
//
// The SwapEvaluator (RecurrentSwapEvaluator, shared with the GRU) caches
// the hidden/cell state trajectory of the base document; a candidate that
// first differs at position p only needs the suffix recurrence from p,
// roughly halving the cost of the massive candidate sweeps in the greedy
// attacks.
#pragma once

#include <cstdint>
#include <memory>

#include "src/nn/embedding.h"
#include "src/nn/text_classifier.h"
#include "src/util/rng.h"

namespace advtext {

struct LstmConfig {
  std::size_t embed_dim = 16;
  std::size_t hidden = 32;       ///< paper: 512; scaled down (DESIGN.md §4)
  std::size_t num_classes = 2;
  float train_dropout = 0.05f;   ///< dropout on the final hidden state
  std::uint64_t seed = 1;
};

class LstmClassifier final : public TrainableClassifier {
 public:
  LstmClassifier(const LstmConfig& config, Matrix pretrained_embeddings,
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

  const LstmConfig& config() const { return config_; }
  const EmbeddingLayer& embedding() const { return embedding_; }

  // -- Internal recurrence, exposed for the SwapEvaluator -------------------

  // Batched recurrence primitives. Every output element is the same
  // ascending-k dot the scalar step computes, so
  //   gate_preact_x + gate_preact_h + step_from_preact == step
  // bit-for-bit per row; the evaluator stacks rows so each piece is one
  // gemm per timestep instead of 8H small dots per candidate.

  /// Packs the gate weights for gate_preact_x/h. The caller owns the
  /// buffers and must repack after any weight update; the evaluator packs
  /// at rebase time, when weights are frozen.
  void pack_gate_weights(PackedB* wx, PackedB* wh) const;

  /// zx = X * Wx^T for m stacked embedding rows (m x D -> m x 4H).
  void gate_preact_x(const PackedB& wx, const float* x, std::size_t m,
                     float* zx) const;

  /// zh = H * Wh^T for m stacked hidden rows (m x H -> m x 4H).
  void gate_preact_h(const PackedB& wh, const float* h, std::size_t m,
                     float* zh) const;

  /// One step for one row from precomputed pre-activations; updates the
  /// raw h and c rows (length hidden) in place. Built for AVX2 and for the
  /// baseline ISA and picked per CPU (ADVTEXT_AVX2_CLONES), same bits.
  void step_from_preact(const float* zx, const float* zh, float* h,
                        float* c) const;

  /// Batched output head: class probabilities for m stacked hidden rows,
  /// written row-major into proba (m x num_classes).
  void proba_from_hidden_batch(const float* h, std::size_t m,
                               float* proba) const;

  // Dropout RNG round-trip for bitwise-identical training resume.
  std::vector<std::uint64_t> stochastic_state() const override {
    const RngState s = rng_.state();
    return {s.begin(), s.end()};
  }
  void set_stochastic_state(const std::vector<std::uint64_t>& words) override {
    RngState s{};
    for (std::size_t i = 0; i < s.size() && i < words.size(); ++i)
      s[i] = words[i];
    rng_.set_state(s);
  }

 private:
  /// Per-step activations recorded during the stateful forward pass.
  struct StepTrace {
    Vector i, f, g, o, c, tanh_c, h;
  };

  /// One LSTM step: consumes embedding row x (dim D) and state (h, c);
  /// writes the next state in place. predict_proba's scalar path, the
  /// independent reference the batched primitives are tested against.
  void step(const float* x, Vector& h, Vector& c) const;

  /// Probabilities from a final hidden state.
  Vector proba_from_hidden(const Vector& h) const;

  /// Forward pass recording traces; returns final probabilities.
  Vector forward_traced(const TokenSeq& tokens, std::vector<StepTrace>* traces,
                        Matrix* embedded) const;

  /// Shared backpropagation-through-time core. Starting from dh at the
  /// final step, walks the recurrence backwards; for every step it invokes
  /// `on_step(t, dz, h_prev)` (used by training to accumulate parameter
  /// gradients) and, when input_grad is non-null, writes dL/dx_t into its
  /// rows. Const: touches no member gradient buffers itself.
  template <typename OnStep>
  void bptt(const std::vector<StepTrace>& traces, Vector dh_final,
            OnStep&& on_step, Matrix* input_grad) const;

  LstmConfig config_;
  EmbeddingLayer embedding_;

  Matrix wx_;        // 4H x D   (gate order: i, f, g, o)
  Matrix wx_grad_;
  Matrix wh_;        // 4H x H
  Matrix wh_grad_;
  Vector b_;         // 4H
  Vector b_grad_;
  Matrix out_w_;     // C x H
  Matrix out_w_grad_;
  Vector out_b_;     // C
  Vector out_b_grad_;

  mutable Rng rng_;
};

}  // namespace advtext
