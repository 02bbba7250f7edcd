// One-layer GRU text classifier (Cho et al. 2014).
//
// A second recurrent victim family beyond the paper's LSTM: the attacks
// only touch the TextClassifier interface, so the GRU drops in anywhere
// the benches use the LSTM. Full manual BPTT (training + per-word input
// gradients) and the prefix-cached SwapEvaluator it shares with the LSTM
// (RecurrentSwapEvaluator).
//
// Gate equations (n = h_{t-1}):
//   z = σ(Wz x + Uz n + bz)            update gate
//   r = σ(Wr x + Ur n + br)            reset gate
//   h~ = tanh(Wh x + Uh (r∘n) + bh)    candidate state
//   h = (1-z)∘n + z∘h~
#pragma once

#include <cstdint>
#include <memory>

#include "src/nn/embedding.h"
#include "src/nn/text_classifier.h"
#include "src/util/rng.h"

namespace advtext {

struct GruConfig {
  std::size_t embed_dim = 16;
  std::size_t hidden = 24;
  std::size_t num_classes = 2;
  float train_dropout = 0.05f;
  std::uint64_t seed = 1;
};

class GruClassifier final : public TrainableClassifier {
 public:
  GruClassifier(const GruConfig& config, Matrix pretrained_embeddings,
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

  const GruConfig& config() const { return config_; }
  const EmbeddingLayer& embedding() const { return embedding_; }

  // -- Internal recurrence, exposed for the SwapEvaluator -------------------

  // Batched recurrence primitives. Each output element is the same
  // ascending-k dot the scalar step computes, so one step decomposes as
  //   gate_preact_x + gate_preact_zr + step_gates
  //   + gate_preact_cand + step_combine
  // bit-for-bit per row; the evaluator runs each piece as one gemm per
  // timestep across the whole candidate set.

  /// Packs the gate weights for the gate_preact_* members. The caller owns
  /// the buffers and must repack after any weight update; the evaluator
  /// packs at rebase time, when weights are frozen.
  void pack_gate_weights(PackedB* wx, PackedB* uh_zr, PackedB* uh_cand) const;

  /// zx = X * Wx^T for m stacked embedding rows (m x D -> m x 3H).
  void gate_preact_x(const PackedB& wx, const float* x, std::size_t m,
                     float* zx) const;

  /// Recurrent term of the z/r gates: H * U[z;r]^T (m x H -> m x 2H).
  void gate_preact_zr(const PackedB& uh_zr, const float* h, std::size_t m,
                      float* azr) const;

  /// Recurrent term of the candidate gate: RN * Uh^T (m x H -> m x H),
  /// where RN rows are r ∘ h_{t-1} as produced by step_gates.
  void gate_preact_cand(const PackedB& uh_cand, const float* rn,
                        std::size_t m, float* acand) const;

  /// First half of one step for one row: writes the update gate into z
  /// (length hidden) and the reset-gated state r ∘ h into rn.
  void step_gates(const float* zx, const float* azr, const float* h,
                  float* z, float* rn) const;

  /// Second half: folds the candidate state into h in place.
  void step_combine(const float* zx, const float* acand, const float* z,
                    float* h) const;

  /// Batched output head: probabilities for m stacked hidden rows.
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
  struct StepTrace {
    Vector z, r, htilde, h;
  };

  /// One GRU step: consumes embedding row x; updates h in place.
  /// predict_proba's scalar path, the independent reference the batched
  /// primitives are tested against.
  void step(const float* x, Vector& h) const;

  /// Probabilities from a final hidden state.
  Vector proba_from_hidden(const Vector& h) const;

  Vector forward_traced(const TokenSeq& tokens, std::vector<StepTrace>* traces,
                        Matrix* embedded) const;

  /// Backward pass from dh at the final step. `on_grads` receives, per
  /// step t, the gate pre-activation gradients (daz, dar, dah) and n =
  /// h_{t-1}; input gradients go to input_grad when non-null.
  template <typename OnGrads>
  void bptt(const std::vector<StepTrace>& traces, Vector dh_final,
            OnGrads&& on_grads, Matrix* input_grad) const;

  GruConfig config_;
  EmbeddingLayer embedding_;

  // Gate weight rows are stacked: [z; r; h~], each hidden x {D or H}.
  Matrix wx_;        // 3H x D
  Matrix wx_grad_;
  Matrix uh_;        // 3H x H
  Matrix uh_grad_;
  Vector b_;         // 3H
  Vector b_grad_;
  Matrix out_w_;     // C x H
  Matrix out_w_grad_;
  Vector out_b_;     // C
  Vector out_b_grad_;

  mutable Rng rng_;
};

}  // namespace advtext
