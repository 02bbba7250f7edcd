// Word-level convolutional text classifier (Kim 2014), as attacked in the
// paper: embedding -> temporal convolution (kernel 3) -> ReLU ->
// max-over-time pooling -> dropout -> fully connected softmax output
// (SoftmaxHead, shared with the recurrent classifiers).
//
// Implements full manual backprop (for training and for the input-embedding
// gradients the attacks need) and an incremental SwapEvaluator: a scored
// row (a word swap, or a token sequence of any length) recomputes only the
// windows between its common prefix and common suffix with the base, and
// the pooled layer is re-assembled from cached prefix / suffix maxima,
// which is what makes the greedy attacks of Section 6 fast.
//
// The paper runs the WCNN with 5% dropout *at inference* (§6.4, MC-dropout
// as a Bayesian approximation); `mc_dropout` reproduces that.
#pragma once

#include <cstdint>
#include <memory>

#include "src/nn/embedding.h"
#include "src/nn/softmax_head.h"
#include "src/nn/text_classifier.h"
#include "src/util/rng.h"

namespace advtext {

struct WCnnConfig {
  std::size_t embed_dim = 16;
  std::size_t num_filters = 64;
  std::size_t kernel = 3;        ///< window size h (paper: 3)
  std::size_t num_classes = 2;
  float train_dropout = 0.05f;   ///< dropout on the pooled layer (training)
  float mc_dropout = 0.0f;       ///< dropout at inference (paper: 0.05)
  std::uint64_t seed = 1;
};

class WCnn final : public TrainableClassifier {
 public:
  /// Builds with a pretrained (frozen by default) embedding table.
  WCnn(const WCnnConfig& config, Matrix pretrained_embeddings,
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

  const WCnnConfig& config() const { return config_; }
  const EmbeddingLayer& embedding() const { return embedding_; }
  const SoftmaxHead& head() const { return head_; }

  /// Toggles inference-time MC dropout (ablation bench).
  void set_mc_dropout(float rate) { config_.mc_dropout = rate; }

  // Dropout RNG round-trip for bitwise-identical training resume.
  std::vector<std::uint64_t> stochastic_state() const override {
    return state_words(rng_);
  }
  void set_stochastic_state(const std::vector<std::uint64_t>& words) override {
    set_state_words(rng_, words);
  }

  // -- Internal forward pieces, exposed for the incremental SwapEvaluator --

  /// Pads a sequence to at least `kernel` tokens with Vocab::kPad.
  TokenSeq padded(const TokenSeq& tokens) const;

  /// Convolution pre-activations: one row per window, one column per filter.
  /// One im2col + window_preact_batch over all windows.
  Matrix conv_preact(const Matrix& embedded) const;

  /// pooled[f] = max over windows of relu(preact). argmax optionally kept.
  Vector max_pool(const Matrix& preact,
                  std::vector<std::size_t>* argmax = nullptr) const;

  /// Applies inference MC dropout (inverted scaling) if configured.
  void apply_mc_dropout(Vector& pooled) const;
  void apply_mc_dropout(float* pooled, std::size_t n) const;

  // Batched forward pieces. Each output element is one ascending-k dot
  // (gemm_nt == dot bit for bit) plus the bias, so every path through them
  // gives the same bits; the evaluator stacks every recomputed window of a
  // whole candidate set into one gemm.

  /// Packs the filter bank for window_preact_batch. The evaluator packs
  /// once at construction: weights are frozen while it lives.
  void pack_filters(PackedB* out) const;

  /// Convolves m stacked windows (m x kernel*D) into pre-activations
  /// (m x F): out(i, f) = dot(filter f, window i) + bias f. `filters`, if
  /// given, is this model's pack_filters() and skips the per-call repack.
  void window_preact_batch(const float* windows, std::size_t m, float* out,
                           const PackedB* filters = nullptr) const;

 private:
  WCnnConfig config_;
  EmbeddingLayer embedding_;

  Matrix conv_w_;       // F x (kernel * D)
  Matrix conv_w_grad_;
  Vector conv_b_;       // F
  Vector conv_b_grad_;
  SoftmaxHead head_;    // C x F

  mutable Rng rng_;     // dropout sampling (training + MC inference)
};

}  // namespace advtext
