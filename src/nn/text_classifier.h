// Abstract classifier interface consumed by the attack algorithms.
//
// Every attack in the paper needs exactly two oracles from the victim model:
//   * Cy(V(x))           — predicted probability of the target class, and
//   * ∇Cy w.r.t. V(x)    — the gradient of that probability with respect to
//                          each input word's embedding vector (used by the
//                          gradient baseline [18] and the Gauss–Southwell
//                          word selection of Alg. 3).
//
// The SwapEvaluator extension exposes the structure greedy attacks exploit:
// consecutive candidate evaluations differ from a base document in a single
// position, so models can cache per-document state (conv feature maps for
// the WCNN, hidden-state prefixes for the LSTM and GRU) instead of running
// a full forward per candidate.
//
// SwapEvaluator is a non-virtual shell over protected do_* hooks. The shell
// owns everything the attacks must agree on regardless of model family:
//   * query counting: every evaluated row is one query, whichever entry
//     point scored it (a repeat or an in-batch duplicate included);
//   * row admission: each row is admitted by the bound AttackControl's
//     try_charge() before it is computed, so no row runs past the budget;
//   * deadline/budget truncation for batched sweeps (deadline, then
//     budget, checked before every row; a truncated batch returns the
//     number of rows actually evaluated).
//
// Models implement do_eval_swap / do_eval_tokens (per-candidate) and may
// override the do_*_batch hooks with stacked-gemm versions; the default
// batch hooks loop the per-candidate path. The WCNN and recurrent
// evaluators run their per-candidate hooks as one-row batches, so both
// paths share one implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/text/corpus.h"
#include "src/util/robust.h"

namespace advtext {

/// One single-position swap against the evaluator's base document.
struct SwapCandidate {
  std::size_t pos = 0;
  WordId word = 0;
};

/// Outcome of a batched evaluation sweep. `evaluated` rows (a prefix of the
/// request) were filled; at most one truncation flag is set, recording which
/// limit fired at the first unevaluated row — the same deadline-first
/// classification the per-candidate loops make, so attacks report identical
/// termination reasons on the batched path.
struct BatchStatus {
  std::size_t evaluated = 0;
  bool out_of_time = false;
  bool out_of_budget = false;

  bool truncated() const { return out_of_time || out_of_budget; }
};

/// Incremental evaluator for single-position word swaps against a cached
/// base document. Obtain via TextClassifier::make_swap_evaluator.
class SwapEvaluator {
 public:
  virtual ~SwapEvaluator() = default;

  /// Re-caches state for a new base document (call after committing a swap).
  void rebase(const TokenSeq& tokens);

  /// Class-probability vector for the base document with position `pos`
  /// replaced by word `candidate`. Does not modify the base. Throws if a
  /// bound budget refuses the row.
  Vector eval_swap(std::size_t pos, WordId candidate);

  /// Class-probability vector for an arbitrary token sequence (used for
  /// multi-position candidates in Alg. 3). Throws if a bound budget
  /// refuses the row.
  Vector eval_tokens(const TokenSeq& tokens);

  /// eval_tokens for a row the budget may refuse (an attack's anchor or
  /// re-anchor): fills `out` and returns true when the row is admitted,
  /// returns false with nothing computed when it is not. Single rows do
  /// not poll the deadline; a search polls it per batched row.
  [[nodiscard]] bool try_eval_tokens(const TokenSeq& tokens, Vector& out);

  /// Scores candidates[0..count) in order, one `out` row per candidate.
  /// Honors the bound AttackControl: before every row the deadline is
  /// polled and the row admitted against the budget; on a limit hit the
  /// sweep truncates and the status reports how many rows were actually
  /// evaluated (rows past it are untouched) and which limit fired. Every
  /// evaluated row is one query and one charge.
  BatchStatus eval_swap_batch(const SwapCandidate* candidates,
                              std::size_t count, Matrix& out);
  BatchStatus eval_swap_batch(const std::vector<SwapCandidate>& candidates,
                              Matrix& out);

  /// Batched eval_tokens with the same truncation/charging contract.
  BatchStatus eval_tokens_batch(const TokenSeq* docs, std::size_t count,
                                Matrix& out);
  BatchStatus eval_tokens_batch(const std::vector<TokenSeq>& docs,
                                Matrix& out);

  /// Binds the shared attack controls (deadline + query budget). Attacks
  /// bind once right after creating the evaluator; the control must
  /// outlive the evaluator's use. Unbound evaluators run unlimited (the
  /// analyzer's uncharged-forward rule pins that every attack entry point
  /// either binds or charges explicitly).
  void bind_control(const AttackControl* control);

  /// Number of rows evaluated (query-count metric). With a budget bound,
  /// each was one charge.
  std::size_t queries() const { return queries_; }

 protected:
  virtual std::size_t do_num_classes() const = 0;
  virtual void do_rebase(const TokenSeq& tokens) = 0;
  virtual Vector do_eval_swap(std::size_t pos, WordId candidate) = 0;
  virtual Vector do_eval_tokens(const TokenSeq& tokens) = 0;

  /// Batched hooks: compute candidates[m] into out.row(rows[m]) for
  /// m in [0, count). The shell passes the evaluated prefix of the request
  /// with rows[m] == m. Defaults loop the per-candidate hooks; models
  /// override with stacked-gemm implementations. Implementations must be
  /// bit-identical to the per-candidate path and must consume any
  /// stochastic state (MC-dropout RNG) in row order.
  virtual void do_eval_swap_batch(const SwapCandidate* candidates,
                                  const std::size_t* rows, std::size_t count,
                                  Matrix& out);
  virtual void do_eval_tokens_batch(const TokenSeq* const* docs,
                                    const std::size_t* rows,
                                    std::size_t count, Matrix& out);

  /// Current base document, kept by the shell. Valid inside do_* hooks
  /// (set before do_rebase runs).
  TokenSeq base_tokens_;

 private:
  /// Admits one row against the bound budget (try_charge) and counts it
  /// as a query; false, counting nothing, when the budget refuses it.
  bool admit_row();
  /// Sizes `out` to count x classes, then admits rows in request order:
  /// per row it polls the deadline, then admit_row(). Stops at the first
  /// limit.
  BatchStatus admit(std::size_t count, Matrix& out);

  const AttackControl* control_ = nullptr;
  std::size_t queries_ = 0;

  // Reused batch scratch (hot path: one batch per greedy round): the
  // identity row map and the row pointers the tokens hook takes.
  std::vector<std::size_t> rows_;
  std::vector<const TokenSeq*> docs_;
};

/// Text classifier over token-id sequences.
class TextClassifier {
 public:
  virtual ~TextClassifier() = default;

  virtual std::size_t num_classes() const = 0;
  virtual std::size_t embedding_dim() const = 0;

  /// The word-embedding table (vocab x embedding_dim). The gradient attack
  /// needs it to score candidate replacements against ∇C_y.
  virtual const Matrix& embedding_table() const = 0;

  /// Class-probability vector. Non-const models (MC dropout) use an
  /// internal mutable RNG, so repeated calls may differ when enabled.
  virtual Vector predict_proba(const TokenSeq& tokens) const = 0;

  /// Batched predict_proba: one row per document, in row order. This loop
  /// is the only implementation; it stays virtual so wrappers (perfbench's
  /// tracing classifier) can intercept it.
  virtual Matrix predict_proba_batch(const std::vector<TokenSeq>& docs) const;

  /// Probability of a single class.
  double class_probability(const TokenSeq& tokens, std::size_t label) const {
    return predict_proba(tokens)[label];
  }

  /// argmax class.
  std::size_t predict(const TokenSeq& tokens) const;

  /// Gradient of the target-class probability with respect to each word's
  /// embedding: an n x embedding_dim matrix (row i = ∇_i Cy). If `proba`
  /// is non-null it receives the forward probabilities.
  virtual Matrix input_gradient(const TokenSeq& tokens, std::size_t target,
                                Vector* proba = nullptr) const = 0;

  /// Creates a swap evaluator seeded with the given base document. The
  /// default implementation performs a full forward per evaluation;
  /// concrete models override with cached incremental versions.
  virtual std::unique_ptr<SwapEvaluator> make_swap_evaluator(
      const TokenSeq& base) const;
};

/// Raw parameter view used by the optimizer: a contiguous value buffer and
/// its gradient accumulator of equal length.
struct ParamRef {
  float* value = nullptr;
  float* grad = nullptr;
  std::size_t size = 0;
};

/// Classifier that supports gradient training via backprop.
class TrainableClassifier : public TextClassifier {
 public:
  /// Runs forward + backward for one example, accumulating parameter
  /// gradients; returns the cross-entropy loss.
  virtual float forward_backward(const TokenSeq& tokens,
                                 std::size_t label) = 0;

  /// All trainable parameters (frozen tensors are excluded).
  virtual std::vector<ParamRef> params() = 0;

  /// Clears accumulated gradients.
  virtual void zero_grad() = 0;

  /// Internal stochastic state (train-time dropout RNG streams) as raw
  /// 64-bit words. Training snapshots round-trip it so a resumed run draws
  /// the same dropout masks and replays bitwise. Default: stateless.
  virtual std::vector<std::uint64_t> stochastic_state() const { return {}; }
  virtual void set_stochastic_state(
      const std::vector<std::uint64_t>& /*words*/) {}
};

}  // namespace advtext
