// Prefix-cached swap evaluator shared by the recurrent classifiers (LSTM,
// GRU).
//
// Rebase runs the base document once and keeps the recurrent state after
// every prefix. A scored row (a swap, or a token sequence of the base's
// length) equals the base up to its first differing position p, so it
// starts from the cached state at p and only the suffix recurrence runs.
// Rows are sorted by p, so the rows in flight are a growing prefix of that
// order: at each timestep one gemm gives every active row's recurrent
// pre-activation, and the rows that read the base's token there (every
// swap past its position) share one input pre-activation. A swap is a row
// that differs from the base only at its position, so swaps and tokens
// rows run the same loop, and the per-candidate hooks are one-row calls of
// it. Rows of another length fall back to predict_proba.
//
// Every piece is one ascending-k dot per output element plus the same
// elementwise passes the model's scalar step() runs, so each row equals
// predict_proba bit for bit at any batch width.
//
// A Cell adapts one model family:
//   using Model;                  the classifier
//   static constexpr kStates;     state vectors per row, h first
//   static constexpr kGates;      input pre-activation width / hidden
//   explicit Cell(const Model&);
//   void pack();                  packs the gate weights (at every rebase)
//   void input_preact(x, m, zx);  zx = X * Wx^T for m stacked inputs
//   void advance(zx, m, state);   one step for m rows: zx[j] is row j's
//                                 input pre-activation, state[s] points at
//                                 m stacked rows of state s (in place)
// Include this header only from the model's own (-O3) translation unit.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "src/nn/text_classifier.h"
#include "src/tensor/tensor.h"
#include "src/util/check.h"

namespace advtext {

template <typename Cell>
class RecurrentSwapEvaluator final : public SwapEvaluator {
 public:
  using Model = typename Cell::Model;

  RecurrentSwapEvaluator(const Model& model, const TokenSeq& base)
      : model_(model),
        cell_(model),
        hidden_(model.config().hidden),
        dim_(model.config().embed_dim),
        zx_width_(Cell::kGates * model.config().hidden),
        one_row_(1, model.num_classes()) {
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& tokens) override {
    ADVTEXT_CHECK_SHAPE(!tokens.empty())
        << "RecurrentSwapEvaluator: empty base";
    cell_.pack();
    const std::size_t n = tokens.size();
    // prefix_[s] row t = state s after consuming tokens[0..t-1]. Only the
    // recurrent term is sequential: every step's input pre-activation
    // comes from one gemm over the whole document.
    for (Matrix& state : prefix_) state = Matrix(n + 1, hidden_);
    const Matrix emb = model_.embedding().lookup(tokens);
    Matrix zx(n, zx_width_);
    cell_.input_preact(emb.data(), n, zx.data());
    std::array<float*, Cell::kStates> next;
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t s = 0; s < Cell::kStates; ++s) {
        next[s] = prefix_[s].row(t + 1);
        std::copy(prefix_[s].row(t), prefix_[s].row(t) + hidden_, next[s]);
      }
      const float* zx_t = zx.row(t);
      cell_.advance(&zx_t, 1, next.data());
    }
  }

  // The per-candidate hooks are one-row calls of the batch paths.
  Vector do_eval_swap(std::size_t pos, WordId candidate) override {
    const SwapCandidate row_candidate{pos, candidate};
    const std::size_t row = 0;
    do_eval_swap_batch(&row_candidate, &row, 1, one_row_);
    return one_row_.row_copy(0);
  }

  Vector do_eval_tokens(const TokenSeq& tokens) override {
    const TokenSeq* doc = &tokens;
    const std::size_t row = 0;
    do_eval_tokens_batch(&doc, &row, 1, one_row_);
    return one_row_.row_copy(0);
  }

  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    batch_.clear();
    for (std::size_t m = 0; m < count; ++m) {
      batch_.push_back(
          {candidates[m].pos, nullptr, candidates[m].word, rows[m]});
    }
    score_batch(out);
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    const std::size_t n = base_tokens_.size();
    batch_.clear();
    for (std::size_t m = 0; m < count; ++m) {
      const TokenSeq& doc = *docs[m];
      if (doc.size() != n) {
        // No shared prefix state to start from: a full forward.
        const Vector proba = model_.predict_proba(doc);
        std::copy(proba.begin(), proba.end(), out.row(rows[m]));
        continue;
      }
      std::size_t first = 0;
      while (first < n && doc[first] == base_tokens_[first]) ++first;
      batch_.push_back({first, doc.data(), 0, rows[m]});
    }
    score_batch(out);
  }

 private:
  /// One scored row of the base's length.
  struct Row {
    std::size_t first;     ///< first position that differs (n: none)
    const WordId* tokens;  ///< a tokens row; null for a swap
    WordId word;           ///< a swap's word at `first`
    std::size_t out;       ///< output row

    WordId token(std::size_t t, WordId base) const {
      if (tokens != nullptr) return tokens[t];
      return t == first ? word : base;
    }
  };

  /// Runs every row of batch_ from its cached prefix state to the end of
  /// the document, then the output head over all of them in one gemm.
  void score_batch(Matrix& out) {
    const std::size_t count = batch_.size();
    if (count == 0) return;
    const std::size_t n = base_tokens_.size();
    std::stable_sort(
        batch_.begin(), batch_.end(),
        [](const Row& a, const Row& b) { return a.first < b.first; });
    if (x_.rows() < count) {
      for (Matrix& state : state_) state = Matrix(count, hidden_);
      x_ = Matrix(count, dim_);
      zx_ = Matrix(count, zx_width_);
    }
    zx_base_.resize(zx_width_);
    zx_row_.resize(count);
    std::array<float*, Cell::kStates> state;
    for (std::size_t s = 0; s < Cell::kStates; ++s) {
      state[s] = state_[s].data();
    }
    std::size_t active = 0;
    for (std::size_t t = batch_[0].first;; ++t) {
      // Rows whose first difference is at t join from the prefix state.
      for (; active < count && batch_[active].first == t; ++active) {
        for (std::size_t s = 0; s < Cell::kStates; ++s) {
          std::copy(prefix_[s].row(t), prefix_[s].row(t) + hidden_,
                    state_[s].row(active));
        }
      }
      if (t == n) break;
      // Each active row consumes its own token; the rows on the base's
      // token share one input pre-activation.
      const WordId base_word = base_tokens_[t];
      std::size_t own = 0;
      bool shared = false;
      for (std::size_t j = 0; j < active; ++j) {
        const WordId w = batch_[j].token(t, base_word);
        if (w == base_word) {
          zx_row_[j] = zx_base_.data();
          shared = true;
          continue;
        }
        const float* x = model_.embedding().vector(w);
        std::copy(x, x + dim_, x_.row(own));
        zx_row_[j] = zx_.row(own++);
      }
      if (own > 0) cell_.input_preact(x_.data(), own, zx_.data());
      if (shared) {
        cell_.input_preact(model_.embedding().vector(base_word), 1,
                           zx_base_.data());
      }
      cell_.advance(zx_row_.data(), active, state.data());
    }
    const std::size_t classes = model_.num_classes();
    proba_.resize(count * classes);
    model_.proba_from_hidden_batch(state_[0].data(), count, proba_.data());
    for (std::size_t j = 0; j < count; ++j) {
      const float* src = proba_.data() + j * classes;
      std::copy(src, src + classes, out.row(batch_[j].out));
    }
  }

  const Model& model_;
  Cell cell_;
  const std::size_t hidden_;
  const std::size_t dim_;
  const std::size_t zx_width_;
  std::array<Matrix, Cell::kStates> prefix_;

  // Batch scratch, reused across rounds.
  std::vector<Row> batch_;
  std::array<Matrix, Cell::kStates> state_;
  Matrix x_, zx_;
  Vector zx_base_;
  std::vector<const float*> zx_row_;
  Vector proba_;
  Matrix one_row_;
};

}  // namespace advtext
