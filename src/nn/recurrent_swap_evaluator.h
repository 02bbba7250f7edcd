// Prefix-cached swap evaluator shared by the recurrent classifiers (LSTM,
// GRU).
//
// Rebase runs the base document once and keeps the recurrent state after
// every prefix, and every base token's input pre-activation. A scored row
// (a swap, or a token sequence of the base's length) equals the base up to
// its first differing position p, so it starts from the cached state at p
// and only the suffix recurrence runs. Rows are sorted by p and dealt
// round-robin into shares, one per CPU the batch can keep busy (at least
// kMinRowsPerShare rows each), which parallel_for runs at once. Within a
// share the rows in flight are a growing prefix of its order: at each
// timestep one gemm gives every active row's recurrent pre-activation, and
// the rows that read the base's token there (every swap past its position)
// take its input pre-activation from the rebase. A swap is a row that
// differs from the base only at its position, so swaps and tokens rows run
// the same loop, and the per-candidate hooks are one-row calls of it. Rows
// of another length fall back to predict_proba. The classifier's head
// scores every row's final hidden state in one batch.
//
// Every piece is one ascending-k dot per output element plus the same
// elementwise passes the cell's scalar step() runs, so each row equals
// predict_proba bit for bit at any batch width and any share count.
//
// Besides what RecurrentClassifier asks of it (recurrent_classifier.h), a
// Cell provides the batched members:
//   struct Scratch;               one share's per-step scratch
//   explicit Cell(const GateWeights&);
//   void pack();                  packs the recurrent weights (at every
//                                 rebase)
//   void reserve(scratch, m);     sizes scratch for m rows
//   void advance(zx, m, state, scratch);
//                                 one step for m rows: zx[j] is row j's
//                                 input pre-activation (its embedding times
//                                 the stacked Wx), state[s] points at m
//                                 stacked rows of state s (in place)
// advance is const: shares run it at once on one Cell.
// Instantiate the evaluator only from the cell's own (-O3) translation
// unit, through RecurrentClassifier::make_swap_evaluator.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "src/nn/recurrent_classifier.h"
#include "src/nn/text_classifier.h"
#include "src/tensor/tensor.h"
#include "src/util/check.h"
#include "src/util/sync.h"

namespace advtext {

/// Fewest rows a share of one scoring batch gets, so a helper's wake-up is
/// paid by enough suffix recurrences: on a 60-token LSTM base, 8 rows took
/// ~110 us in 2 shares against 125-180 us in one, while 4 rows in 2 shares
/// gained nothing.
inline constexpr std::size_t kMinRowsPerShare = 4;

template <typename Cell>
class RecurrentSwapEvaluator final : public SwapEvaluator {
 public:
  using Model = RecurrentClassifier<Cell>;

  RecurrentSwapEvaluator(const Model& model, const TokenSeq& base)
      : model_(model),
        cell_(model.gates()),
        hidden_(model.config().hidden),
        dim_(model.config().embed_dim),
        zx_width_(Cell::kGates * model.config().hidden),
        shares_(parallel_width()),
        one_row_(1, model.num_classes()) {
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& tokens) override {
    ADVTEXT_CHECK_SHAPE(!tokens.empty())
        << "RecurrentSwapEvaluator: empty base";
    const GateWeights& gates = model_.gates();
    gemm_pack_b(gates.wx.data(), gates.wx.rows(), gates.wx.cols(), wx_);
    cell_.pack();
    const std::size_t n = tokens.size();
    // prefix_[s] row t = state s after consuming tokens[0..t-1]. Only the
    // recurrent term is sequential: every step's input pre-activation
    // comes from one gemm over the whole document.
    for (Matrix& state : prefix_) state = Matrix(n + 1, hidden_);
    const Matrix emb = model_.embedding().lookup(tokens);
    base_zx_ = Matrix(n, zx_width_);
    gemm_nt_packed(emb.data(), n, wx_, base_zx_.data());
    typename Cell::Scratch& scratch = shares_[0].cell;
    cell_.reserve(scratch, 1);
    std::array<float*, Cell::kStates> next;
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t s = 0; s < Cell::kStates; ++s) {
        next[s] = prefix_[s].row(t + 1);
        std::copy(prefix_[s].row(t), prefix_[s].row(t) + hidden_, next[s]);
      }
      const float* zx_t = base_zx_.row(t);
      cell_.advance(&zx_t, 1, next.data(), scratch);
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

  /// One share's scratch: its rows' states, the inputs of its rows off the
  /// base's token, and the cell's per-step scratch.
  struct Share {
    std::array<Matrix, Cell::kStates> state;
    Matrix x, zx;
    std::vector<const float*> zx_row;
    typename Cell::Scratch cell;
  };

  /// Runs every row of batch_ from its cached prefix state to the end of
  /// the document, share by share, then the output head over all of them
  /// in one gemm. Scratch grows here, on the calling thread.
  void score_batch(Matrix& out) {
    const std::size_t count = batch_.size();
    if (count == 0) return;
    std::stable_sort(
        batch_.begin(), batch_.end(),
        [](const Row& a, const Row& b) { return a.first < b.first; });
    const std::size_t shares =
        std::clamp<std::size_t>(count / kMinRowsPerShare, 1, shares_.size());
    const std::size_t rows = (count + shares - 1) / shares;
    for (std::size_t s = 0; s < shares; ++s) {
      Share& share = shares_[s];
      if (share.x.rows() >= rows) continue;
      for (Matrix& state : share.state) state = Matrix(rows, hidden_);
      share.x = Matrix(rows, dim_);
      share.zx = Matrix(rows, zx_width_);
      share.zx_row.resize(rows);
      cell_.reserve(share.cell, rows);
    }
    if (h_.rows() < count) h_ = Matrix(count, hidden_);
    parallel_for(shares,
                 [this, shares](std::size_t s) { score_share(s, shares); });
    const std::size_t classes = model_.num_classes();
    proba_.resize(count * classes);
    model_.head().proba_batch(h_.data(), count, proba_.data());
    for (std::size_t j = 0; j < count; ++j) {
      const float* src = proba_.data() + j * classes;
      std::copy(src, src + classes, out.row(batch_[j].out));
    }
  }

  /// Runs share s of `shares`: the sorted rows s, s + shares,
  /// s + 2 shares, ... Their final hidden states land in their batch_ rows
  /// of h_.
  void score_share(std::size_t s, std::size_t shares) {
    Share& share = shares_[s];
    const std::size_t n = base_tokens_.size();
    const std::size_t count = (batch_.size() - s + shares - 1) / shares;
    const auto row = [&](std::size_t j) -> const Row& {
      return batch_[s + j * shares];
    };
    std::array<float*, Cell::kStates> state;
    for (std::size_t k = 0; k < Cell::kStates; ++k) {
      state[k] = share.state[k].data();
    }
    std::size_t active = 0;
    for (std::size_t t = row(0).first;; ++t) {
      // Rows whose first difference is at t join from the prefix state.
      for (; active < count && row(active).first == t; ++active) {
        for (std::size_t k = 0; k < Cell::kStates; ++k) {
          std::copy(prefix_[k].row(t), prefix_[k].row(t) + hidden_,
                    share.state[k].row(active));
        }
      }
      if (t == n) break;
      // Each active row consumes its own token; the rows on the base's
      // token read its pre-activation from the rebase.
      const WordId base_word = base_tokens_[t];
      std::size_t own = 0;
      for (std::size_t j = 0; j < active; ++j) {
        const WordId w = row(j).token(t, base_word);
        if (w == base_word) {
          share.zx_row[j] = base_zx_.row(t);
          continue;
        }
        const float* x = model_.embedding().vector(w);
        std::copy(x, x + dim_, share.x.row(own));
        share.zx_row[j] = share.zx.row(own++);
      }
      if (own > 0) gemm_nt_packed(share.x.data(), own, wx_, share.zx.data());
      cell_.advance(share.zx_row.data(), active, state.data(), share.cell);
    }
    for (std::size_t j = 0; j < count; ++j) {
      std::copy(share.state[0].row(j), share.state[0].row(j) + hidden_,
                h_.row(s + j * shares));
    }
  }

  const Model& model_;
  PackedB wx_;  ///< the stacked input weights, packed at every rebase
  Cell cell_;
  const std::size_t hidden_;
  const std::size_t dim_;
  const std::size_t zx_width_;
  std::array<Matrix, Cell::kStates> prefix_;
  Matrix base_zx_;  ///< row t: the base token t's input pre-activation

  // Batch scratch, reused across rounds; shares read it, each writes only
  // its own Share and its rows of h_.
  std::vector<Row> batch_;
  std::vector<Share> shares_;
  Matrix h_;  ///< final hidden state per sorted row
  Vector proba_;
  Matrix one_row_;
};

}  // namespace advtext
