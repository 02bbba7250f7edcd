#include "src/nn/wcnn.h"

#include "src/util/check.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace advtext {

WCnn::WCnn(const WCnnConfig& config, Matrix pretrained_embeddings,
           bool freeze_embedding)
    : config_(config),
      embedding_(std::move(pretrained_embeddings)),
      conv_w_(config.num_filters, config.kernel * config.embed_dim),
      conv_w_grad_(config.num_filters, config.kernel * config.embed_dim),
      conv_b_(config.num_filters, 0.0f),
      conv_b_grad_(config.num_filters, 0.0f),
      head_(config.num_filters, config.num_classes),
      rng_(config.seed) {
  ADVTEXT_CHECK_SHAPE(embedding_.dim() == config_.embed_dim) << "WCnn: embedding dim mismatch";
  embedding_.set_frozen(freeze_embedding);
  const float conv_bound = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(config.kernel * config.embed_dim +
                                          config.num_filters)));
  conv_w_.fill_uniform(rng_, conv_bound);
  head_.init(rng_);
}

TokenSeq WCnn::padded(const TokenSeq& tokens) const {
  TokenSeq out = tokens;
  while (out.size() < config_.kernel) out.push_back(Vocab::kPad);
  return out;
}

namespace {

// im2col: the rows of `embedded` are contiguous, so window w is the
// kernel * D floats from row w on; copies all of them into stacked rows.
void im2col(const Matrix& embedded, std::size_t kernel, float* out) {
  const std::size_t span = kernel * embedded.cols();
  for (std::size_t w = 0; w + kernel <= embedded.rows(); ++w) {
    std::copy(embedded.row(w), embedded.row(w) + span, out + w * span);
  }
}

}  // namespace

Matrix WCnn::conv_preact(const Matrix& embedded) const {
  const std::size_t num_windows = embedded.rows() - config_.kernel + 1;
  Matrix windows(num_windows, config_.kernel * config_.embed_dim);
  im2col(embedded, config_.kernel, windows.data());
  Matrix preact(num_windows, config_.num_filters);
  window_preact_batch(windows.data(), num_windows, preact.data());
  return preact;
}

Vector WCnn::max_pool(const Matrix& preact,
                      std::vector<std::size_t>* argmax) const {
  Vector pooled(config_.num_filters,
                -std::numeric_limits<float>::infinity());
  if (argmax != nullptr) argmax->assign(config_.num_filters, 0);
  for (std::size_t i = 0; i < preact.rows(); ++i) {
    const float* row = preact.row(i);
    for (std::size_t f = 0; f < config_.num_filters; ++f) {
      const float a = std::max(0.0f, row[f]);  // ReLU
      if (a > pooled[f]) {
        pooled[f] = a;
        if (argmax != nullptr) (*argmax)[f] = i;
      }
    }
  }
  return pooled;
}

void WCnn::apply_mc_dropout(Vector& pooled) const {
  apply_mc_dropout(pooled.data(), pooled.size());
}

void WCnn::apply_mc_dropout(float* pooled, std::size_t n) const {
  const float p = config_.mc_dropout;
  if (p <= 0.0f) return;
  const float scale = 1.0f / (1.0f - p);
  for (std::size_t f = 0; f < n; ++f) {
    pooled[f] = rng_.bernoulli(p) ? 0.0f : pooled[f] * scale;
  }
}

void WCnn::pack_filters(PackedB* out) const {
  gemm_pack_b(conv_w_.data(), config_.num_filters,
              config_.kernel * config_.embed_dim, *out);
}

void WCnn::window_preact_batch(const float* windows, std::size_t m,
                               float* out, const PackedB* filters) const {
  const std::size_t nf = config_.num_filters;
  if (filters != nullptr) {
    gemm_nt_packed(windows, m, *filters, out);
  } else {
    gemm_nt(windows, m, conv_w_.data(), nf,
            config_.kernel * config_.embed_dim, out);
  }
  for (std::size_t i = 0; i < m; ++i) {
    float* row = out + i * nf;
    for (std::size_t f = 0; f < nf; ++f) row[f] += conv_b_[f];
  }
}

Vector WCnn::predict_proba(const TokenSeq& tokens) const {
  const Matrix embedded = embedding_.lookup(padded(tokens));
  const Matrix preact = conv_preact(embedded);
  Vector pooled = max_pool(preact);
  apply_mc_dropout(pooled);
  return head_.proba(pooled);
}

Matrix WCnn::input_gradient(const TokenSeq& tokens, std::size_t target,
                            Vector* proba) const {
  ADVTEXT_CHECK_SHAPE(target < config_.num_classes) << "WCnn::input_gradient: target out of range";
  const TokenSeq pad_tokens = padded(tokens);
  const Matrix embedded = embedding_.lookup(pad_tokens);
  const Matrix preact = conv_preact(embedded);
  std::vector<std::size_t> argmax;
  Vector pooled = max_pool(preact, &argmax);
  // Inference MC dropout applies to gradient queries too: the attacker
  // differentiates the same stochastic model it evaluates (§6.4), so the
  // mask gates both the forward value and the backward path.
  const std::vector<float> mc_mask =
      dropout_mask(rng_, config_.mc_dropout, pooled.size());
  for (std::size_t f = 0; f < pooled.size(); ++f) pooled[f] *= mc_mask[f];
  const Vector p = head_.proba(pooled);
  if (proba != nullptr) *proba = p;
  Vector dpooled = head_.target_grad(p, target);
  for (std::size_t f = 0; f < dpooled.size(); ++f) dpooled[f] *= mc_mask[f];

  Matrix grad(tokens.size(), config_.embed_dim);
  for (std::size_t f = 0; f < config_.num_filters; ++f) {
    const std::size_t win = argmax[f];
    const float pre = preact(win, f);
    if (pre <= 0.0f) continue;  // ReLU gate (pooled value was 0)
    const float dpre = dpooled[f];
    if (dpre == 0.0f) continue;
    const float* wf = conv_w_.row(f);
    for (std::size_t j = 0; j < config_.kernel; ++j) {
      const std::size_t word = win + j;
      if (word >= tokens.size()) continue;  // padding rows
      float* grow = grad.row(word);
      const float* wseg = wf + j * config_.embed_dim;
      for (std::size_t d = 0; d < config_.embed_dim; ++d) {
        grow[d] += dpre * wseg[d];
      }
    }
  }
  return grad;
}

float WCnn::forward_backward(const TokenSeq& tokens, std::size_t label) {
  ADVTEXT_CHECK_SHAPE(label < config_.num_classes) << "WCnn::forward_backward: label out of range";
  const TokenSeq pad_tokens = padded(tokens);
  const Matrix embedded = embedding_.lookup(pad_tokens);
  const Matrix preact = conv_preact(embedded);
  std::vector<std::size_t> argmax;
  Vector pooled = max_pool(preact, &argmax);

  // Training dropout on the pooled layer.
  const std::vector<float> mask =
      dropout_mask(rng_, config_.train_dropout, pooled.size());
  for (std::size_t f = 0; f < pooled.size(); ++f) pooled[f] *= mask[f];
  Vector dpooled;
  const float loss = head_.backward(pooled, label, dpooled);
  for (std::size_t f = 0; f < dpooled.size(); ++f) dpooled[f] *= mask[f];

  // Conv grads through the max-pool winners.
  for (std::size_t f = 0; f < config_.num_filters; ++f) {
    const std::size_t win = argmax[f];
    const float pre = preact(win, f);
    if (pre <= 0.0f) continue;
    const float dpre = dpooled[f];
    if (dpre == 0.0f) continue;
    const float* window = embedded.row(win);
    float* wg = conv_w_grad_.row(f);
    const std::size_t span = config_.kernel * config_.embed_dim;
    for (std::size_t i = 0; i < span; ++i) wg[i] += dpre * window[i];
    conv_b_grad_[f] += dpre;
    if (!embedding_.frozen()) {
      const float* wf = conv_w_.row(f);
      for (std::size_t j = 0; j < config_.kernel; ++j) {
        const std::size_t word = win + j;
        Vector g(config_.embed_dim);
        const float* wseg = wf + j * config_.embed_dim;
        for (std::size_t d = 0; d < config_.embed_dim; ++d) {
          g[d] = dpre * wseg[d];
        }
        embedding_.accumulate_grad(pad_tokens[word], g.data());
      }
    }
  }
  return loss;
}

std::vector<ParamRef> WCnn::params() {
  std::vector<ParamRef> refs = {
      {conv_w_.data(), conv_w_grad_.data(), conv_w_.size()},
      {conv_b_.data(), conv_b_grad_.data(), conv_b_.size()},
  };
  head_.append_params(refs);
  if (!embedding_.frozen()) {
    refs.push_back({embedding_.mutable_table().data(),
                    embedding_.grad().data(),
                    embedding_.mutable_table().size()});
  }
  return refs;
}

void WCnn::zero_grad() {
  conv_w_grad_.fill(0.0f);
  std::fill(conv_b_grad_.begin(), conv_b_grad_.end(), 0.0f);
  head_.zero_grad();
  embedding_.zero_grad();
}

// ---- Incremental swap evaluator --------------------------------------------

namespace {

/// Caches the base document's conv pre-activations and per-filter prefix /
/// suffix running maxima of its (ReLU'd) feature maps. A scored row, a swap
/// or a token sequence of any length, shares a common prefix of `a` tokens
/// and a disjoint common suffix of `s` tokens with the base. With N and L
/// the base and row lengths, the row's windows below lo = max(0, a-kernel+1)
/// are the base's own, and its windows from
/// end = max(lo, min(L-kernel+1, L-s)) on are the base's shifted by N - L.
/// So its pooled vector is max(prefix_[lo], windows [lo, end),
/// suffix_[end + N - L]), and only [lo, end) is convolved: every row's
/// windows in one packed gemm. A same-length row recomputes only the
/// windows that touch a changed token and takes the rest of [lo, end) from
/// the base. A max over ReLU'd values is exact and order-free, so every row
/// equals predict_proba bit for bit. Lengths are those of the padded
/// sequences predict_proba convolves, so rows and bases shorter than the
/// kernel take the same path.
class WCnnSwapEvaluatorImpl : public SwapEvaluator {
 public:
  WCnnSwapEvaluatorImpl(const WCnn& model, const TokenSeq& base)
      : model_(model),
        kernel_(model.config().kernel),
        dim_(model.config().embed_dim),
        nf_(model.config().num_filters),
        one_row_(1, model.num_classes()) {
    // Weights are frozen while the evaluator lives: pack the filter bank
    // once for the rebase, swap and tokens gemms.
    model_.pack_filters(&filters_);
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& tokens) override {
    padded_ = model_.padded(tokens);
    const std::size_t nw = padded_.size() - kernel_ + 1;
    wins_.resize(nw * kernel_ * dim_);
    for (std::size_t w = 0; w < nw; ++w) {
      fill_window(padded_.data(), padded_.size(), w,
                  wins_.data() + w * kernel_ * dim_);
    }
    preact_ = Matrix(nw, nf_);
    model_.window_preact_batch(wins_.data(), nw, preact_.data(), &filters_);
    // prefix_[i] = max over windows < i; suffix_[i] = max over windows >= i.
    prefix_ = Matrix(nw + 1, nf_);
    suffix_ = Matrix(nw + 1, nf_);
    for (std::size_t f = 0; f < nf_; ++f) {
      prefix_(0, f) = 0.0f;  // ReLU output lower bound; empty max = 0
      suffix_(nw, f) = 0.0f;
    }
    for (std::size_t i = 0; i < nw; ++i) {
      for (std::size_t f = 0; f < nf_; ++f) {
        prefix_(i + 1, f) =
            std::max(prefix_(i, f), std::max(0.0f, preact_(i, f)));
      }
    }
    for (std::size_t i = nw; i > 0; --i) {
      for (std::size_t f = 0; f < nf_; ++f) {
        suffix_(i - 1, f) =
            std::max(suffix_(i, f), std::max(0.0f, preact_(i - 1, f)));
      }
    }
  }

  // The sequential hooks are one-row calls of the batch paths.
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

  // A swap is a same-length row with one change: a = pos, s = N - 1 - pos.
  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    const std::size_t n = padded_.size();
    plans_.clear();
    dirty_.clear();
    for (std::size_t m = 0; m < count; ++m) {
      const std::size_t pos = candidates[m].pos;
      const std::size_t lo = first_window(pos);
      const std::size_t end = std::min(pos + 1, n - kernel_ + 1);
      add_row(lo, end, end);
      const float* word = model_.embedding().vector(candidates[m].word);
      for (std::size_t w = lo; w < end; ++w) {
        float* dst = add_window(w);
        fill_window(padded_.data(), n, w, dst);
        std::copy(word, word + dim_, dst + (pos - w) * dim_);
      }
    }
    score_rows(rows, count, out);
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    const std::size_t n = padded_.size();
    plans_.clear();
    dirty_.clear();
    for (std::size_t m = 0; m < count; ++m) {
      const TokenSeq& doc = *docs[m];
      const auto token = [&doc](std::size_t i) {
        return i < doc.size() ? doc[i] : Vocab::kPad;
      };
      const std::size_t len = std::max(doc.size(), kernel_);  // padded
      const std::size_t shorter = std::min(len, n);
      std::size_t a = 0;
      while (a < shorter && token(a) == padded_[a]) ++a;
      std::size_t s = 0;
      while (a + s < shorter && token(len - 1 - s) == padded_[n - 1 - s]) {
        ++s;
      }
      const std::size_t lo = first_window(a);
      const std::size_t end =
          std::max(lo, std::min(len - kernel_ + 1, len - s));
      add_row(lo, end, end + n - len);
      if (len != n) {
        for (std::size_t w = lo; w < end; ++w) {
          fill_window(doc.data(), doc.size(), w, add_window(w));
        }
        continue;
      }
      // Same length: only the windows that touch a changed token, once each.
      std::size_t next = lo;
      for (std::size_t i = a; i < len - s; ++i) {
        if (token(i) == padded_[i]) continue;
        const std::size_t last = std::min(i + 1, end);
        for (std::size_t w = std::max(next, first_window(i)); w < last; ++w) {
          fill_window(doc.data(), doc.size(), w, add_window(w));
        }
        next = std::max(next, last);
      }
    }
    score_rows(rows, count, out);
  }

 private:
  struct RowPlan {
    std::size_t lo;      ///< windows below come from prefix_[lo]
    std::size_t end;     ///< windows from here on come from suffix_[suffix]
    std::size_t suffix;
    std::size_t first;   ///< the row's first recomputed window in dirty_
  };

  /// The first window that covers token i.
  std::size_t first_window(std::size_t i) const {
    return i + 1 > kernel_ ? i + 1 - kernel_ : 0;
  }

  void add_row(std::size_t lo, std::size_t end, std::size_t suffix) {
    plans_.push_back({lo, end, suffix, dirty_.size()});
  }

  /// Appends window w of the current row to the stack; returns its slot.
  float* add_window(std::size_t w) {
    const std::size_t span = kernel_ * dim_;
    dirty_.push_back(w);
    wins_.resize(dirty_.size() * span);
    return wins_.data() + (dirty_.size() - 1) * span;
  }

  /// dst = the embeddings of tokens[w, w + kernel), Vocab::kPad from `len`
  /// on: window w of the padded sequence, as predict_proba lays it out.
  void fill_window(const WordId* tokens, std::size_t len, std::size_t w,
                   float* dst) const {
    for (std::size_t o = 0; o < kernel_; ++o) {
      const float* x = model_.embedding().vector(
          w + o < len ? tokens[w + o] : Vocab::kPad);
      std::copy(x, x + dim_, dst + o * dim_);
    }
  }

  /// Convolves the stacked windows in one packed gemm; pools each row in
  /// request order, so MC-dropout draws match the sequential path; then
  /// runs the output head over all rows in one gemm.
  void score_rows(const std::size_t* rows, std::size_t count, Matrix& out) {
    const std::size_t total = dirty_.size();
    wpre_.resize(total * nf_);
    if (total > 0) {
      model_.window_preact_batch(wins_.data(), total, wpre_.data(),
                                 &filters_);
    }
    pooled_.resize(count * nf_);
    for (std::size_t m = 0; m < count; ++m) {
      const RowPlan& plan = plans_[m];
      float* pooled = pooled_.data() + m * nf_;
      for (std::size_t f = 0; f < nf_; ++f) {
        pooled[f] = std::max(prefix_(plan.lo, f), suffix_(plan.suffix, f));
      }
      std::size_t d = plan.first;
      const std::size_t d_end = m + 1 < count ? plans_[m + 1].first : total;
      for (std::size_t w = plan.lo; w < plan.end; ++w) {
        const float* row = nullptr;
        if (d < d_end && dirty_[d] == w) {
          row = wpre_.data() + d * nf_;
          ++d;
        } else {
          ADVTEXT_DCHECK(w < preact_.rows()) << "clean window off the base";
          row = preact_.row(w);
        }
        for (std::size_t f = 0; f < nf_; ++f) {
          pooled[f] = std::max(pooled[f], std::max(0.0f, row[f]));
        }
      }
      ADVTEXT_DCHECK(d == d_end) << "recomputed window outside [lo, end)";
      model_.apply_mc_dropout(pooled, nf_);
    }
    const std::size_t classes = model_.num_classes();
    proba_.resize(count * classes);
    model_.head().proba_batch(pooled_.data(), count, proba_.data());
    for (std::size_t m = 0; m < count; ++m) {
      const float* src = proba_.data() + m * classes;
      std::copy(src, src + classes, out.row(rows[m]));
    }
  }

  const WCnn& model_;
  const std::size_t kernel_;
  const std::size_t dim_;
  const std::size_t nf_;
  PackedB filters_;
  TokenSeq padded_;  // base, padded to the kernel
  Matrix preact_;    // base windows x filters
  Matrix prefix_;    // (windows+1) x filters running max of ReLU'd maps
  Matrix suffix_;

  // Batch scratch, reused across rounds.
  std::vector<RowPlan> plans_;
  std::vector<std::size_t> dirty_;  // each row's recomputed windows, ascending
  std::vector<float> wins_;         // their stacked contents
  std::vector<float> wpre_;         // their pre-activations
  std::vector<float> pooled_;
  Vector proba_;
  Matrix one_row_;
};

}  // namespace

std::unique_ptr<SwapEvaluator> WCnn::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<WCnnSwapEvaluatorImpl>(*this, base);
}

}  // namespace advtext
