#include "src/nn/wcnn.h"

#include "src/util/check.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/tensor/ops.h"

namespace advtext {

WCnn::WCnn(const WCnnConfig& config, Matrix pretrained_embeddings,
           bool freeze_embedding)
    : config_(config),
      embedding_(std::move(pretrained_embeddings)),
      conv_w_(config.num_filters, config.kernel * config.embed_dim),
      conv_w_grad_(config.num_filters, config.kernel * config.embed_dim),
      conv_b_(config.num_filters, 0.0f),
      conv_b_grad_(config.num_filters, 0.0f),
      out_w_(config.num_classes, config.num_filters),
      out_w_grad_(config.num_classes, config.num_filters),
      out_b_(config.num_classes, 0.0f),
      out_b_grad_(config.num_classes, 0.0f),
      rng_(config.seed) {
  ADVTEXT_CHECK_SHAPE(embedding_.dim() == config_.embed_dim) << "WCnn: embedding dim mismatch";
  embedding_.set_frozen(freeze_embedding);
  const float conv_bound = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(config.kernel * config.embed_dim +
                                          config.num_filters)));
  conv_w_.fill_uniform(rng_, conv_bound);
  const float out_bound = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(config.num_filters +
                                          config.num_classes)));
  out_w_.fill_uniform(rng_, out_bound);
}

TokenSeq WCnn::padded(const TokenSeq& tokens) const {
  TokenSeq out = tokens;
  while (out.size() < config_.kernel) out.push_back(Vocab::kPad);
  return out;
}

void WCnn::window_preact(const Matrix& embedded, std::size_t win,
                         float* out) const {
  const std::size_t span = config_.kernel * config_.embed_dim;
  const float* window = embedded.row(win);  // rows are contiguous
  for (std::size_t f = 0; f < config_.num_filters; ++f) {
    out[f] = dot(conv_w_.row(f), window, span) + conv_b_[f];
  }
}

Matrix WCnn::conv_preact(const Matrix& embedded) const {
  const std::size_t num_windows = embedded.rows() - config_.kernel + 1;
  Matrix preact(num_windows, config_.num_filters);
  for (std::size_t i = 0; i < num_windows; ++i) {
    window_preact(embedded, i, preact.row(i));
  }
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

Vector WCnn::output_logits(const Vector& pooled) const {
  Vector logits = matvec(out_w_, pooled);
  for (std::size_t c = 0; c < logits.size(); ++c) logits[c] += out_b_[c];
  return logits;
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

void WCnn::window_preact_batch(const float* windows, std::size_t m,
                               float* out) const {
  const std::size_t span = config_.kernel * config_.embed_dim;
  const std::size_t nf = config_.num_filters;
  gemm_nt(windows, m, conv_w_.data(), nf, span, out);
  for (std::size_t i = 0; i < m; ++i) {
    float* row = out + i * nf;
    for (std::size_t f = 0; f < nf; ++f) row[f] += conv_b_[f];
  }
}

void WCnn::proba_from_pooled_batch(const float* pooled, std::size_t m,
                                   float* proba) const {
  const std::size_t classes = config_.num_classes;
  gemm_nt(pooled, m, out_w_.data(), classes, config_.num_filters, proba);
  for (std::size_t i = 0; i < m; ++i) {
    float* row = proba + i * classes;
    for (std::size_t c = 0; c < classes; ++c) row[c] += out_b_[c];
    softmax_inplace(row, classes);
  }
}

Vector WCnn::predict_proba(const TokenSeq& tokens) const {
  const Matrix embedded = embedding_.lookup(padded(tokens));
  const Matrix preact = conv_preact(embedded);
  Vector pooled = max_pool(preact);
  apply_mc_dropout(pooled);
  return softmax(output_logits(pooled));
}

Matrix WCnn::predict_proba_batch(const std::vector<TokenSeq>& docs) const {
  const std::size_t count = docs.size();
  Matrix out(count, config_.num_classes);
  if (count == 0) return out;
  const std::size_t dim = config_.embed_dim;
  const std::size_t span = config_.kernel * dim;
  const std::size_t nf = config_.num_filters;
  // Stack every window of every document; one gemm convolves them all.
  std::vector<std::size_t> win_start(count + 1);
  std::vector<Matrix> embedded;
  embedded.reserve(count);
  std::size_t total = 0;
  for (std::size_t m = 0; m < count; ++m) {
    embedded.push_back(embedding_.lookup(padded(docs[m])));
    win_start[m] = total;
    total += embedded[m].rows() - config_.kernel + 1;
  }
  win_start[count] = total;
  Matrix windows(total, span);
  for (std::size_t m = 0; m < count; ++m) {
    const std::size_t nw = win_start[m + 1] - win_start[m];
    for (std::size_t w = 0; w < nw; ++w) {
      const float* src = embedded[m].row(w);  // rows are contiguous
      std::copy(src, src + span, windows.row(win_start[m] + w));
    }
  }
  Matrix preact(total, nf);
  window_preact_batch(windows.data(), total, preact.data());
  // Pool + (in document order, for the RNG stream) MC dropout.
  Matrix pooled(count, nf);
  for (std::size_t m = 0; m < count; ++m) {
    float* prow = pooled.row(m);
    std::fill(prow, prow + nf, -std::numeric_limits<float>::infinity());
    for (std::size_t w = win_start[m]; w < win_start[m + 1]; ++w) {
      const float* row = preact.row(w);
      for (std::size_t f = 0; f < nf; ++f) {
        const float a = std::max(0.0f, row[f]);  // ReLU
        if (a > prow[f]) prow[f] = a;
      }
    }
    apply_mc_dropout(prow, nf);
  }
  proba_from_pooled_batch(pooled.data(), count, out.data());
  return out;
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
  std::vector<float> mc_mask(pooled.size(), 1.0f);
  if (config_.mc_dropout > 0.0f) {
    const float scale = 1.0f / (1.0f - config_.mc_dropout);
    for (std::size_t f = 0; f < pooled.size(); ++f) {
      mc_mask[f] = rng_.bernoulli(config_.mc_dropout) ? 0.0f : scale;
      pooled[f] *= mc_mask[f];
    }
  }
  const Vector logits = output_logits(pooled);
  const Vector p = softmax(logits);
  if (proba != nullptr) *proba = p;

  // d p_target / d logits = p_t * (onehot(t) - p)
  Vector dlogits(p.size());
  for (std::size_t c = 0; c < p.size(); ++c) {
    dlogits[c] = p[target] * ((c == target ? 1.0f : 0.0f) - p[c]);
  }
  // d pooled = out_w^T dlogits (through the dropout mask)
  Vector dpooled = matvec_transposed(out_w_, dlogits);
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

  // Training dropout on the pooled layer (inverted scaling).
  std::vector<float> mask(pooled.size(), 1.0f);
  const float p = config_.train_dropout;
  if (p > 0.0f) {
    const float scale = 1.0f / (1.0f - p);
    for (std::size_t f = 0; f < pooled.size(); ++f) {
      mask[f] = rng_.bernoulli(p) ? 0.0f : scale;
      pooled[f] *= mask[f];
    }
  }

  const Vector logits = output_logits(pooled);
  const float loss = cross_entropy(logits, label);
  const Vector dlogits = cross_entropy_grad(logits, label);

  // Output layer grads.
  add_outer(out_w_grad_, 1.0f, dlogits, pooled);
  for (std::size_t c = 0; c < dlogits.size(); ++c) {
    out_b_grad_[c] += dlogits[c];
  }
  Vector dpooled = matvec_transposed(out_w_, dlogits);
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
      {out_w_.data(), out_w_grad_.data(), out_w_.size()},
      {out_b_.data(), out_b_grad_.data(), out_b_.size()},
  };
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
  out_w_grad_.fill(0.0f);
  std::fill(out_b_grad_.begin(), out_b_grad_.end(), 0.0f);
  embedding_.zero_grad();
}

// ---- Incremental swap evaluator --------------------------------------------

namespace {

/// Caches the padded embedding matrix, conv pre-activations and per-filter
/// prefix/suffix running maxima of the (ReLU'd) feature maps. A swap at
/// position p touches only windows [p-kernel+1, p], a contiguous range, so
/// the new pooled vector is max(prefix-before, new windows, suffix-after).
class WCnnSwapEvaluatorImpl : public SwapEvaluator {
 public:
  WCnnSwapEvaluatorImpl(const WCnn& model, const TokenSeq& base)
      : model_(model) {
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& tokens) override {
    // MC-dropout forwards are stochastic draws; memoizing one would change
    // results, so the shell's cache is bypassed whenever dropout is live.
    cacheable_ = model_.config().mc_dropout <= 0.0f;
    base_len_ = tokens.size();
    padded_ = model_.padded(tokens);
    embedded_ = model_.embedding().lookup(padded_);
    preact_ = model_.conv_preact(embedded_);
    const std::size_t nw = preact_.rows();
    const std::size_t nf = model_.config().num_filters;
    // prefix_[i] = max over windows < i; suffix_[i] = max over windows >= i.
    prefix_ = Matrix(nw + 1, nf);
    suffix_ = Matrix(nw + 1, nf);
    for (std::size_t f = 0; f < nf; ++f) {
      prefix_(0, f) = 0.0f;  // ReLU output lower bound; empty max = 0
      suffix_(nw, f) = 0.0f;
    }
    for (std::size_t i = 0; i < nw; ++i) {
      for (std::size_t f = 0; f < nf; ++f) {
        prefix_(i + 1, f) =
            std::max(prefix_(i, f), std::max(0.0f, preact_(i, f)));
      }
    }
    for (std::size_t i = nw; i > 0; --i) {
      for (std::size_t f = 0; f < nf; ++f) {
        suffix_(i - 1, f) =
            std::max(suffix_(i, f), std::max(0.0f, preact_(i - 1, f)));
      }
    }
  }

  Vector do_eval_swap(std::size_t pos, WordId candidate) override {
    ADVTEXT_CHECK_SHAPE(pos < base_len_) << "eval_swap: position out of range";
    const auto& cfg = model_.config();
    const std::size_t nw = preact_.rows();
    const std::size_t lo =
        pos >= cfg.kernel - 1 ? pos - (cfg.kernel - 1) : 0;
    const std::size_t hi = std::min(pos, nw - 1);

    // Temporarily patch the embedding row, recompute affected windows.
    const Vector saved = embedded_.row_copy(pos);
    const float* cand_vec = model_.embedding().vector(candidate);
    for (std::size_t d = 0; d < cfg.embed_dim; ++d) {
      embedded_(pos, d) = cand_vec[d];
    }
    Vector pooled(cfg.num_filters);
    std::vector<float> scratch(cfg.num_filters);
    for (std::size_t f = 0; f < cfg.num_filters; ++f) {
      pooled[f] = std::max(prefix_(lo, f), suffix_(hi + 1, f));
    }
    for (std::size_t i = lo; i <= hi; ++i) {
      model_.window_preact(embedded_, i, scratch.data());
      for (std::size_t f = 0; f < cfg.num_filters; ++f) {
        pooled[f] = std::max(pooled[f], std::max(0.0f, scratch[f]));
      }
    }
    embedded_.set_row(pos, saved);

    model_.apply_mc_dropout(pooled);
    return softmax(model_.output_logits(pooled));
  }

  Vector do_eval_tokens(const TokenSeq& tokens) override {
    // Multi-position candidate: recompute only windows covering changed
    // positions, take the column max with cached unaffected windows.
    if (tokens.size() != base_len_) return model_.predict_proba(tokens);
    const auto& cfg = model_.config();
    const std::size_t nw = preact_.rows();
    std::vector<bool> dirty(nw, false);
    std::vector<std::pair<std::size_t, Vector>> patched;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i] == padded_[i]) continue;
      patched.emplace_back(i, embedded_.row_copy(i));
      const float* cand = model_.embedding().vector(tokens[i]);
      for (std::size_t d = 0; d < cfg.embed_dim; ++d) {
        embedded_(i, d) = cand[d];
      }
      const std::size_t lo = i >= cfg.kernel - 1 ? i - (cfg.kernel - 1) : 0;
      const std::size_t hi = std::min(i, nw - 1);
      for (std::size_t w = lo; w <= hi; ++w) dirty[w] = true;
    }
    Vector pooled(cfg.num_filters, 0.0f);
    std::vector<float> scratch(cfg.num_filters);
    for (std::size_t w = 0; w < nw; ++w) {
      const float* row = preact_.row(w);
      if (dirty[w]) {
        model_.window_preact(embedded_, w, scratch.data());
        row = scratch.data();
      }
      for (std::size_t f = 0; f < cfg.num_filters; ++f) {
        pooled[f] = std::max(pooled[f], std::max(0.0f, row[f]));
      }
    }
    for (auto& [i, saved] : patched) embedded_.set_row(i, saved);

    model_.apply_mc_dropout(pooled);
    return softmax(model_.output_logits(pooled));
  }

  // Batched candidate scoring: every affected window of every candidate
  // (at most `kernel` each) is stacked into one matrix and re-convolved by
  // a single gemm; pooling then reads the cached prefix/suffix maxima per
  // row. MC-dropout draws happen per row in request order, so the RNG
  // stream matches the sequential path exactly.
  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    const auto& cfg = model_.config();
    const std::size_t dim = cfg.embed_dim;
    const std::size_t span = cfg.kernel * dim;
    const std::size_t nf = cfg.num_filters;
    const std::size_t nw = preact_.rows();
    const std::size_t classes = model_.num_classes();
    win_start_.resize(count + 1);
    std::size_t total = 0;
    for (std::size_t m = 0; m < count; ++m) {
      win_start_[m] = total;
      const std::size_t pos = candidates[m].pos;
      const std::size_t lo =
          pos >= cfg.kernel - 1 ? pos - (cfg.kernel - 1) : 0;
      const std::size_t hi = std::min(pos, nw - 1);
      total += hi - lo + 1;
    }
    win_start_[count] = total;
    ensure_window_scratch(total, span, nf);
    for (std::size_t m = 0; m < count; ++m) {
      const std::size_t pos = candidates[m].pos;
      const std::size_t lo =
          pos >= cfg.kernel - 1 ? pos - (cfg.kernel - 1) : 0;
      const std::size_t hi = std::min(pos, nw - 1);
      const float* cand_vec = model_.embedding().vector(candidates[m].word);
      for (std::size_t w = lo; w <= hi; ++w) {
        float* dst = wins_.row(win_start_[m] + (w - lo));
        const float* src = embedded_.row(w);  // rows are contiguous
        std::copy(src, src + span, dst);
        std::copy(cand_vec, cand_vec + dim, dst + (pos - w) * dim);
      }
    }
    model_.window_preact_batch(wins_.data(), total, wpre_.data());
    if (pooled_.rows() < count || pooled_.cols() != nf) {
      pooled_ = Matrix(count, nf);
    }
    for (std::size_t m = 0; m < count; ++m) {
      const std::size_t pos = candidates[m].pos;
      const std::size_t lo =
          pos >= cfg.kernel - 1 ? pos - (cfg.kernel - 1) : 0;
      const std::size_t hi = std::min(pos, nw - 1);
      float* pooled = pooled_.row(m);
      for (std::size_t f = 0; f < nf; ++f) {
        pooled[f] = std::max(prefix_(lo, f), suffix_(hi + 1, f));
      }
      for (std::size_t w = lo; w <= hi; ++w) {
        const float* row = wpre_.row(win_start_[m] + (w - lo));
        for (std::size_t f = 0; f < nf; ++f) {
          pooled[f] = std::max(pooled[f], std::max(0.0f, row[f]));
        }
      }
      model_.apply_mc_dropout(pooled, nf);
    }
    proba_.resize(count * classes);
    model_.proba_from_pooled_batch(pooled_.data(), count, proba_.data());
    for (std::size_t m = 0; m < count; ++m) {
      const float* src = proba_.data() + m * classes;
      std::copy(src, src + classes, out.row(rows[m]));
    }
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    const auto& cfg = model_.config();
    const std::size_t dim = cfg.embed_dim;
    const std::size_t span = cfg.kernel * dim;
    const std::size_t nf = cfg.num_filters;
    const std::size_t nw = preact_.rows();
    const std::size_t classes = model_.num_classes();
    // Pass 1 (draws no RNG): collect each row's dirty windows and stack
    // their patched contents for one gemm. Length-mismatched rows fall
    // back to a full forward in pass 2.
    win_start_.resize(count + 1);
    dirty_list_.clear();
    is_fallback_.assign(count, 0);
    for (std::size_t m = 0; m < count; ++m) {
      win_start_[m] = dirty_list_.size();
      const TokenSeq& doc = *docs[m];
      if (doc.size() != base_len_) {
        is_fallback_[m] = 1;
        continue;
      }
      for (std::size_t w = 0; w < nw; ++w) {
        bool dirty = false;
        for (std::size_t o = 0; o < cfg.kernel && w + o < doc.size(); ++o) {
          if (doc[w + o] != padded_[w + o]) {
            dirty = true;
            break;
          }
        }
        if (dirty) dirty_list_.push_back(w);
      }
    }
    win_start_[count] = dirty_list_.size();
    const std::size_t total = dirty_list_.size();
    ensure_window_scratch(total, span, nf);
    for (std::size_t m = 0; m < count; ++m) {
      const TokenSeq& doc = *docs[m];
      for (std::size_t k = win_start_[m]; k < win_start_[m + 1]; ++k) {
        const std::size_t w = dirty_list_[k];
        float* dst = wins_.row(k);
        const float* src = embedded_.row(w);
        std::copy(src, src + span, dst);
        for (std::size_t o = 0; o < cfg.kernel && w + o < doc.size(); ++o) {
          if (doc[w + o] == padded_[w + o]) continue;
          const float* xt = model_.embedding().vector(doc[w + o]);
          std::copy(xt, xt + dim, dst + o * dim);
        }
      }
    }
    if (total > 0) {
      model_.window_preact_batch(wins_.data(), total, wpre_.data());
    }
    // Pass 2, in request order so MC-dropout draws match the sequential
    // path: fallbacks run a full forward; cached rows pool from clean
    // preacts plus the re-convolved dirty windows.
    if (pooled_.rows() < count || pooled_.cols() != nf) {
      pooled_ = Matrix(count, nf);
    }
    brow_out_.clear();
    std::size_t bcount = 0;
    for (std::size_t m = 0; m < count; ++m) {
      if (is_fallback_[m]) {
        const Vector proba = model_.predict_proba(*docs[m]);
        std::copy(proba.begin(), proba.end(), out.row(rows[m]));
        continue;
      }
      float* pooled = pooled_.row(bcount);
      std::fill(pooled, pooled + nf, 0.0f);
      std::size_t k = win_start_[m];
      for (std::size_t w = 0; w < nw; ++w) {
        const float* row = preact_.row(w);
        if (k < win_start_[m + 1] && dirty_list_[k] == w) {
          row = wpre_.row(k);
          ++k;
        }
        for (std::size_t f = 0; f < nf; ++f) {
          pooled[f] = std::max(pooled[f], std::max(0.0f, row[f]));
        }
      }
      model_.apply_mc_dropout(pooled, nf);
      brow_out_.push_back(rows[m]);
      ++bcount;
    }
    if (bcount == 0) return;
    proba_.resize(bcount * classes);
    model_.proba_from_pooled_batch(pooled_.data(), bcount, proba_.data());
    for (std::size_t b = 0; b < bcount; ++b) {
      const float* src = proba_.data() + b * classes;
      std::copy(src, src + classes, out.row(brow_out_[b]));
    }
  }

 private:
  void ensure_window_scratch(std::size_t total, std::size_t span,
                             std::size_t nf) {
    if (wins_.rows() < total || wins_.cols() != span) {
      wins_ = Matrix(total, span);
    }
    if (wpre_.rows() < total || wpre_.cols() != nf) {
      wpre_ = Matrix(total, nf);
    }
  }

  const WCnn& model_;
  std::size_t base_len_ = 0;
  TokenSeq padded_;
  Matrix embedded_;  // padded
  Matrix preact_;    // windows x filters
  Matrix prefix_;    // (windows+1) x filters running max of ReLU'd maps
  Matrix suffix_;

  // Batch scratch, reused across rounds.
  std::vector<std::size_t> win_start_;
  std::vector<std::size_t> dirty_list_;
  std::vector<char> is_fallback_;
  std::vector<std::size_t> brow_out_;
  Matrix wins_;    // stacked patched windows
  Matrix wpre_;    // their re-convolved pre-activations
  Matrix pooled_;
  Vector proba_;
};

}  // namespace

std::unique_ptr<SwapEvaluator> WCnn::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<WCnnSwapEvaluatorImpl>(*this, base);
}

}  // namespace advtext
