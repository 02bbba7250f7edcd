#include "src/nn/lstm.h"

#include "src/util/check.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/ops.h"

namespace advtext {

LstmClassifier::LstmClassifier(const LstmConfig& config,
                               Matrix pretrained_embeddings,
                               bool freeze_embedding)
    : config_(config),
      embedding_(std::move(pretrained_embeddings)),
      wx_(4 * config.hidden, config.embed_dim),
      wx_grad_(4 * config.hidden, config.embed_dim),
      wh_(4 * config.hidden, config.hidden),
      wh_grad_(4 * config.hidden, config.hidden),
      b_(4 * config.hidden, 0.0f),
      b_grad_(4 * config.hidden, 0.0f),
      out_w_(config.num_classes, config.hidden),
      out_w_grad_(config.num_classes, config.hidden),
      out_b_(config.num_classes, 0.0f),
      out_b_grad_(config.num_classes, 0.0f),
      rng_(config.seed) {
  ADVTEXT_CHECK_SHAPE(embedding_.dim() == config_.embed_dim) << "LstmClassifier: embedding dim mismatch";
  embedding_.set_frozen(freeze_embedding);
  const float bx = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(config.embed_dim + config.hidden)));
  wx_.fill_uniform(rng_, bx);
  const float bh = static_cast<float>(
      std::sqrt(3.0 / static_cast<double>(config.hidden)));
  wh_.fill_uniform(rng_, bh);
  // Standard trick: forget-gate bias starts at 1 so gradients flow early.
  for (std::size_t j = 0; j < config.hidden; ++j) {
    b_[config.hidden + j] = 1.0f;
  }
  const float bo = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(config.hidden +
                                          config.num_classes)));
  out_w_.fill_uniform(rng_, bo);
}

void LstmClassifier::step(const float* x, Vector& h, Vector& c) const {
  const std::size_t hidden = config_.hidden;
  Vector z(4 * hidden);
  for (std::size_t r = 0; r < 4 * hidden; ++r) {
    z[r] = dot(wx_.row(r), x, config_.embed_dim) +
           dot(wh_.row(r), h.data(), hidden) + b_[r];
  }
  for (std::size_t j = 0; j < hidden; ++j) {
    const float ig = sigmoid(z[j]);
    const float fg = sigmoid(z[hidden + j]);
    const float gg = tanh_act(z[2 * hidden + j]);
    const float og = sigmoid(z[3 * hidden + j]);
    c[j] = fg * c[j] + ig * gg;
    h[j] = og * tanh_act(c[j]);
  }
}

Vector LstmClassifier::proba_from_hidden(const Vector& h) const {
  Vector logits = matvec(out_w_, h);
  for (std::size_t cls = 0; cls < logits.size(); ++cls) {
    logits[cls] += out_b_[cls];
  }
  return softmax(logits);
}

void LstmClassifier::gate_preact_x(const float* x, std::size_t m,
                                   float* zx) const {
  gemm_nt(x, m, wx_.data(), 4 * config_.hidden, config_.embed_dim, zx);
}

void LstmClassifier::gate_preact_h(const float* h, std::size_t m,
                                   float* zh) const {
  gemm_nt(h, m, wh_.data(), 4 * config_.hidden, config_.hidden, zh);
}

void LstmClassifier::pack_gate_weights(PackedB* wx, PackedB* wh) const {
  gemm_pack_b(wx_.data(), 4 * config_.hidden, config_.embed_dim, *wx);
  gemm_pack_b(wh_.data(), 4 * config_.hidden, config_.hidden, *wh);
}

void LstmClassifier::gate_preact_x(const PackedB& wx, const float* x,
                                   std::size_t m, float* zx) const {
  gemm_nt_packed(x, m, wx, zx);
}

void LstmClassifier::gate_preact_h(const PackedB& wh, const float* h,
                                   std::size_t m, float* zh) const {
  gemm_nt_packed(h, m, wh, zh);
}

ADVTEXT_AVX2_CLONES
void LstmClassifier::step_from_preact(const float* zx, const float* zh,
                                      float* h, float* c) const {
  // Split into contiguous elementwise passes so the gate nonlinearities
  // vectorize: one fused pre-activation pass, one sigmoid/tanh pass per
  // gate block, then the state update. Expression order per element is
  // unchanged — (zx + zh) + b, then the activation — so this is
  // bit-identical to the fused per-unit loop it replaces.
  const std::size_t hidden = config_.hidden;
  constexpr std::size_t kMaxHidden = 256;
  ADVTEXT_CHECK_SHAPE(hidden <= kMaxHidden)
      << "step_from_preact: hidden exceeds scratch bound";
  float z[4 * kMaxHidden];
  float tc[kMaxHidden];
  for (std::size_t r = 0; r < 4 * hidden; ++r) {
    z[r] = zx[r] + zh[r] + b_[r];
  }
  // Gate blocks: [i | f | g | o] — sigmoid on i/f, tanh on g, sigmoid on o.
  for (std::size_t r = 0; r < 2 * hidden; ++r) z[r] = sigmoid(z[r]);
  for (std::size_t r = 2 * hidden; r < 3 * hidden; ++r) z[r] = tanh_act(z[r]);
  for (std::size_t r = 3 * hidden; r < 4 * hidden; ++r) z[r] = sigmoid(z[r]);
  for (std::size_t j = 0; j < hidden; ++j) {
    c[j] = z[hidden + j] * c[j] + z[j] * z[2 * hidden + j];
  }
  for (std::size_t j = 0; j < hidden; ++j) tc[j] = tanh_act(c[j]);
  for (std::size_t j = 0; j < hidden; ++j) h[j] = z[3 * hidden + j] * tc[j];
}

void LstmClassifier::proba_from_hidden_batch(const float* h, std::size_t m,
                                             float* proba) const {
  const std::size_t classes = config_.num_classes;
  gemm_nt(h, m, out_w_.data(), classes, config_.hidden, proba);
  for (std::size_t i = 0; i < m; ++i) {
    float* row = proba + i * classes;
    for (std::size_t cls = 0; cls < classes; ++cls) row[cls] += out_b_[cls];
    softmax_inplace(row, classes);
  }
}

Vector LstmClassifier::forward_traced(const TokenSeq& tokens,
                                      std::vector<StepTrace>* traces,
                                      Matrix* embedded) const {
  ADVTEXT_CHECK_SHAPE(!tokens.empty()) << "LstmClassifier: empty input";
  const std::size_t hidden = config_.hidden;
  Matrix emb = embedding_.lookup(tokens);
  Vector h(hidden, 0.0f);
  Vector c(hidden, 0.0f);
  if (traces != nullptr) traces->resize(tokens.size());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const float* x = emb.row(t);
    Vector z(4 * hidden);
    for (std::size_t r = 0; r < 4 * hidden; ++r) {
      z[r] = dot(wx_.row(r), x, config_.embed_dim) +
             dot(wh_.row(r), h.data(), hidden) + b_[r];
    }
    StepTrace trace;
    trace.i.resize(hidden);
    trace.f.resize(hidden);
    trace.g.resize(hidden);
    trace.o.resize(hidden);
    trace.c.resize(hidden);
    trace.tanh_c.resize(hidden);
    trace.h.resize(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      trace.i[j] = sigmoid(z[j]);
      trace.f[j] = sigmoid(z[hidden + j]);
      trace.g[j] = tanh_act(z[2 * hidden + j]);
      trace.o[j] = sigmoid(z[3 * hidden + j]);
      trace.c[j] = trace.f[j] * c[j] + trace.i[j] * trace.g[j];
      trace.tanh_c[j] = tanh_act(trace.c[j]);
      trace.h[j] = trace.o[j] * trace.tanh_c[j];
    }
    h = trace.h;
    c = trace.c;
    if (traces != nullptr) (*traces)[t] = std::move(trace);
  }
  if (embedded != nullptr) *embedded = std::move(emb);
  return proba_from_hidden(h);
}

Vector LstmClassifier::predict_proba(const TokenSeq& tokens) const {
  ADVTEXT_CHECK_SHAPE(!tokens.empty()) << "LstmClassifier: empty input";
  const Matrix emb = embedding_.lookup(tokens);
  Vector h(config_.hidden, 0.0f);
  Vector c(config_.hidden, 0.0f);
  for (std::size_t t = 0; t < tokens.size(); ++t) step(emb.row(t), h, c);
  return proba_from_hidden(h);
}

Matrix LstmClassifier::predict_proba_batch(
    const std::vector<TokenSeq>& docs) const {
  const std::size_t count = docs.size();
  Matrix out(count, config_.num_classes);
  if (count == 0) return out;
  for (const TokenSeq& doc : docs) {
    ADVTEXT_CHECK_SHAPE(!doc.empty()) << "LstmClassifier: empty input";
  }
  const std::size_t hidden = config_.hidden;
  const std::size_t dim = config_.embed_dim;
  // Longest documents first: the active set is then always a prefix of the
  // sort order and shrinks as shorter documents finish.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return docs[a].size() > docs[b].size();
                   });
  Matrix h(count, hidden);  // zero-initialized == the scalar initial state
  Matrix c(count, hidden);
  Matrix x(count, dim);
  Matrix zx(count, 4 * hidden);
  Matrix zh(count, 4 * hidden);
  PackedB wx_packed, wh_packed;
  pack_gate_weights(&wx_packed, &wh_packed);
  const std::size_t maxlen = docs[order[0]].size();
  std::size_t active = count;
  for (std::size_t t = 0; t < maxlen; ++t) {
    while (active > 0 && docs[order[active - 1]].size() <= t) --active;
    for (std::size_t j = 0; j < active; ++j) {
      const float* xt = embedding_.vector(docs[order[j]][t]);
      std::copy(xt, xt + dim, x.row(j));
    }
    gate_preact_h(wh_packed, h.data(), active, zh.data());
    gate_preact_x(wx_packed, x.data(), active, zx.data());
    for (std::size_t j = 0; j < active; ++j) {
      step_from_preact(zx.row(j), zh.row(j), h.row(j), c.row(j));
    }
  }
  Matrix proba(count, config_.num_classes);
  proba_from_hidden_batch(h.data(), count, proba.data());
  for (std::size_t j = 0; j < count; ++j) {
    std::copy(proba.row(j), proba.row(j) + config_.num_classes,
              out.row(order[j]));
  }
  return out;
}

template <typename OnStep>
void LstmClassifier::bptt(const Matrix& embedded,
                          const std::vector<StepTrace>& traces,
                          Vector dh_final, OnStep&& on_step,
                          Matrix* input_grad) const {
  const std::size_t hidden = config_.hidden;
  const std::size_t steps = traces.size();
  Vector dh = std::move(dh_final);
  Vector dc(hidden, 0.0f);
  Vector dz(4 * hidden);
  for (std::size_t t = steps; t-- > 0;) {
    const StepTrace& tr = traces[t];
    const Vector* c_prev = t > 0 ? &traces[t - 1].c : nullptr;
    const Vector* h_prev = t > 0 ? &traces[t - 1].h : nullptr;
    for (std::size_t j = 0; j < hidden; ++j) {
      const float do_ = dh[j] * tr.tanh_c[j];
      const float dct = dc[j] + dh[j] * tr.o[j] * (1.0f - tr.tanh_c[j] *
                                                              tr.tanh_c[j]);
      const float di = dct * tr.g[j];
      const float dg = dct * tr.i[j];
      const float cp = c_prev != nullptr ? (*c_prev)[j] : 0.0f;
      const float df = dct * cp;
      dc[j] = dct * tr.f[j];
      dz[j] = di * tr.i[j] * (1.0f - tr.i[j]);
      dz[hidden + j] = df * tr.f[j] * (1.0f - tr.f[j]);
      dz[2 * hidden + j] = dg * (1.0f - tr.g[j] * tr.g[j]);
      dz[3 * hidden + j] = do_ * tr.o[j] * (1.0f - tr.o[j]);
    }
    on_step(t, dz, h_prev);
    // dh_prev = Wh^T dz; dx_t = Wx^T dz.
    Vector dh_prev(hidden, 0.0f);
    for (std::size_t r = 0; r < 4 * hidden; ++r) {
      const float dzr = dz[r];
      if (dzr == 0.0f) continue;
      const float* whr = wh_.row(r);
      for (std::size_t j = 0; j < hidden; ++j) dh_prev[j] += dzr * whr[j];
    }
    if (input_grad != nullptr) {
      float* gx = input_grad->row(t);
      for (std::size_t r = 0; r < 4 * hidden; ++r) {
        const float dzr = dz[r];
        if (dzr == 0.0f) continue;
        const float* wxr = wx_.row(r);
        for (std::size_t d = 0; d < config_.embed_dim; ++d) {
          gx[d] += dzr * wxr[d];
        }
      }
    }
    dh = std::move(dh_prev);
  }
  (void)embedded;
}

Matrix LstmClassifier::input_gradient(const TokenSeq& tokens,
                                      std::size_t target,
                                      Vector* proba) const {
  ADVTEXT_CHECK_SHAPE(target < config_.num_classes) << "LstmClassifier::input_gradient: target out of range";
  std::vector<StepTrace> traces;
  Matrix embedded;
  const Vector p = forward_traced(tokens, &traces, &embedded);
  if (proba != nullptr) *proba = p;

  Vector dlogits(p.size());
  for (std::size_t cls = 0; cls < p.size(); ++cls) {
    dlogits[cls] = p[target] * ((cls == target ? 1.0f : 0.0f) - p[cls]);
  }
  Vector dh = matvec_transposed(out_w_, dlogits);

  Matrix grad(tokens.size(), config_.embed_dim);
  bptt(embedded, traces, std::move(dh),
       [](std::size_t, const Vector&, const Vector*) {}, &grad);
  return grad;
}

float LstmClassifier::forward_backward(const TokenSeq& tokens,
                                       std::size_t label) {
  ADVTEXT_CHECK_SHAPE(label < config_.num_classes) << "LstmClassifier::forward_backward: label out of range";
  std::vector<StepTrace> traces;
  Matrix embedded;
  forward_traced(tokens, &traces, &embedded);

  Vector h_final = traces.back().h;
  std::vector<float> mask(config_.hidden, 1.0f);
  const float p = config_.train_dropout;
  if (p > 0.0f) {
    const float scale = 1.0f / (1.0f - p);
    for (std::size_t j = 0; j < config_.hidden; ++j) {
      mask[j] = rng_.bernoulli(p) ? 0.0f : scale;
      h_final[j] *= mask[j];
    }
  }
  Vector logits = matvec(out_w_, h_final);
  for (std::size_t cls = 0; cls < logits.size(); ++cls) {
    logits[cls] += out_b_[cls];
  }
  const float loss = cross_entropy(logits, label);
  const Vector dlogits = cross_entropy_grad(logits, label);

  add_outer(out_w_grad_, 1.0f, dlogits, h_final);
  for (std::size_t cls = 0; cls < dlogits.size(); ++cls) {
    out_b_grad_[cls] += dlogits[cls];
  }
  Vector dh = matvec_transposed(out_w_, dlogits);
  for (std::size_t j = 0; j < config_.hidden; ++j) dh[j] *= mask[j];

  const bool train_embedding = !embedding_.frozen();
  Matrix input_grad(tokens.size(), config_.embed_dim);
  bptt(
      embedded, traces, std::move(dh),
      [&](std::size_t t, const Vector& dz, const Vector* h_prev) {
        const float* x = embedded.row(t);
        for (std::size_t r = 0; r < 4 * config_.hidden; ++r) {
          const float dzr = dz[r];
          if (dzr == 0.0f) continue;
          float* wxg = wx_grad_.row(r);
          for (std::size_t d = 0; d < config_.embed_dim; ++d) {
            wxg[d] += dzr * x[d];
          }
          if (h_prev != nullptr) {
            float* whg = wh_grad_.row(r);
            for (std::size_t j = 0; j < config_.hidden; ++j) {
              whg[j] += dzr * (*h_prev)[j];
            }
          }
          b_grad_[r] += dzr;
        }
      },
      train_embedding ? &input_grad : nullptr);
  if (train_embedding) {
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      embedding_.accumulate_grad(tokens[t], input_grad.row(t));
    }
  }
  return loss;
}

std::vector<ParamRef> LstmClassifier::params() {
  std::vector<ParamRef> refs = {
      {wx_.data(), wx_grad_.data(), wx_.size()},
      {wh_.data(), wh_grad_.data(), wh_.size()},
      {b_.data(), b_grad_.data(), b_.size()},
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

void LstmClassifier::zero_grad() {
  wx_grad_.fill(0.0f);
  wh_grad_.fill(0.0f);
  std::fill(b_grad_.begin(), b_grad_.end(), 0.0f);
  out_w_grad_.fill(0.0f);
  std::fill(out_b_grad_.begin(), out_b_grad_.end(), 0.0f);
  embedding_.zero_grad();
}

// ---- Prefix-cached swap evaluator ------------------------------------------

namespace {

class LstmSwapEvaluatorImpl : public SwapEvaluator {
 public:
  LstmSwapEvaluatorImpl(const LstmClassifier& model, const TokenSeq& base)
      : model_(model) {
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& tokens) override {
    ADVTEXT_CHECK_SHAPE(!tokens.empty()) << "LstmSwapEvaluator: empty base";
    // Weights are frozen for the lifetime of an attack; pack them once so
    // every per-timestep gemm, here and in the batched paths, skips the
    // tile repack.
    model_.pack_gate_weights(&wx_packed_, &wh_packed_);
    const std::size_t hidden = model_.config().hidden;
    const std::size_t n = tokens.size();
    // states_[t] = (h, c) after consuming tokens[0..t-1].
    h_states_.assign(n + 1, Vector(hidden, 0.0f));
    c_states_.assign(n + 1, Vector(hidden, 0.0f));
    // Only the recurrent term is sequential: every step's input
    // pre-activation comes from one gemm over the whole document. Same
    // bits as step() by gate_preact_x + gate_preact_h + step_from_preact.
    const Matrix emb = model_.embedding().lookup(tokens);
    Matrix zx(n, 4 * hidden);
    model_.gate_preact_x(wx_packed_, emb.data(), n, zx.data());
    Vector zh(4 * hidden);
    for (std::size_t t = 0; t < n; ++t) {
      model_.gate_preact_h(wh_packed_, h_states_[t].data(), 1, zh.data());
      h_states_[t + 1] = h_states_[t];
      c_states_[t + 1] = c_states_[t];
      model_.step_from_preact(zx.row(t), zh.data(), h_states_[t + 1].data(),
                              c_states_[t + 1].data());
    }
  }

  Vector do_eval_swap(std::size_t pos, WordId candidate) override {
    ADVTEXT_CHECK_SHAPE(pos < base_tokens_.size())
        << "eval_swap: position out of range";
    Vector h = h_states_[pos];
    Vector c = c_states_[pos];
    model_.step(model_.embedding().vector(candidate), h, c);
    for (std::size_t t = pos + 1; t < base_tokens_.size(); ++t) {
      model_.step(model_.embedding().vector(base_tokens_[t]), h, c);
    }
    return model_.proba_from_hidden(h);
  }

  Vector do_eval_tokens(const TokenSeq& tokens) override {
    if (tokens.size() != base_tokens_.size()) {
      return model_.predict_proba(tokens);
    }
    std::size_t first = 0;
    while (first < tokens.size() && tokens[first] == base_tokens_[first]) {
      ++first;
    }
    if (first == tokens.size()) {
      return model_.proba_from_hidden(h_states_.back());
    }
    Vector h = h_states_[first];
    Vector c = c_states_[first];
    for (std::size_t t = first; t < tokens.size(); ++t) {
      model_.step(model_.embedding().vector(tokens[t]), h, c);
    }
    return model_.proba_from_hidden(h);
  }

  // Batched candidate scoring. Rows are sorted by swap position so the
  // active set is a growing prefix: at each timestep one gemm produces
  // every active row's recurrent pre-activation, and rows past their swap
  // all consume the same base token, so its input pre-activation is
  // computed once and shared. This removes the dominant 4H*D-per-row term
  // of the suffix recurrence — the scalar path pays it every step.
  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    const std::size_t hidden = model_.config().hidden;
    const std::size_t dim = model_.config().embed_dim;
    const std::size_t n = base_tokens_.size();
    order_.resize(count);
    for (std::size_t i = 0; i < count; ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return candidates[a].pos < candidates[b].pos;
                     });
    ensure_scratch(count, hidden, dim);
    std::size_t active = 0;
    for (std::size_t t = candidates[order_[0]].pos; t < n; ++t) {
      // Activate rows whose swap is at t from the cached prefix state.
      std::size_t newly = 0;
      while (active + newly < count &&
             candidates[order_[active + newly]].pos == t) {
        const std::size_t slot = active + newly;
        std::copy(h_states_[t].begin(), h_states_[t].end(), h_.row(slot));
        std::copy(c_states_[t].begin(), c_states_[t].end(), c_.row(slot));
        const float* xc =
            model_.embedding().vector(candidates[order_[slot]].word);
        std::copy(xc, xc + dim, x_.row(newly));
        ++newly;
      }
      const std::size_t prev_active = active;
      active += newly;
      model_.gate_preact_h(wh_packed_, h_.data(), active, zh_.data());
      if (newly > 0) {
        model_.gate_preact_x(wx_packed_, x_.data(), newly, zx_.data());
      }
      if (prev_active > 0) {
        model_.gate_preact_x(wx_packed_,
                             model_.embedding().vector(base_tokens_[t]), 1,
                             zx_base_.data());
      }
      for (std::size_t j = 0; j < active; ++j) {
        const float* zx = j < prev_active ? zx_base_.data()
                                          : zx_.row(j - prev_active);
        model_.step_from_preact(zx, zh_.row(j), h_.row(j), c_.row(j));
      }
    }
    finish_rows(rows, count, out);
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    const std::size_t hidden = model_.config().hidden;
    const std::size_t dim = model_.config().embed_dim;
    const std::size_t n = base_tokens_.size();
    const std::size_t classes = model_.num_classes();
    // Rows the prefix cache cannot help ride the scalar path unchanged.
    batch_rows_.clear();
    first_diff_.clear();
    for (std::size_t m = 0; m < count; ++m) {
      const TokenSeq& doc = *docs[m];
      if (doc.size() != n) {
        const Vector proba = model_.predict_proba(doc);
        std::copy(proba.begin(), proba.end(), out.row(rows[m]));
        continue;
      }
      std::size_t first = 0;
      while (first < n && doc[first] == base_tokens_[first]) ++first;
      if (first == n) {
        const Vector proba = model_.proba_from_hidden(h_states_.back());
        std::copy(proba.begin(), proba.end(), out.row(rows[m]));
        continue;
      }
      batch_rows_.push_back(m);
      first_diff_.push_back(first);
    }
    const std::size_t bcount = batch_rows_.size();
    if (bcount == 0) return;
    order_.resize(bcount);
    for (std::size_t i = 0; i < bcount; ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return first_diff_[a] < first_diff_[b];
                     });
    ensure_scratch(bcount, hidden, dim);
    zx_slot_.resize(bcount);
    std::size_t active = 0;
    for (std::size_t t = first_diff_[order_[0]]; t < n; ++t) {
      while (active < bcount && first_diff_[order_[active]] == t) {
        std::copy(h_states_[t].begin(), h_states_[t].end(), h_.row(active));
        std::copy(c_states_[t].begin(), c_states_[t].end(), c_.row(active));
        ++active;
      }
      // Each active row consumes its own token; rows matching the base
      // token at t share one input pre-activation.
      std::size_t own = 0;
      bool any_shared = false;
      for (std::size_t j = 0; j < active; ++j) {
        const WordId w = (*docs[batch_rows_[order_[j]]])[t];
        if (w == base_tokens_[t]) {
          zx_slot_[j] = bcount;  // sentinel: shared
          any_shared = true;
        } else {
          const float* xt = model_.embedding().vector(w);
          std::copy(xt, xt + dim, x_.row(own));
          zx_slot_[j] = own++;
        }
      }
      model_.gate_preact_h(wh_packed_, h_.data(), active, zh_.data());
      if (own > 0) model_.gate_preact_x(wx_packed_, x_.data(), own, zx_.data());
      if (any_shared) {
        model_.gate_preact_x(wx_packed_,
                             model_.embedding().vector(base_tokens_[t]), 1,
                             zx_base_.data());
      }
      for (std::size_t j = 0; j < active; ++j) {
        const float* zx = zx_slot_[j] == bcount ? zx_base_.data()
                                                : zx_.row(zx_slot_[j]);
        model_.step_from_preact(zx, zh_.row(j), h_.row(j), c_.row(j));
      }
    }
    proba_.resize(bcount * classes);
    model_.proba_from_hidden_batch(h_.data(), bcount, proba_.data());
    for (std::size_t j = 0; j < bcount; ++j) {
      const float* src = proba_.data() + j * classes;
      std::copy(src, src + classes, out.row(rows[batch_rows_[order_[j]]]));
    }
  }

 private:
  void ensure_scratch(std::size_t count, std::size_t hidden,
                      std::size_t dim) {
    if (h_.rows() < count || h_.cols() != hidden) {
      h_ = Matrix(count, hidden);
      c_ = Matrix(count, hidden);
      x_ = Matrix(count, dim);
      zx_ = Matrix(count, 4 * hidden);
      zh_ = Matrix(count, 4 * hidden);
    }
    zx_base_.resize(4 * hidden);
  }

  void finish_rows(const std::size_t* rows, std::size_t count, Matrix& out) {
    const std::size_t classes = model_.num_classes();
    proba_.resize(count * classes);
    model_.proba_from_hidden_batch(h_.data(), count, proba_.data());
    for (std::size_t j = 0; j < count; ++j) {
      const float* src = proba_.data() + j * classes;
      std::copy(src, src + classes, out.row(rows[order_[j]]));
    }
  }

  const LstmClassifier& model_;
  std::vector<Vector> h_states_;
  std::vector<Vector> c_states_;
  PackedB wx_packed_, wh_packed_;

  // Batch scratch, reused across rounds.
  std::vector<std::size_t> order_;
  std::vector<std::size_t> batch_rows_;
  std::vector<std::size_t> first_diff_;
  std::vector<std::size_t> zx_slot_;
  Matrix h_, c_, x_, zx_, zh_;
  Vector zx_base_;
  Vector proba_;
};

}  // namespace

std::unique_ptr<SwapEvaluator> LstmClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<LstmSwapEvaluatorImpl>(*this, base);
}

}  // namespace advtext
