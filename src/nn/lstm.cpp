#include "src/nn/lstm.h"

#include "src/util/check.h"

#include <algorithm>
#include <cmath>

#include "src/nn/recurrent_swap_evaluator.h"
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

template <typename OnStep>
void LstmClassifier::bptt(const std::vector<StepTrace>& traces,
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
}

Matrix LstmClassifier::input_gradient(const TokenSeq& tokens,
                                      std::size_t target,
                                      Vector* proba) const {
  ADVTEXT_CHECK_SHAPE(target < config_.num_classes) << "LstmClassifier::input_gradient: target out of range";
  std::vector<StepTrace> traces;
  const Vector p = forward_traced(tokens, &traces, nullptr);
  if (proba != nullptr) *proba = p;

  Vector dlogits(p.size());
  for (std::size_t cls = 0; cls < p.size(); ++cls) {
    dlogits[cls] = p[target] * ((cls == target ? 1.0f : 0.0f) - p[cls]);
  }
  Vector dh = matvec_transposed(out_w_, dlogits);

  Matrix grad(tokens.size(), config_.embed_dim);
  bptt(traces, std::move(dh),
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
      traces, std::move(dh),
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

/// The LSTM's state (h, c) and gate pass for RecurrentSwapEvaluator.
struct LstmCell {
  using Model = LstmClassifier;
  static constexpr std::size_t kStates = 2;  // h, c
  static constexpr std::size_t kGates = 4;   // i, f, g, o

  explicit LstmCell(const LstmClassifier& m) : model(m) {}

  void pack() { model.pack_gate_weights(&wx, &wh); }

  void input_preact(const float* x, std::size_t m, float* zx) const {
    model.gate_preact_x(wx, x, m, zx);
  }

  struct Scratch {
    Matrix zh;  ///< recurrent pre-activations
  };

  void reserve(Scratch& scratch, std::size_t m) const {
    if (scratch.zh.rows() < m) {
      scratch.zh = Matrix(m, 4 * model.config().hidden);
    }
  }

  void advance(const float* const* zx, std::size_t m, float* const* state,
               Scratch& scratch) const {
    const std::size_t hidden = model.config().hidden;
    Matrix& zh = scratch.zh;
    model.gate_preact_h(wh, state[0], m, zh.data());
    for (std::size_t j = 0; j < m; ++j) {
      model.step_from_preact(zx[j], zh.row(j), state[0] + j * hidden,
                             state[1] + j * hidden);
    }
  }

  const LstmClassifier& model;
  PackedB wx, wh;
};

}  // namespace

std::unique_ptr<SwapEvaluator> LstmClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<RecurrentSwapEvaluator<LstmCell>>(*this, base);
}

}  // namespace advtext
