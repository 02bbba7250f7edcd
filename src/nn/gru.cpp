#include "src/nn/gru.h"

#include "src/util/check.h"

#include <algorithm>
#include <cmath>

#include "src/nn/recurrent_swap_evaluator.h"
#include "src/tensor/ops.h"

namespace advtext {

GruClassifier::GruClassifier(const GruConfig& config,
                             Matrix pretrained_embeddings,
                             bool freeze_embedding)
    : config_(config),
      embedding_(std::move(pretrained_embeddings)),
      wx_(3 * config.hidden, config.embed_dim),
      wx_grad_(3 * config.hidden, config.embed_dim),
      uh_(3 * config.hidden, config.hidden),
      uh_grad_(3 * config.hidden, config.hidden),
      b_(3 * config.hidden, 0.0f),
      b_grad_(3 * config.hidden, 0.0f),
      out_w_(config.num_classes, config.hidden),
      out_w_grad_(config.num_classes, config.hidden),
      out_b_(config.num_classes, 0.0f),
      out_b_grad_(config.num_classes, 0.0f),
      rng_(config.seed) {
  ADVTEXT_CHECK_SHAPE(embedding_.dim() == config_.embed_dim) << "GruClassifier: embedding dim mismatch";
  embedding_.set_frozen(freeze_embedding);
  const float bx = static_cast<float>(
      std::sqrt(6.0 / static_cast<double>(config.embed_dim + config.hidden)));
  wx_.fill_uniform(rng_, bx);
  const float bh = static_cast<float>(
      std::sqrt(3.0 / static_cast<double>(config.hidden)));
  uh_.fill_uniform(rng_, bh);
  const float bo = static_cast<float>(std::sqrt(
      6.0 / static_cast<double>(config.hidden + config.num_classes)));
  out_w_.fill_uniform(rng_, bo);
}

void GruClassifier::step(const float* x, Vector& h) const {
  const std::size_t hidden = config_.hidden;
  Vector z(hidden);
  Vector r(hidden);
  for (std::size_t j = 0; j < hidden; ++j) {
    z[j] = sigmoid(dot(wx_.row(j), x, config_.embed_dim) +
                   dot(uh_.row(j), h.data(), hidden) + b_[j]);
    r[j] = sigmoid(dot(wx_.row(hidden + j), x, config_.embed_dim) +
                   dot(uh_.row(hidden + j), h.data(), hidden) +
                   b_[hidden + j]);
  }
  Vector rn(hidden);
  for (std::size_t j = 0; j < hidden; ++j) rn[j] = r[j] * h[j];
  for (std::size_t j = 0; j < hidden; ++j) {
    const float cand =
        tanh_act(dot(wx_.row(2 * hidden + j), x, config_.embed_dim) +
                  dot(uh_.row(2 * hidden + j), rn.data(), hidden) +
                  b_[2 * hidden + j]);
    h[j] = (1.0f - z[j]) * h[j] + z[j] * cand;
  }
}

Vector GruClassifier::proba_from_hidden(const Vector& h) const {
  Vector logits = matvec(out_w_, h);
  for (std::size_t c = 0; c < logits.size(); ++c) logits[c] += out_b_[c];
  return softmax(logits);
}

void GruClassifier::pack_gate_weights(PackedB* wx, PackedB* uh_zr,
                                      PackedB* uh_cand) const {
  const std::size_t hidden = config_.hidden;
  gemm_pack_b(wx_.data(), 3 * hidden, config_.embed_dim, *wx);
  gemm_pack_b(uh_.data(), 2 * hidden, hidden, *uh_zr);
  gemm_pack_b(uh_.data() + 2 * hidden * hidden, hidden, hidden, *uh_cand);
}

void GruClassifier::gate_preact_x(const PackedB& wx, const float* x,
                                  std::size_t m, float* zx) const {
  gemm_nt_packed(x, m, wx, zx);
}

void GruClassifier::gate_preact_zr(const PackedB& uh_zr, const float* h,
                                   std::size_t m, float* azr) const {
  gemm_nt_packed(h, m, uh_zr, azr);
}

void GruClassifier::gate_preact_cand(const PackedB& uh_cand, const float* rn,
                                     std::size_t m, float* acand) const {
  gemm_nt_packed(rn, m, uh_cand, acand);
}

void GruClassifier::step_gates(const float* zx, const float* azr,
                               const float* h, float* z, float* rn) const {
  // Contiguous elementwise passes (see LstmClassifier::step_from_preact):
  // same per-element expression order as the fused loop, but each pass
  // vectorizes. Bit-identical to the scalar step().
  const std::size_t hidden = config_.hidden;
  constexpr std::size_t kMaxHidden = 256;
  ADVTEXT_CHECK_SHAPE(hidden <= kMaxHidden)
      << "step_gates: hidden exceeds scratch bound";
  float s[2 * kMaxHidden];
  for (std::size_t r = 0; r < 2 * hidden; ++r) {
    s[r] = zx[r] + azr[r] + b_[r];
  }
  for (std::size_t r = 0; r < 2 * hidden; ++r) s[r] = sigmoid(s[r]);
  for (std::size_t j = 0; j < hidden; ++j) {
    z[j] = s[j];
    rn[j] = s[hidden + j] * h[j];
  }
}

void GruClassifier::step_combine(const float* zx, const float* acand,
                                 const float* z, float* h) const {
  const std::size_t hidden = config_.hidden;
  constexpr std::size_t kMaxHidden = 256;
  ADVTEXT_CHECK_SHAPE(hidden <= kMaxHidden)
      << "step_combine: hidden exceeds scratch bound";
  float cand[kMaxHidden];
  for (std::size_t j = 0; j < hidden; ++j) {
    cand[j] = zx[2 * hidden + j] + acand[j] + b_[2 * hidden + j];
  }
  for (std::size_t j = 0; j < hidden; ++j) cand[j] = tanh_act(cand[j]);
  for (std::size_t j = 0; j < hidden; ++j) {
    h[j] = (1.0f - z[j]) * h[j] + z[j] * cand[j];
  }
}

void GruClassifier::proba_from_hidden_batch(const float* h, std::size_t m,
                                            float* proba) const {
  const std::size_t classes = config_.num_classes;
  gemm_nt(h, m, out_w_.data(), classes, config_.hidden, proba);
  for (std::size_t i = 0; i < m; ++i) {
    float* row = proba + i * classes;
    for (std::size_t c = 0; c < classes; ++c) row[c] += out_b_[c];
    softmax_inplace(row, classes);
  }
}

Vector GruClassifier::forward_traced(const TokenSeq& tokens,
                                     std::vector<StepTrace>* traces,
                                     Matrix* embedded) const {
  ADVTEXT_CHECK_SHAPE(!tokens.empty()) << "GruClassifier: empty input";
  const std::size_t hidden = config_.hidden;
  Matrix emb = embedding_.lookup(tokens);
  Vector h(hidden, 0.0f);
  if (traces != nullptr) traces->resize(tokens.size());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const float* x = emb.row(t);
    StepTrace trace;
    trace.z.resize(hidden);
    trace.r.resize(hidden);
    trace.htilde.resize(hidden);
    trace.h.resize(hidden);
    Vector rn(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      trace.z[j] = sigmoid(dot(wx_.row(j), x, config_.embed_dim) +
                           dot(uh_.row(j), h.data(), hidden) + b_[j]);
      trace.r[j] =
          sigmoid(dot(wx_.row(hidden + j), x, config_.embed_dim) +
                  dot(uh_.row(hidden + j), h.data(), hidden) +
                  b_[hidden + j]);
      rn[j] = trace.r[j] * h[j];
    }
    for (std::size_t j = 0; j < hidden; ++j) {
      trace.htilde[j] =
          tanh_act(dot(wx_.row(2 * hidden + j), x, config_.embed_dim) +
                    dot(uh_.row(2 * hidden + j), rn.data(), hidden) +
                    b_[2 * hidden + j]);
      trace.h[j] =
          (1.0f - trace.z[j]) * h[j] + trace.z[j] * trace.htilde[j];
    }
    h = trace.h;
    if (traces != nullptr) (*traces)[t] = std::move(trace);
  }
  if (embedded != nullptr) *embedded = std::move(emb);
  return proba_from_hidden(h);
}

Vector GruClassifier::predict_proba(const TokenSeq& tokens) const {
  ADVTEXT_CHECK_SHAPE(!tokens.empty()) << "GruClassifier: empty input";
  const Matrix emb = embedding_.lookup(tokens);
  Vector h(config_.hidden, 0.0f);
  for (std::size_t t = 0; t < tokens.size(); ++t) step(emb.row(t), h);
  return proba_from_hidden(h);
}

template <typename OnGrads>
void GruClassifier::bptt(const std::vector<StepTrace>& traces,
                         Vector dh_final, OnGrads&& on_grads,
                         Matrix* input_grad) const {
  const std::size_t hidden = config_.hidden;
  Vector dh = std::move(dh_final);
  Vector daz(hidden);
  Vector dar(hidden);
  Vector dah(hidden);
  for (std::size_t t = traces.size(); t-- > 0;) {
    const StepTrace& tr = traces[t];
    // n = h_{t-1} (zero vector at t = 0).
    const Vector* n_ptr = t > 0 ? &traces[t - 1].h : nullptr;
    Vector dn(hidden, 0.0f);
    Vector drn(hidden, 0.0f);
    for (std::size_t j = 0; j < hidden; ++j) {
      const float n = n_ptr != nullptr ? (*n_ptr)[j] : 0.0f;
      const float dhj = dh[j];
      const float dhtilde = dhj * tr.z[j];
      const float dz = dhj * (tr.htilde[j] - n);
      dn[j] += dhj * (1.0f - tr.z[j]);
      dah[j] = dhtilde * (1.0f - tr.htilde[j] * tr.htilde[j]);
      daz[j] = dz * tr.z[j] * (1.0f - tr.z[j]);
    }
    // d(r∘n) = Uh^T dah; then dr and dn contributions.
    for (std::size_t j = 0; j < hidden; ++j) drn[j] = 0.0f;
    for (std::size_t row = 0; row < hidden; ++row) {
      const float da = dah[row];
      if (da == 0.0f) continue;
      const float* u = uh_.row(2 * hidden + row);
      for (std::size_t j = 0; j < hidden; ++j) drn[j] += da * u[j];
    }
    for (std::size_t j = 0; j < hidden; ++j) {
      const float n = n_ptr != nullptr ? (*n_ptr)[j] : 0.0f;
      const float dr = drn[j] * n;
      dar[j] = dr * tr.r[j] * (1.0f - tr.r[j]);
      dn[j] += drn[j] * tr.r[j];
    }
    on_grads(t, daz, dar, dah, n_ptr);
    // dn += Uz^T daz + Ur^T dar.
    for (std::size_t row = 0; row < hidden; ++row) {
      const float dz = daz[row];
      const float dr = dar[row];
      const float* uz = uh_.row(row);
      const float* ur = uh_.row(hidden + row);
      for (std::size_t j = 0; j < hidden; ++j) {
        dn[j] += dz * uz[j] + dr * ur[j];
      }
    }
    if (input_grad != nullptr) {
      float* gx = input_grad->row(t);
      for (std::size_t row = 0; row < hidden; ++row) {
        const float dz = daz[row];
        const float dr = dar[row];
        const float da = dah[row];
        const float* wz = wx_.row(row);
        const float* wr = wx_.row(hidden + row);
        const float* wh = wx_.row(2 * hidden + row);
        for (std::size_t d = 0; d < config_.embed_dim; ++d) {
          gx[d] += dz * wz[d] + dr * wr[d] + da * wh[d];
        }
      }
    }
    dh = std::move(dn);
  }
}

Matrix GruClassifier::input_gradient(const TokenSeq& tokens,
                                     std::size_t target,
                                     Vector* proba) const {
  ADVTEXT_CHECK_SHAPE(target < config_.num_classes) << "GruClassifier::input_gradient: target out of range";
  std::vector<StepTrace> traces;
  const Vector p = forward_traced(tokens, &traces, nullptr);
  if (proba != nullptr) *proba = p;
  Vector dlogits(p.size());
  for (std::size_t c = 0; c < p.size(); ++c) {
    dlogits[c] = p[target] * ((c == target ? 1.0f : 0.0f) - p[c]);
  }
  Vector dh = matvec_transposed(out_w_, dlogits);
  Matrix grad(tokens.size(), config_.embed_dim);
  bptt(traces, std::move(dh),
       [](std::size_t, const Vector&, const Vector&, const Vector&,
          const Vector*) {},
       &grad);
  return grad;
}

float GruClassifier::forward_backward(const TokenSeq& tokens,
                                      std::size_t label) {
  ADVTEXT_CHECK_SHAPE(label < config_.num_classes) << "GruClassifier::forward_backward: label out of range";
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
  for (std::size_t c = 0; c < logits.size(); ++c) logits[c] += out_b_[c];
  const float loss = cross_entropy(logits, label);
  const Vector dlogits = cross_entropy_grad(logits, label);

  add_outer(out_w_grad_, 1.0f, dlogits, h_final);
  for (std::size_t c = 0; c < dlogits.size(); ++c) {
    out_b_grad_[c] += dlogits[c];
  }
  Vector dh = matvec_transposed(out_w_, dlogits);
  for (std::size_t j = 0; j < config_.hidden; ++j) dh[j] *= mask[j];

  const bool train_embedding = !embedding_.frozen();
  Matrix input_grad(tokens.size(), config_.embed_dim);
  const std::size_t hidden = config_.hidden;
  bptt(
      traces, std::move(dh),
      [&](std::size_t t, const Vector& daz, const Vector& dar,
          const Vector& dah, const Vector* n_ptr) {
        const float* x = embedded.row(t);
        // Candidate-gate U gradient uses r∘n; gate gradients use n.
        const StepTrace& tr = traces[t];
        for (std::size_t row = 0; row < hidden; ++row) {
          const float gates[3] = {daz[row], dar[row], dah[row]};
          for (std::size_t g = 0; g < 3; ++g) {
            const float dv = gates[g];
            if (dv == 0.0f) continue;
            const std::size_t stacked = g * hidden + row;
            float* wxg = wx_grad_.row(stacked);
            for (std::size_t d = 0; d < config_.embed_dim; ++d) {
              wxg[d] += dv * x[d];
            }
            b_grad_[stacked] += dv;
            if (n_ptr != nullptr) {
              float* uhg = uh_grad_.row(stacked);
              for (std::size_t j = 0; j < hidden; ++j) {
                const float basis =
                    g == 2 ? tr.r[j] * (*n_ptr)[j] : (*n_ptr)[j];
                uhg[j] += dv * basis;
              }
            }
          }
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

std::vector<ParamRef> GruClassifier::params() {
  std::vector<ParamRef> refs = {
      {wx_.data(), wx_grad_.data(), wx_.size()},
      {uh_.data(), uh_grad_.data(), uh_.size()},
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

void GruClassifier::zero_grad() {
  wx_grad_.fill(0.0f);
  uh_grad_.fill(0.0f);
  std::fill(b_grad_.begin(), b_grad_.end(), 0.0f);
  out_w_grad_.fill(0.0f);
  std::fill(out_b_grad_.begin(), out_b_grad_.end(), 0.0f);
  embedding_.zero_grad();
}

// ---- Prefix-cached swap evaluator ------------------------------------------

namespace {

/// The GRU's state (h) and two-gemm gate pass for RecurrentSwapEvaluator.
struct GruCell {
  using Model = GruClassifier;
  static constexpr std::size_t kStates = 1;  // h
  static constexpr std::size_t kGates = 3;   // z, r, h~

  explicit GruCell(const GruClassifier& m) : model(m) {}

  void pack() { model.pack_gate_weights(&wx, &uh_zr, &uh_cand); }

  void input_preact(const float* x, std::size_t m, float* zx) const {
    model.gate_preact_x(wx, x, m, zx);
  }

  void advance(const float* const* zx, std::size_t m, float* const* state) {
    const std::size_t hidden = model.config().hidden;
    if (azr.rows() < m) {
      azr = Matrix(m, 2 * hidden);
      z = Matrix(m, hidden);
      rn = Matrix(m, hidden);
      acand = Matrix(m, hidden);
    }
    float* h = state[0];
    model.gate_preact_zr(uh_zr, h, m, azr.data());
    for (std::size_t j = 0; j < m; ++j) {
      model.step_gates(zx[j], azr.row(j), h + j * hidden, z.row(j),
                       rn.row(j));
    }
    model.gate_preact_cand(uh_cand, rn.data(), m, acand.data());
    for (std::size_t j = 0; j < m; ++j) {
      model.step_combine(zx[j], acand.row(j), z.row(j), h + j * hidden);
    }
  }

  const GruClassifier& model;
  PackedB wx, uh_zr, uh_cand;
  Matrix azr, z, rn, acand;
};

}  // namespace

std::unique_ptr<SwapEvaluator> GruClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<RecurrentSwapEvaluator<GruCell>>(*this, base);
}

}  // namespace advtext
