#include "src/nn/lstm.h"

#include "src/nn/recurrent_classifier_impl.h"
#include "src/tensor/ops.h"

namespace advtext {

void LstmCell::init_bias(Vector& b, std::size_t hidden) {
  for (std::size_t j = 0; j < hidden; ++j) b[hidden + j] = 1.0f;
}

void LstmCell::step(const GateWeights& w, const float* x, State& state,
                    Trace* trace) {
  const std::size_t hidden = w.hidden();
  Vector& h = state[0];
  Vector& c = state[1];
  Vector z(4 * hidden);
  for (std::size_t r = 0; r < 4 * hidden; ++r) {
    z[r] = dot(w.wx.row(r), x, w.wx.cols()) +
           dot(w.wh.row(r), h.data(), hidden) + w.b[r];
  }
  for (std::size_t j = 0; j < hidden; ++j) {
    z[j] = sigmoid(z[j]);
    z[hidden + j] = sigmoid(z[hidden + j]);
    z[2 * hidden + j] = tanh_act(z[2 * hidden + j]);
    z[3 * hidden + j] = sigmoid(z[3 * hidden + j]);
    c[j] = z[hidden + j] * c[j] + z[j] * z[2 * hidden + j];
    h[j] = z[3 * hidden + j] * tanh_act(c[j]);
  }
  if (trace != nullptr) *trace = {std::move(z), c, h};
}

void LstmCell::backward_step(const GateWeights& w, const Trace& tr,
                             const Trace* prev, State& dstate, float* dz,
                             float* dx) {
  const std::size_t hidden = w.hidden();
  const float* ig = tr.gates.data();
  const float* fg = ig + hidden;
  const float* gg = ig + 2 * hidden;
  const float* og = ig + 3 * hidden;
  Vector& dh = dstate[0];
  Vector& dc = dstate[1];
  for (std::size_t j = 0; j < hidden; ++j) {
    const float tanh_c = tanh_act(tr.c[j]);
    const float do_ = dh[j] * tanh_c;
    const float dct = dc[j] + dh[j] * og[j] * (1.0f - tanh_c * tanh_c);
    const float di = dct * gg[j];
    const float dg = dct * ig[j];
    const float cp = prev != nullptr ? prev->c[j] : 0.0f;
    const float df = dct * cp;
    dc[j] = dct * fg[j];
    dz[j] = di * ig[j] * (1.0f - ig[j]);
    dz[hidden + j] = df * fg[j] * (1.0f - fg[j]);
    dz[2 * hidden + j] = dg * (1.0f - gg[j] * gg[j]);
    dz[3 * hidden + j] = do_ * og[j] * (1.0f - og[j]);
  }
  // dh_prev = Wh^T dz; dx += Wx^T dz.
  Vector dh_prev(hidden, 0.0f);
  for (std::size_t r = 0; r < 4 * hidden; ++r) {
    const float dzr = dz[r];
    if (dzr == 0.0f) continue;
    const float* whr = w.wh.row(r);
    for (std::size_t j = 0; j < hidden; ++j) dh_prev[j] += dzr * whr[j];
  }
  if (dx != nullptr) {
    for (std::size_t r = 0; r < 4 * hidden; ++r) {
      const float dzr = dz[r];
      if (dzr == 0.0f) continue;
      const float* wxr = w.wx.row(r);
      for (std::size_t d = 0; d < w.wx.cols(); ++d) dx[d] += dzr * wxr[d];
    }
  }
  dh = std::move(dh_prev);
}

void LstmCell::pack() {
  gemm_pack_b(weights.wh.data(), weights.wh.rows(), weights.wh.cols(), wh);
}

void LstmCell::reserve(Scratch& scratch, std::size_t m) const {
  if (scratch.zh.rows() < m) scratch.zh = Matrix(m, weights.wh.rows());
}

void LstmCell::advance(const float* const* zx, std::size_t m,
                       float* const* state, Scratch& scratch) const {
  const std::size_t hidden = weights.hidden();
  gemm_nt_packed(state[0], m, wh, scratch.zh.data());
  for (std::size_t j = 0; j < m; ++j) {
    gate_pass(zx[j], scratch.zh.row(j), state[0] + j * hidden,
              state[1] + j * hidden);
  }
}

ADVTEXT_AVX2_CLONES
void LstmCell::gate_pass(const float* zx, float* z, float* h,
                         float* c) const {
  // Contiguous elementwise passes, so the gate nonlinearities vectorize:
  // the pre-activations, one sigmoid/tanh pass per gate block [i | f | g |
  // o], then the state update. Per element these are step()'s expressions
  // in step()'s order, (zx + zh) + b then the activation, so the bits are
  // the same.
  const std::size_t hidden = weights.hidden();
  const float* b = weights.b.data();
  for (std::size_t r = 0; r < 4 * hidden; ++r) z[r] = zx[r] + z[r] + b[r];
  for (std::size_t r = 0; r < 2 * hidden; ++r) z[r] = sigmoid(z[r]);
  for (std::size_t r = 2 * hidden; r < 3 * hidden; ++r) z[r] = tanh_act(z[r]);
  for (std::size_t r = 3 * hidden; r < 4 * hidden; ++r) z[r] = sigmoid(z[r]);
  for (std::size_t j = 0; j < hidden; ++j) {
    c[j] = z[hidden + j] * c[j] + z[j] * z[2 * hidden + j];
  }
  // The i block is free once c is updated: it takes tanh(c).
  for (std::size_t j = 0; j < hidden; ++j) z[j] = tanh_act(c[j]);
  for (std::size_t j = 0; j < hidden; ++j) h[j] = z[3 * hidden + j] * z[j];
}

template class RecurrentClassifier<LstmCell>;

}  // namespace advtext
