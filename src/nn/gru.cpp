#include "src/nn/gru.h"

#include "src/nn/recurrent_classifier_impl.h"
#include "src/tensor/ops.h"

namespace advtext {

void GruCell::step(const GateWeights& w, const float* x, State& state,
                   Trace* trace) {
  const std::size_t hidden = w.hidden();
  const std::size_t dim = w.wx.cols();
  Vector& h = state[0];
  Vector a(3 * hidden);  // z, r, h~
  for (std::size_t j = 0; j < hidden; ++j) {
    a[j] = sigmoid(dot(w.wx.row(j), x, dim) +
                   dot(w.wh.row(j), h.data(), hidden) + w.b[j]);
    a[hidden + j] = sigmoid(dot(w.wx.row(hidden + j), x, dim) +
                            dot(w.wh.row(hidden + j), h.data(), hidden) +
                            w.b[hidden + j]);
  }
  Vector rn(hidden);
  for (std::size_t j = 0; j < hidden; ++j) rn[j] = a[hidden + j] * h[j];
  for (std::size_t j = 0; j < hidden; ++j) {
    a[2 * hidden + j] =
        tanh_act(dot(w.wx.row(2 * hidden + j), x, dim) +
                 dot(w.wh.row(2 * hidden + j), rn.data(), hidden) +
                 w.b[2 * hidden + j]);
    h[j] = (1.0f - a[j]) * h[j] + a[j] * a[2 * hidden + j];
  }
  if (trace != nullptr) *trace = {std::move(a), std::move(rn), h};
}

void GruCell::backward_step(const GateWeights& w, const Trace& tr,
                            const Trace* prev, State& dstate, float* dz,
                            float* dx) {
  const std::size_t hidden = w.hidden();
  const float* z = tr.gates.data();
  const float* r = z + hidden;
  const float* htilde = z + 2 * hidden;
  float* daz = dz;
  float* dar = dz + hidden;
  float* dah = dz + 2 * hidden;
  const Vector& dh = dstate[0];
  // n = h_{t-1} (zero vector at t = 0).
  const auto n = [prev](std::size_t j) {
    return prev != nullptr ? prev->h[j] : 0.0f;
  };
  Vector dn(hidden, 0.0f);
  Vector drn(hidden, 0.0f);
  for (std::size_t j = 0; j < hidden; ++j) {
    const float dhj = dh[j];
    const float dhtilde = dhj * z[j];
    const float dzj = dhj * (htilde[j] - n(j));
    dn[j] += dhj * (1.0f - z[j]);
    dah[j] = dhtilde * (1.0f - htilde[j] * htilde[j]);
    daz[j] = dzj * z[j] * (1.0f - z[j]);
  }
  // d(r∘n) = Uh^T dah; then the dr and dn contributions.
  for (std::size_t row = 0; row < hidden; ++row) {
    const float da = dah[row];
    if (da == 0.0f) continue;
    const float* u = w.wh.row(2 * hidden + row);
    for (std::size_t j = 0; j < hidden; ++j) drn[j] += da * u[j];
  }
  for (std::size_t j = 0; j < hidden; ++j) {
    const float dr = drn[j] * n(j);
    dar[j] = dr * r[j] * (1.0f - r[j]);
    dn[j] += drn[j] * r[j];
  }
  // dn += Uz^T daz + Ur^T dar.
  for (std::size_t row = 0; row < hidden; ++row) {
    const float dzr = daz[row];
    const float drr = dar[row];
    const float* uz = w.wh.row(row);
    const float* ur = w.wh.row(hidden + row);
    for (std::size_t j = 0; j < hidden; ++j) {
      dn[j] += dzr * uz[j] + drr * ur[j];
    }
  }
  if (dx != nullptr) {
    for (std::size_t row = 0; row < hidden; ++row) {
      const float dzr = daz[row];
      const float drr = dar[row];
      const float da = dah[row];
      const float* wz = w.wx.row(row);
      const float* wr = w.wx.row(hidden + row);
      const float* wh = w.wx.row(2 * hidden + row);
      for (std::size_t d = 0; d < w.wx.cols(); ++d) {
        dx[d] += dzr * wz[d] + drr * wr[d] + da * wh[d];
      }
    }
  }
  dstate[0] = std::move(dn);
}

void GruCell::pack() {
  const std::size_t hidden = weights.hidden();
  gemm_pack_b(weights.wh.data(), 2 * hidden, hidden, uh_zr);
  gemm_pack_b(weights.wh.row(2 * hidden), hidden, hidden, uh_cand);
}

void GruCell::reserve(Scratch& scratch, std::size_t m) const {
  if (scratch.azr.rows() >= m) return;
  const std::size_t hidden = weights.hidden();
  scratch.azr = Matrix(m, 2 * hidden);
  scratch.rn = Matrix(m, hidden);
  scratch.acand = Matrix(m, hidden);
}

void GruCell::advance(const float* const* zx, std::size_t m,
                      float* const* state, Scratch& scratch) const {
  // Contiguous elementwise passes in place in the scratch rows, so each
  // vectorizes; per element they are step()'s expressions in step()'s
  // order, so the bits are the same.
  const std::size_t hidden = weights.hidden();
  const float* b = weights.b.data();
  auto& [azr, rn, acand] = scratch;
  float* h = state[0];
  gemm_nt_packed(h, m, uh_zr, azr.data());
  for (std::size_t j = 0; j < m; ++j) {
    float* s = azr.row(j);  // [z | r]
    const float* x = zx[j];
    const float* hj = h + j * hidden;
    for (std::size_t r = 0; r < 2 * hidden; ++r) s[r] = x[r] + s[r] + b[r];
    for (std::size_t r = 0; r < 2 * hidden; ++r) s[r] = sigmoid(s[r]);
    float* rnj = rn.row(j);
    for (std::size_t u = 0; u < hidden; ++u) rnj[u] = s[hidden + u] * hj[u];
  }
  gemm_nt_packed(rn.data(), m, uh_cand, acand.data());
  for (std::size_t j = 0; j < m; ++j) {
    float* cand = acand.row(j);
    const float* x = zx[j] + 2 * hidden;
    const float* z = azr.row(j);
    float* hj = h + j * hidden;
    for (std::size_t u = 0; u < hidden; ++u) {
      cand[u] = x[u] + cand[u] + b[2 * hidden + u];
    }
    for (std::size_t u = 0; u < hidden; ++u) cand[u] = tanh_act(cand[u]);
    for (std::size_t u = 0; u < hidden; ++u) {
      hj[u] = (1.0f - z[u]) * hj[u] + z[u] * cand[u];
    }
  }
}

template class RecurrentClassifier<GruCell>;

}  // namespace advtext
