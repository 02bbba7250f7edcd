// One-layer GRU text classifier (Cho et al. 2014).
//
// A second recurrent victim family beyond the paper's LSTM: the attacks
// only touch the TextClassifier interface, so the GRU drops in anywhere
// the benches use the LSTM. GruCell is what the GRU adds to
// RecurrentClassifier (recurrent_classifier.h): its three gates, the scalar
// step and the BPTT step, and the two-gemm batched step the prefix-cached
// swap evaluator (RecurrentSwapEvaluator) runs.
//
// Gate equations (n = h_{t-1}):
//   z = σ(Wz x + Uz n + bz)            update gate
//   r = σ(Wr x + Ur n + br)            reset gate
//   h~ = tanh(Wh x + Uh (r∘n) + bh)    candidate state
//   h = (1-z)∘n + z∘h~
#pragma once

#include <array>
#include <cstddef>

#include "src/nn/recurrent_classifier.h"
#include "src/tensor/tensor.h"

namespace advtext {

struct GruCell {
  static constexpr std::size_t kStates = 1;  // h
  static constexpr std::size_t kGates = 3;   // z, r, h~
  using State = std::array<Vector, kStates>;

  /// One step's activations: the gates [z | r | h~], the reset-gated
  /// state r∘n the candidate's recurrent weights multiplied, and the new h.
  struct Trace {
    Vector gates, rn, h;
  };

  /// All gate biases start at 0.
  static void init_bias(Vector& /*b*/, std::size_t /*hidden*/) {}

  static void step(const GateWeights& w, const float* x, State& state,
                   Trace* trace);

  static void backward_step(const GateWeights& w, const Trace& tr,
                            const Trace* prev, State& dstate, float* dz,
                            float* dx);

  static const float* recurrent_input(const Trace& tr, const Trace& prev,
                                      std::size_t gate) {
    return gate == 2 ? tr.rn.data() : prev.h.data();
  }

  // -- Batched members for RecurrentSwapEvaluator --------------------------
  // Each output element is the same ascending-k dot the scalar step
  // computes, and the gate passes run step's per-element expressions, so a
  // batched row equals predict_proba bit for bit.

  struct Scratch {
    Matrix azr;    ///< z/r recurrent pre-activations, then the gates
    Matrix rn;     ///< r∘n rows, the candidate gemm's input
    Matrix acand;  ///< candidate recurrent pre-activations, then h~
  };

  explicit GruCell(const GateWeights& w) : weights(w) {}

  /// Packs the recurrent weights; the evaluator calls it at every rebase.
  void pack();
  void reserve(Scratch& scratch, std::size_t m) const;
  /// One step for m rows; state[0] points at m stacked h rows, updated in
  /// place.
  void advance(const float* const* zx, std::size_t m, float* const* state,
               Scratch& scratch) const;

  const GateWeights& weights;
  PackedB uh_zr, uh_cand;
};

using GruClassifier = RecurrentClassifier<GruCell>;
using GruConfig = RecurrentConfig;

extern template class RecurrentClassifier<GruCell>;

}  // namespace advtext
