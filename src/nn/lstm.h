// One-layer LSTM text classifier (Hochreiter & Schmidhuber 1997), as used
// in the paper: embedding -> LSTM -> fully connected softmax on the final
// hidden state. LstmCell is what the LSTM adds to RecurrentClassifier
// (recurrent_classifier.h): its four gates (i, f, g, o), the forget-gate
// bias, the scalar step and the BPTT step, and the batched gate pass the
// prefix-cached swap evaluator (RecurrentSwapEvaluator) runs: a candidate
// that first differs at position p only needs the suffix recurrence from
// p, and every candidate of a round runs it in one gemm per timestep.
#pragma once

#include <array>
#include <cstddef>

#include "src/nn/recurrent_classifier.h"
#include "src/tensor/tensor.h"

namespace advtext {

struct LstmCell {
  static constexpr std::size_t kStates = 2;  // h, c
  static constexpr std::size_t kGates = 4;   // i, f, g, o
  using State = std::array<Vector, kStates>;

  /// One step's activations: the gates [i | f | g | o] and the new state.
  struct Trace {
    Vector gates, c, h;
  };

  /// Forget-gate bias 1, so gradients flow early; the others 0.
  static void init_bias(Vector& b, std::size_t hidden);

  static void step(const GateWeights& w, const float* x, State& state,
                   Trace* trace);

  static void backward_step(const GateWeights& w, const Trace& tr,
                            const Trace* prev, State& dstate, float* dz,
                            float* dx);

  static const float* recurrent_input(const Trace& /*tr*/, const Trace& prev,
                                      std::size_t /*gate*/) {
    return prev.h.data();
  }

  // -- Batched members for RecurrentSwapEvaluator --------------------------
  // Each output element is the same ascending-k dot the scalar step
  // computes, and the gate pass runs step's per-element expressions, so a
  // batched row equals predict_proba bit for bit.

  struct Scratch {
    Matrix zh;  ///< recurrent pre-activations, then the gates, per row
  };

  explicit LstmCell(const GateWeights& w) : weights(w) {}

  /// Packs the recurrent weights; the evaluator calls it at every rebase.
  void pack();
  void reserve(Scratch& scratch, std::size_t m) const;
  /// One step for m rows; state[0] and state[1] point at m stacked h and c
  /// rows, updated in place.
  void advance(const float* const* zx, std::size_t m, float* const* state,
               Scratch& scratch) const;

  const GateWeights& weights;
  PackedB wh;

 private:
  /// One row's gate pass, in place in z (its recurrent pre-activations).
  /// Built for AVX2 and for the baseline ISA and picked per CPU
  /// (ADVTEXT_AVX2_CLONES), same bits.
  void gate_pass(const float* zx, float* z, float* h, float* c) const;
};

using LstmClassifier = RecurrentClassifier<LstmCell>;
using LstmConfig = RecurrentConfig;

extern template class RecurrentClassifier<LstmCell>;

}  // namespace advtext
