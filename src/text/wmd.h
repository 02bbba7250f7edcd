// Word Mover's Distance (Kusner et al. 2015) over sentence pairs, plus the
// word-level special case the paper uses for word-paraphrase filtering.
//
// The paper uses WMD twice (Alg. 1):
//   * sentence neighbour sets: WMD(s_i, s) <= δs, and
//   * word neighbour sets:     WMD(w_i, w) <= δw (embedding distance).
// Similarities are reported in [0, 1] with 1 = identical (matching the
// spaCy convention cited in the paper); we map distance d to exp(-d).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "src/optim/transport.h"
#include "src/tensor/tensor.h"
#include "src/text/corpus.h"

namespace advtext {

/// Per-instance tally of graceful degradations (see Wmd::distance). The
/// counters are cumulative; the attack pipeline snapshots them around each
/// document to attribute degradations per doc.
struct WmdDegradation {
  std::size_t to_sinkhorn = 0;     ///< exact solve fell back to Sinkhorn
  std::size_t to_lower_bound = 0;  ///< Sinkhorn fell back to the nBOW bound
  std::size_t total() const { return to_sinkhorn + to_lower_bound; }
};

class Wmd {
 public:
  enum class Method { kExact, kRelaxed, kSinkhorn };

  /// `embeddings` must outlive this object (vocab_size x dim).
  explicit Wmd(const Matrix& embeddings, Method method = Method::kExact);

  /// Copy shares the embedding matrix reference and configuration but
  /// starts a *fresh* degradation tally: the tally is per-instance
  /// accounting, not part of the metric. The attack sweep copies one
  /// configured Wmd per worker, worker 0 included, so per-doc degradation
  /// deltas never mix across workers or across sweeps sharing a context.
  Wmd(const Wmd& other)
      : embeddings_(other.embeddings_), method_(other.method_) {}
  Wmd& operator=(const Wmd&) = delete;  // reference member pins assignment

  Method method() const { return method_; }

  /// Snapshot of the degradations recorded so far. distance() is const (Wmd
  /// is shared read-only across the pipeline), so the tally is mutable
  /// state backed by per-instance atomics — concurrent distance() calls on
  /// one instance cannot corrupt the counters, and the snapshot is returned
  /// by value so callers never hold a reference into racing state. (The
  /// sweep still gives each worker its own copy: atomics make the tally
  /// safe, not per-thread attributable.)
  WmdDegradation degradation() const {
    WmdDegradation snapshot;
    snapshot.to_sinkhorn = to_sinkhorn_.load(std::memory_order_relaxed);
    snapshot.to_lower_bound = to_lower_bound_.load(std::memory_order_relaxed);
    return snapshot;
  }
  void reset_degradation() const {
    to_sinkhorn_.store(0, std::memory_order_relaxed);
    to_lower_bound_.store(0, std::memory_order_relaxed);
  }

  /// Euclidean distance between two word embeddings.
  double word_distance(WordId a, WordId b) const;

  /// exp(-word_distance); 1 for identical words.
  double word_similarity(WordId a, WordId b) const;

  /// WMD between two sentences (normalized bag-of-words mover distance).
  /// Returns 0 if both are empty, +inf if exactly one is empty, and 0 when
  /// the two word counts are proportional.
  ///
  /// The ground cost is a metric, so the optimal transport cost depends
  /// only on the mass difference a - b (Kantorovich-Rubinstein duality):
  /// mass two sentences share stays where it is. The solve therefore runs
  /// on the difference only. It is taken in exact integers, d(w) =
  /// c_a(w)*|b| - c_b(w)*|a|, so no tolerance decides which words take
  /// part; the words with d > 0 ship to the words with d < 0, and the
  /// unit-mass optimum is scaled by sum(d > 0) / (|a|*|b|). A one-word
  /// swap is a 1x1 problem. Every Method sees this reduced problem, and
  /// each nonzero distance makes exactly one solver call.
  ///
  /// Graceful degradation: if the exact solve hits the solver's structural
  /// augmentation cap (TransportLimitError) or fails at runtime (including
  /// an injected fault at "transport.exact"), the call falls back to the
  /// Sinkhorn approximation; if that also fails or returns a non-finite
  /// value, to the relaxed nBOW lower bound. Every fallback is recorded in
  /// degradation(). Logic/shape errors still propagate — degradation only
  /// masks *cost* failures, never contract violations.
  double distance(const Sentence& a, const Sentence& b) const;

  /// exp(-distance); in [0, 1], 1 for identical sentences.
  double similarity(const Sentence& a, const Sentence& b) const;

 private:
  /// Runs the configured solver with the degradation chain.
  double solve_cost(const Matrix& cost, const std::vector<double>& pa,
                    const std::vector<double>& pb) const;

  const Matrix& embeddings_;
  Method method_;
  // Degradation tally (see degradation()). Atomic so a shared instance is
  // safe by construction even outside the pipeline's replica discipline.
  mutable std::atomic<std::size_t> to_sinkhorn_{0};
  mutable std::atomic<std::size_t> to_lower_bound_{0};
};

}  // namespace advtext
