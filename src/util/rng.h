// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in advtext (data synthesis, weight init,
// dropout, negative sampling, stochastic greedy) takes an explicit Rng so
// that a single seed reproduces an entire experiment end to end. The
// generator is xoshiro256**, seeded through splitmix64, matching the
// reference implementations by Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace advtext {

/// Serializable generator state: the four xoshiro words plus the Box-Muller
/// cache (bit-cast to u64) and its valid flag. Opaque to callers; produced
/// by Rng::state() and consumed by Rng::set_state() so training snapshots
/// can resume a random stream mid-sequence bitwise-identically.
using RngState = std::array<std::uint64_t, 6>;

/// Counter-based seeding helper: expands one 64-bit seed into a stream of
/// well-mixed 64-bit values. Used to seed Rng and to derive child seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value in the stream.
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can be
/// used with <random> distributions, though advtext mostly uses the typed
/// helpers below for speed and cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so that nearby seeds yield uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next_u64(); }

  /// Raw 64 bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling so
  /// the distribution is exactly uniform.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Samples an index proportionally to the given non-negative weights.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of [first, last) index order; returns a permuted
  /// index vector of size n.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator; child streams do not overlap
  /// with the parent for practical experiment sizes.
  Rng fork();

  /// Captures the complete generator state for snapshots.
  RngState state() const;

  /// Restores a state captured by state(); the stream continues exactly
  /// where the captured generator left off.
  void set_state(const RngState& state);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// The generator's state as the raw words a model's stochastic_state()
/// hands to training snapshots, and back: set_state_words restores what
/// state_words captured (missing trailing words read as zero).
std::vector<std::uint64_t> state_words(const Rng& rng);
void set_state_words(Rng& rng, const std::vector<std::uint64_t>& words);

}  // namespace advtext
