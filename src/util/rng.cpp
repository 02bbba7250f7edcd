#include "src/util/rng.h"

#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace advtext {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
  const std::uint64_t threshold = -n % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("categorical: weights sum to zero");
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical slack: land on the last bucket
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::fork() { return Rng(next_u64()); }

RngState Rng::state() const {
  return {s_[0], s_[1], s_[2], s_[3],
          std::bit_cast<std::uint64_t>(cached_normal_),
          has_cached_normal_ ? 1ULL : 0ULL};
}

void Rng::set_state(const RngState& state) {
  for (std::size_t i = 0; i < 4; ++i) s_[i] = state[i];
  cached_normal_ = std::bit_cast<double>(state[4]);
  has_cached_normal_ = state[5] != 0;
}

std::vector<std::uint64_t> state_words(const Rng& rng) {
  const RngState s = rng.state();
  return {s.begin(), s.end()};
}

void set_state_words(Rng& rng, const std::vector<std::uint64_t>& words) {
  RngState s{};
  for (std::size_t i = 0; i < s.size() && i < words.size(); ++i) {
    s[i] = words[i];
  }
  rng.set_state(s);
}

}  // namespace advtext
