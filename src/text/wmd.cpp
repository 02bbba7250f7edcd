#include "src/text/wmd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/util/check.h"
#include "src/util/det_accum.h"
#include "src/util/robust.h"

namespace advtext {

Wmd::Wmd(const Matrix& embeddings, Method method)
    : embeddings_(embeddings), method_(method) {}

double Wmd::word_distance(WordId a, WordId b) const {
  ADVTEXT_CHECK(a >= 0 && b >= 0 &&
                static_cast<std::size_t>(a) < embeddings_.rows() &&
                static_cast<std::size_t>(b) < embeddings_.rows())
      << "Wmd::word_distance: word ids " << a << ", " << b
      << " out of range for " << embeddings_.rows() << " embeddings";
  if (a == b) return 0.0;
  const std::size_t dim = embeddings_.cols();
  const float* va = embeddings_.row(static_cast<std::size_t>(a));
  const float* vb = embeddings_.row(static_cast<std::size_t>(b));
  return std::sqrt(det_sq_dist(va, vb, dim));
}

double Wmd::word_similarity(WordId a, WordId b) const {
  return std::exp(-word_distance(a, b));
}

double Wmd::solve_cost(const Matrix& cost, const std::vector<double>& pa,
                       const std::vector<double>& pb) const {
  // Last line of defense: never throws for cost reasons, and is orders of
  // magnitude cheaper than either real solver.
  const auto lower_bound = [&] {
    to_lower_bound_.fetch_add(1, std::memory_order_relaxed);
    return transport_relaxed_lower_bound(cost, pa, pb);
  };
  // Middle tier: entropic approximation; poisonable at "wmd.sinkhorn" so
  // tests can force the full exact→Sinkhorn→nBOW chain.
  const auto sinkhorn = [&]() -> double {
    try {
      const SinkhornResult status = solve_transport_sinkhorn(cost, pa, pb);
      const double value =
          FaultInjector::instance().poison("wmd.sinkhorn", status.cost);
      if (std::isfinite(value)) return value;
    } catch (const std::runtime_error&) {
    }
    return lower_bound();
  };
  switch (method_) {
    case Method::kExact:
      try {
        return solve_transport_exact(cost, pa, pb);
      } catch (const std::runtime_error&) {
        // TransportLimitError (augmentation cap), degenerate-solve errors,
        // and injected faults all degrade; logic/shape errors propagate.
        to_sinkhorn_.fetch_add(1, std::memory_order_relaxed);
        return sinkhorn();
      }
    case Method::kSinkhorn:
      return sinkhorn();
    case Method::kRelaxed:
      return transport_relaxed_lower_bound(cost, pa, pb);
  }
  return lower_bound();  // unreachable
}

double Wmd::distance(const Sentence& a, const Sentence& b) const {
  FaultInjector::instance().maybe_fault("wmd.distance");
  if (a.empty() && b.empty()) return 0.0;
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  const auto len_a = static_cast<std::int64_t>(a.size());
  const auto len_b = static_cast<std::int64_t>(b.size());
  // Mass difference scaled by |a|*|b| so it stays an exact integer:
  // d(w) = c_a(w)*|b| - c_b(w)*|a|. Each token carries its signed share,
  // and sorting by word id makes every word's d the sum of one run.
  // Surplus words (d > 0) become the sources, deficit words (d < 0) the
  // sinks, both in ascending id order.
  std::vector<std::pair<WordId, std::int64_t>> shares;
  shares.reserve(a.size() + b.size());
  for (WordId w : a) shares.emplace_back(w, len_b);
  for (WordId w : b) shares.emplace_back(w, -len_a);
  std::sort(shares.begin(), shares.end());
  std::vector<WordId> sources;
  std::vector<WordId> sinks;
  std::vector<double> supply;
  std::vector<double> demand;
  std::int64_t moved = 0;
  for (std::size_t i = 0; i < shares.size();) {
    const WordId w = shares[i].first;
    std::int64_t d = 0;
    for (; i < shares.size() && shares[i].first == w; ++i) {
      d += shares[i].second;
    }
    if (d > 0) {
      sources.push_back(w);
      supply.push_back(static_cast<double>(d));
      moved += d;
    } else if (d < 0) {
      sinks.push_back(w);
      demand.push_back(static_cast<double>(-d));
    }
  }
  if (moved == 0) return 0.0;  // proportional counts: no mass moves
  ADVTEXT_DCHECK(det_sum(demand) == static_cast<double>(moved))
      << "Wmd::distance: surplus " << moved << " != deficit "
      << det_sum(demand);
  Matrix cost(sources.size(), sinks.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t t = 0; t < sinks.size(); ++t) {
      cost(s, t) = static_cast<float>(word_distance(sources[s], sinks[t]));
    }
  }
  ADVTEXT_DCHECK(all_finite(cost.data(), cost.size()))
      << "Wmd::distance: non-finite ground cost (corrupt embeddings?)";
  const double result = solve_cost(cost, supply, demand) *
                        static_cast<double>(moved) /
                        static_cast<double>(len_a * len_b);
  ADVTEXT_DCHECK(std::isfinite(result) && result > -1e-9)
      << "Wmd::distance: solver returned " << result;
  return result;
}

double Wmd::similarity(const Sentence& a, const Sentence& b) const {
  return std::exp(-distance(a, b));
}

}  // namespace advtext
