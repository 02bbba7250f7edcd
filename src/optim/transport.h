// Optimal transport solvers for small dense problems.
//
// Word Mover's Distance (Kusner et al. 2015) is an earth-mover distance
// between the normalized bag-of-words of two sentences. This module solves
// the underlying transportation LP
//
//   min_P  <C, P>   s.t.  P 1 = a,  P^T 1 = b,  P >= 0
//
// exactly via successive-shortest-path min-cost flow with Dijkstra +
// node potentials (costs stay reduced-non-negative), and approximately via
// Sinkhorn iterations (entropic regularization), which the WMD ablation
// bench compares against the exact solver. The exact solver holds its flow
// in double, so its objective carries double rounding only; the float
// `plan` is converted from it at the end.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/robust.h"

namespace advtext {

/// Thrown by solve_transport_exact when an iteration cap or deadline cuts
/// the solve short. Callers that can tolerate an approximation (Wmd)
/// catch this and degrade to Sinkhorn / the relaxed lower bound.
class TransportLimitError : public std::runtime_error {
 public:
  explicit TransportLimitError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Bounds on the exact solver. max_iterations caps successive-shortest-path
/// augmentations (0 = the structural default 4*(n+m)+8, which a
/// non-degenerate solve never reaches); the deadline is checked once per
/// augmentation. Either limit hitting throws TransportLimitError.
struct TransportControl {
  std::size_t max_iterations = 0;
  Deadline deadline;
};

/// Exact transportation solve. `cost` is |a| x |b|; `a` and `b` are
/// non-negative with equal sums (normalized internally). Returns the
/// optimal objective; the optimal plan is written to *plan when non-null.
double solve_transport_exact(const Matrix& cost, std::vector<double> a,
                             std::vector<double> b, Matrix* plan = nullptr,
                             const TransportControl& control = {});

/// Solve status of the Sinkhorn iteration. [[nodiscard]]: the `converged`
/// flag is the only way to tell a usable cost from a stalled iteration.
struct [[nodiscard]] SinkhornResult {
  double cost = 0.0;            ///< <C, P> for the regularized plan
  bool converged = false;       ///< marginal error fell below tolerance
  std::size_t iterations = 0;   ///< iterations actually run
  double marginal_error = 0.0;  ///< final L1 row-marginal violation
};

/// Entropic-regularized transport via Sinkhorn-Knopp. Smaller `reg` is
/// closer to exact but slower/less stable. Stops early once the L1
/// row-marginal error drops below `tolerance`; runs at most `iterations`.
SinkhornResult solve_transport_sinkhorn(const Matrix& cost,
                                        std::vector<double> a,
                                        std::vector<double> b,
                                        double reg = 0.05,
                                        std::size_t iterations = 200,
                                        Matrix* plan = nullptr,
                                        double tolerance = 1e-9);

/// Relaxed lower bound (RWMD): each unit of `a` ships to its cheapest
/// column and vice versa; returns the max of the two one-sided bounds.
double transport_relaxed_lower_bound(const Matrix& cost,
                                     std::vector<double> a,
                                     std::vector<double> b);

}  // namespace advtext
