// Tests for the optimal-transport solvers: exact solver vs brute force on
// tiny instances, marginal feasibility, Sinkhorn convergence toward the
// exact value, and the RWMD lower-bound property.
#include <gtest/gtest.h>

#include <cmath>

#include "src/optim/transport.h"
#include "src/util/rng.h"

namespace advtext {
namespace {

// Brute-force transportation optimum by discretizing the Birkhoff polytope
// is infeasible; instead use instances with known closed-form answers and
// cross-check properties.

TEST(TransportExact, IdenticalDistributionsZeroCostDiagonal) {
  Matrix cost = {{0.0f, 1.0f}, {1.0f, 0.0f}};
  Matrix plan;
  const double obj =
      solve_transport_exact(cost, {0.5, 0.5}, {0.5, 0.5}, &plan);
  EXPECT_NEAR(obj, 0.0, 1e-9);
  EXPECT_NEAR(plan(0, 0), 0.5, 1e-9);
  EXPECT_NEAR(plan(1, 1), 0.5, 1e-9);
}

TEST(TransportExact, SingleSourceSingleSink) {
  Matrix cost = {{3.7f}};
  const double obj = solve_transport_exact(cost, {2.0}, {5.0});
  // Masses are normalized; all mass ships at cost 3.7.
  EXPECT_NEAR(obj, 3.7, 1e-6);
}

TEST(TransportExact, KnownOptimalAssignment) {
  // 2x2 with a clear optimal permutation.
  Matrix cost = {{1.0f, 10.0f}, {10.0f, 1.0f}};
  const double obj = solve_transport_exact(cost, {0.5, 0.5}, {0.5, 0.5});
  EXPECT_NEAR(obj, 1.0, 1e-9);
}

TEST(TransportExact, ForcedCrossShipment) {
  // Source 0 has more mass than sink 0 can take: optimum splits.
  Matrix cost = {{0.0f, 2.0f}, {3.0f, 0.0f}};
  const double obj = solve_transport_exact(cost, {0.75, 0.25}, {0.5, 0.5});
  // 0.5 ships 0->0 (0), 0.25 ships 0->1 (2), 0.25 ships 1->1 (0).
  EXPECT_NEAR(obj, 0.25 * 2.0, 1e-9);
}

TEST(TransportExact, ReverseArcBottleneckKeepsDoublePrecision) {
  // Hand-solved optimum: row 1 ships 5/11 to column 0 (cost 1) and 1/22 to
  // column 1 (cost 4), row 0 ships 1/2 to column 1 (cost 1), for
  // 10/22 + 4/22 + 11/22 = 25/22. The solver first ships 5/11 along
  // (0, 0) and later sends it back over that arc as a reverse-arc
  // bottleneck; a float flow rounds it and lands 3.6e-8 off.
  Matrix cost = {{1.0f, 1.0f}, {1.0f, 4.0f}};
  const double obj = solve_transport_exact(cost, {1.0, 1.0}, {5.0, 6.0});
  EXPECT_NEAR(obj, 25.0 / 22.0, 1e-12 * (25.0 / 22.0));
}

TEST(TransportExact, PlanSatisfiesMarginals) {
  Rng rng(4);
  const std::size_t n = 6;
  const std::size_t m = 8;
  Matrix cost(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      cost(i, j) = static_cast<float>(rng.uniform(0.0, 5.0));
    }
  }
  std::vector<double> a(n);
  std::vector<double> b(m);
  for (double& x : a) x = rng.uniform(0.1, 1.0);
  for (double& x : b) x = rng.uniform(0.1, 1.0);
  Matrix plan;
  solve_transport_exact(cost, a, b, &plan);
  double ta = 0.0;
  for (double x : a) ta += x;
  double tb = 0.0;
  for (double x : b) tb += x;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_GE(plan(i, j), -1e-7);
      row += plan(i, j);
    }
    EXPECT_NEAR(row, a[i] / ta, 1e-6);
  }
  for (std::size_t j = 0; j < m; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < n; ++i) col += plan(i, j);
    EXPECT_NEAR(col, b[j] / tb, 1e-6);
  }
}

TEST(TransportExact, DualFeasibleLowerBoundsHold) {
  // The exact objective can never be below the relaxed lower bound.
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(5);
    const std::size_t m = 2 + rng.uniform_index(5);
    Matrix cost(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        cost(i, j) = static_cast<float>(rng.uniform(0.0, 3.0));
      }
    }
    std::vector<double> a(n, 0.0);
    std::vector<double> b(m, 0.0);
    for (double& x : a) x = rng.uniform(0.05, 1.0);
    for (double& x : b) x = rng.uniform(0.05, 1.0);
    const double exact = solve_transport_exact(cost, a, b);
    const double lb = transport_relaxed_lower_bound(cost, a, b);
    EXPECT_GE(exact + 1e-7, lb);
  }
}

TEST(TransportExact, RejectsBadInput) {
  Matrix cost = {{1.0f}};
  EXPECT_THROW(solve_transport_exact(cost, {0.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(solve_transport_exact(cost, {-1.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(solve_transport_exact(cost, {1.0, 1.0}, {1.0}),
               std::invalid_argument);
}

TEST(TransportSinkhorn, ApproachesExactForSmallReg) {
  Rng rng(12);
  Matrix cost(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      cost(i, j) = static_cast<float>(rng.uniform(0.0, 2.0));
    }
  }
  const std::vector<double> a = {0.25, 0.25, 0.25, 0.25};
  const std::vector<double> b = {0.4, 0.3, 0.2, 0.1};
  const double exact = solve_transport_exact(cost, a, b);
  const SinkhornResult sinkhorn =
      solve_transport_sinkhorn(cost, a, b, /*reg=*/0.05, /*iterations=*/500);
  EXPECT_NEAR(sinkhorn.cost, exact, 0.15);
  EXPECT_GE(sinkhorn.cost + 0.02, exact);  // entropic cost >= exact
  EXPECT_GT(sinkhorn.iterations, 0u);
  EXPECT_LT(sinkhorn.marginal_error, 1e-3);
}

TEST(TransportSinkhorn, PlanMarginalsApproximatelyFeasible) {
  Matrix cost = {{0.5f, 1.5f}, {2.0f, 0.2f}};
  Matrix plan;
  const SinkhornResult status =
      solve_transport_sinkhorn(cost, {0.6, 0.4}, {0.3, 0.7}, 0.1, 400, &plan);
  EXPECT_NEAR(plan(0, 0) + plan(0, 1), 0.6, 1e-3);
  EXPECT_NEAR(plan(0, 0) + plan(1, 0), 0.3, 1e-3);
  EXPECT_TRUE(status.converged);
  EXPECT_LE(status.iterations, 400u);
}

TEST(TransportSinkhorn, RejectsNonPositiveReg) {
  Matrix cost = {{1.0f}};
  EXPECT_THROW((void)solve_transport_sinkhorn(cost, {1.0}, {1.0}, 0.0),
               std::invalid_argument);
}

TEST(TransportRelaxed, ExactOnOneByOne) {
  Matrix cost = {{2.5f}};
  EXPECT_NEAR(transport_relaxed_lower_bound(cost, {1.0}, {1.0}), 2.5, 1e-9);
}

}  // namespace
}  // namespace advtext
