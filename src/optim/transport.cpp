#include "src/optim/transport.h"

#include "src/util/check.h"
#include "src/util/det_accum.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace advtext {

namespace {

constexpr double kEps = 1e-12;

void normalize(std::vector<double>& v, const char* name) {
  double total = 0.0;
  for (double x : v) {
    ADVTEXT_CHECK_SHAPE(x >= 0.0)
        << "transport: negative mass in " << name;
    // ADVTEXT_ALLOW(float-accum): single validating pass; the order is the element order by construction
    total += x;
  }
  ADVTEXT_CHECK_SHAPE(std::isfinite(total))
      << "transport: non-finite mass in " << name;
  if (total <= 0.0) {
    throw std::invalid_argument(std::string("transport: ") + name +
                                " has zero mass");
  }
  for (double& x : v) x /= total;
}

}  // namespace

double solve_transport_exact(const Matrix& cost, std::vector<double> a,
                             std::vector<double> b, Matrix* plan,
                             const TransportControl& control) {
  FaultInjector::instance().maybe_fault("transport.exact");
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  ADVTEXT_CHECK_SHAPE(cost.rows() == n && cost.cols() == m)
      << "transport: cost is " << cost.rows() << "x" << cost.cols()
      << ", marginals are " << n << " and " << m;
  normalize(a, "a");
  normalize(b, "b");

  // Each augmentation saturates a row or a column, so a non-degenerate
  // solve needs at most n+m-1 of them; the default cap only exists to turn
  // a numerically-stuck loop into a typed, catchable failure.
  const std::size_t max_augmentations = control.max_iterations != 0
                                            ? control.max_iterations
                                            : 4 * (n + m) + 8;
  std::size_t augmentations = 0;

  // Successive shortest paths on the bipartite transportation graph with
  // node potentials. Nodes: 0..n-1 rows, n..n+m-1 columns. Because the
  // graph is dense bipartite we run Dijkstra over rows/columns directly.
  // The flow is held in double: a float flow would cap a reverse-arc
  // bottleneck at float precision and carry that error into the objective.
  std::vector<double> flow(n * m, 0.0);
  const auto flow_at = [&](std::size_t i, std::size_t j) -> double& {
    return flow[i * m + j];
  };
  std::vector<double> row_remaining = a;
  std::vector<double> col_remaining = b;
  std::vector<double> row_potential(n, 0.0);
  std::vector<double> col_potential(m, 0.0);

  const double inf = std::numeric_limits<double>::infinity();
  double objective = 0.0;
  double shipped = 0.0;

  while (shipped < 1.0 - 1e-9) {
    if (++augmentations > max_augmentations) {
      throw TransportLimitError(
          "transport: iteration cap hit after " +
          std::to_string(max_augmentations) + " augmentations (" +
          std::to_string(shipped) + " mass shipped)");
    }
    if (control.deadline.expired()) {
      throw TransportLimitError("transport: deadline expired with " +
                                std::to_string(shipped) + " mass shipped");
    }
    // Pick any row with remaining supply as the source set; run a
    // multi-source Dijkstra to the nearest column with remaining demand,
    // over the residual graph (forward arcs row->col always exist; reverse
    // arcs col->row exist where flow > 0).
    std::vector<double> dist_row(n, inf);
    std::vector<double> dist_col(m, inf);
    std::vector<int> parent_col(m, -1);  // row used to reach this column
    std::vector<int> parent_row(n, -1);  // column used to reach this row
    using Item = std::pair<double, std::size_t>;  // (dist, node); node<n row
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (std::size_t i = 0; i < n; ++i) {
      if (row_remaining[i] > kEps) {
        dist_row[i] = 0.0;
        pq.emplace(0.0, i);
      }
    }
    std::vector<bool> done_row(n, false);
    std::vector<bool> done_col(m, false);
    while (!pq.empty()) {
      const auto [d, node] = pq.top();
      pq.pop();
      if (node < n) {
        if (done_row[node] || d > dist_row[node] + kEps) continue;
        done_row[node] = true;
        for (std::size_t j = 0; j < m; ++j) {
          const double reduced = cost(node, j) + row_potential[node] -
                                 col_potential[j];
          const double nd = d + std::max(reduced, 0.0);
          if (nd + kEps < dist_col[j]) {
            dist_col[j] = nd;
            parent_col[j] = static_cast<int>(node);
            pq.emplace(nd, n + j);
          }
        }
      } else {
        const std::size_t j = node - n;
        if (done_col[j] || d > dist_col[j] + kEps) continue;
        done_col[j] = true;
        for (std::size_t i = 0; i < n; ++i) {
          if (flow_at(i, j) <= kEps) continue;  // reverse arc needs flow
          const double reduced = -(cost(i, j) + row_potential[i] -
                                   col_potential[j]);
          const double nd = d + std::max(reduced, 0.0);
          if (nd + kEps < dist_row[i]) {
            dist_row[i] = nd;
            parent_row[i] = static_cast<int>(j);
            pq.emplace(nd, i);
          }
        }
      }
    }

    // Nearest column with remaining demand.
    std::size_t best_col = m;
    double best_dist = inf;
    for (std::size_t j = 0; j < m; ++j) {
      if (col_remaining[j] > kEps && dist_col[j] < best_dist) {
        best_dist = dist_col[j];
        best_col = j;
      }
    }
    if (best_col == m) {
      throw std::runtime_error("transport: no augmenting path (degenerate)");
    }

    // Update potentials.
    for (std::size_t i = 0; i < n; ++i) {
      if (dist_row[i] < inf) row_potential[i] += dist_row[i];
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (dist_col[j] < inf) col_potential[j] += dist_col[j];
    }

    // Trace the augmenting path back and find its bottleneck.
    std::vector<std::pair<std::size_t, std::size_t>> forward_arcs;
    std::vector<std::pair<std::size_t, std::size_t>> reverse_arcs;
    double bottleneck = col_remaining[best_col];
    std::size_t col = best_col;
    std::size_t guard = 0;
    for (;;) {
      if (++guard > 4 * (n + m) * (n + m)) {
        throw std::runtime_error("transport: path trace failed");
      }
      const std::size_t row = static_cast<std::size_t>(parent_col[col]);
      forward_arcs.emplace_back(row, col);
      if (parent_row[row] < 0) {
        bottleneck = std::min(bottleneck, row_remaining[row]);
        break;
      }
      const std::size_t prev_col = static_cast<std::size_t>(parent_row[row]);
      reverse_arcs.emplace_back(row, prev_col);
      bottleneck = std::min(bottleneck, flow_at(row, prev_col));
      col = prev_col;
    }
    bottleneck = std::min(bottleneck, 1.0 - shipped);
    if (bottleneck <= kEps) {
      throw std::runtime_error("transport: zero bottleneck");
    }
    for (const auto& [i, j] : forward_arcs) {
      flow_at(i, j) += bottleneck;
      // ADVTEXT_ALLOW(float-accum): objective updates follow the augmenting-path visit order, fixed by the solver
      objective += bottleneck * cost(i, j);
    }
    for (const auto& [i, j] : reverse_arcs) {
      flow_at(i, j) -= bottleneck;
      objective -= bottleneck * cost(i, j);
    }
    const std::size_t src_row = forward_arcs.back().first;
    row_remaining[src_row] -= bottleneck;
    col_remaining[best_col] -= bottleneck;
    // ADVTEXT_ALLOW(float-accum): shipped mass accumulates per augmentation in the solver's deterministic order
    shipped += bottleneck;
  }

#if ADVTEXT_DCHECK_ENABLED
  // Flow conservation: every unit of supply left a row and every unit of
  // demand reached a column. Violations mean the augmenting-path search or
  // the potentials are corrupt, which silently breaks every WMD distance.
  for (std::size_t i = 0; i < n; ++i) {
    const double row_mass =
        det_index_sum(m, [&](std::size_t j) { return flow_at(i, j); });
    ADVTEXT_DCHECK(std::abs(row_mass - a[i]) < 1e-12)
        << "transport: row " << i << " ships " << row_mass << ", supply is "
        << a[i];
  }
  for (std::size_t j = 0; j < m; ++j) {
    const double col_mass =
        det_index_sum(n, [&](std::size_t i) { return flow_at(i, j); });
    ADVTEXT_DCHECK(std::abs(col_mass - b[j]) < 1e-12)
        << "transport: column " << j << " receives " << col_mass
        << ", demand is " << b[j];
  }
  ADVTEXT_DCHECK(std::isfinite(objective) && objective > -1e-9)
      << "transport: objective " << objective;
#endif
  if (plan != nullptr) {
    *plan = Matrix(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        (*plan)(i, j) = static_cast<float>(flow_at(i, j));
      }
    }
  }
  return objective;
}

SinkhornResult solve_transport_sinkhorn(const Matrix& cost,
                                        std::vector<double> a,
                                        std::vector<double> b, double reg,
                                        std::size_t iterations, Matrix* plan,
                                        double tolerance) {
  FaultInjector::instance().maybe_fault("transport.sinkhorn");
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  ADVTEXT_CHECK_SHAPE(cost.rows() == n && cost.cols() == m)
      << "transport: cost is " << cost.rows() << "x" << cost.cols()
      << ", marginals are " << n << " and " << m;
  ADVTEXT_CHECK_SHAPE(reg > 0.0) << "sinkhorn: reg must be positive";
  normalize(a, "a");
  normalize(b, "b");

  // K = exp(-C / reg), scaled by the max cost for stability.
  Matrix kernel(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      kernel(i, j) = static_cast<float>(std::exp(-cost(i, j) / reg));
    }
  }
  std::vector<double> u(n, 1.0);
  std::vector<double> v(m, 1.0);
  std::vector<double> row_sums(n, 0.0);  // Σ_j K_ij v_j for the current v
  SinkhornResult result;

  const auto refresh_row_sums = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      row_sums[i] =
          det_index_sum(m, [&](std::size_t j) { return kernel(i, j) * v[j]; });
    }
  };
  // After a v-update the column marginals hold exactly, so the L1 row
  // marginal violation of the current (u, v) is the whole residual — and
  // it reuses the row sums the next u-update needs, making the
  // convergence check nearly free.
  const auto row_error = [&] {
    return det_index_sum(n, [&](std::size_t i) {
      return std::abs(u[i] * row_sums[i] - a[i]);
    });
  };

  for (std::size_t it = 0; it < iterations; ++it) {
    refresh_row_sums();
    if (it > 0) {
      result.marginal_error = row_error();
      if (result.marginal_error < tolerance) {
        result.converged = true;
        break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = a[i] / std::max(row_sums[i], kEps);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const double s =
          det_index_sum(n, [&](std::size_t i) { return kernel(i, j) * u[i]; });
      v[j] = b[j] / std::max(s, kEps);
    }
    ++result.iterations;
  }
  if (!result.converged) {
    refresh_row_sums();
    result.marginal_error = row_error();
    result.converged = result.marginal_error < tolerance;
  }

  double objective = 0.0;
  if (plan != nullptr) *plan = Matrix(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double p = u[i] * kernel(i, j) * v[j];
      // ADVTEXT_ALLOW(float-accum): row-major pass fixed by the loop nest; the same pass emits the plan entries
      objective += p * cost(i, j);
      if (plan != nullptr) (*plan)(i, j) = static_cast<float>(p);
    }
  }
  result.cost = objective;
  ADVTEXT_DCHECK(std::isfinite(result.cost))
      << "sinkhorn: non-finite cost " << result.cost << " after "
      << result.iterations << " iterations";
  return result;
}

double transport_relaxed_lower_bound(const Matrix& cost,
                                     std::vector<double> a,
                                     std::vector<double> b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  ADVTEXT_CHECK_SHAPE(cost.rows() == n && cost.cols() == m)
      << "transport: cost is " << cost.rows() << "x" << cost.cols()
      << ", marginals are " << n << " and " << m;
  normalize(a, "a");
  normalize(b, "b");
  const double lb_rows = det_index_sum(n, [&](std::size_t i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      best = std::min(best, static_cast<double>(cost(i, j)));
    }
    return a[i] * best;
  });
  const double lb_cols = det_index_sum(m, [&](std::size_t j) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      best = std::min(best, static_cast<double>(cost(i, j)));
    }
    return b[j] * best;
  });
  return std::max(lb_rows, lb_cols);
}

}  // namespace advtext
