#include "opt/mcmf.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

namespace mecsc::opt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MinCostFlow::MinCostFlow(std::size_t node_count) : arcs_(node_count) {}

std::size_t MinCostFlow::add_arc(std::size_t u, std::size_t v,
                                 std::int64_t capacity, double cost) {
  assert(u < arcs_.size() && v < arcs_.size());
  assert(capacity >= 0);
  if (cost < 0.0) has_negative_cost_ = true;
  const std::size_t iu = arcs_[u].size();
  const std::size_t iv = arcs_[v].size();
  arcs_[u].push_back(Arc{v, iv, capacity, cost});
  arcs_[v].push_back(Arc{u, iu, 0, -cost});
  handles_.emplace_back(u, iu);
  return handles_.size() - 1;
}

std::int64_t MinCostFlow::flow_on(std::size_t arc) const {
  const auto [u, idx] = handles_[arc];
  const Arc& a = arcs_[u][idx];
  // Flow shipped equals residual capacity of the reverse arc.
  return arcs_[a.to][a.rev].capacity;
}

MinCostFlow::Result MinCostFlow::solve(std::size_t s, std::size_t t,
                                       std::int64_t max_flow) {
  assert(s < arcs_.size() && t < arcs_.size() && s != t);
  const std::size_t n = arcs_.size();
  std::vector<double> potential(n, 0.0);

  if (has_negative_cost_) {
    // Bellman-Ford from s over residual arcs to initialize potentials.
    std::vector<double> dist(n, kInf);
    dist[s] = 0.0;
    for (std::size_t round = 0; round + 1 < n; ++round) {
      bool changed = false;
      for (std::size_t u = 0; u < n; ++u) {
        if (dist[u] == kInf) continue;
        for (const Arc& a : arcs_[u]) {
          if (a.capacity > 0 && dist[u] + a.cost < dist[a.to] - 1e-12) {
            dist[a.to] = dist[u] + a.cost;
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
    for (std::size_t u = 0; u < n; ++u) {
      potential[u] = dist[u] == kInf ? 0.0 : dist[u];
    }
  }

  Result res;
  std::vector<double> dist(n);
  std::vector<std::size_t> prev_node(n), prev_arc(n);
  std::vector<bool> reached(n);

  while (max_flow < 0 || res.flow < max_flow) {
    // Dijkstra on reduced costs.
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(reached.begin(), reached.end(), false);
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[s] = 0.0;
    pq.emplace(0.0, s);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (reached[u]) continue;
      reached[u] = true;
      for (std::size_t i = 0; i < arcs_[u].size(); ++i) {
        const Arc& a = arcs_[u][i];
        if (a.capacity <= 0 || reached[a.to]) continue;
        const double reduced = a.cost + potential[u] - potential[a.to];
        // Reduced costs are >= 0 up to numeric noise; clamp tiny negatives.
        const double nd = d + std::max(reduced, 0.0);
        if (nd < dist[a.to]) {
          dist[a.to] = nd;
          prev_node[a.to] = u;
          prev_arc[a.to] = i;
          pq.emplace(nd, a.to);
        }
      }
    }
    if (!reached[t]) break;  // no augmenting path

    for (std::size_t u = 0; u < n; ++u) {
      if (reached[u]) potential[u] += dist[u];
    }

    // Bottleneck along the path.
    std::int64_t push = max_flow < 0 ? std::numeric_limits<std::int64_t>::max()
                                     : max_flow - res.flow;
    for (std::size_t v = t; v != s; v = prev_node[v]) {
      push = std::min(push, arcs_[prev_node[v]][prev_arc[v]].capacity);
    }
    for (std::size_t v = t; v != s; v = prev_node[v]) {
      Arc& a = arcs_[prev_node[v]][prev_arc[v]];
      a.capacity -= push;
      arcs_[a.to][a.rev].capacity += push;
      res.cost += a.cost * static_cast<double>(push);
    }
    res.flow += push;
  }
  return res;
}

}  // namespace mecsc::opt
