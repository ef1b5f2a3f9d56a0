// Min-cost max-flow via successive shortest paths with Johnson potentials.
//
// General-purpose flow on an explicit arc graph. It performs the matching
// step of the Shmoys-Tardos GAP rounding (gap.cpp) and is the test oracle
// for the group-level transportation solver (transportation.h), which
// solves Appro's inner problem without building an arc graph.
// Capacities are integral; costs are real-valued (may be negative on
// initial arcs — handled by a Bellman-Ford bootstrap of the potentials).
#pragma once

#include <cstdint>
#include <vector>

namespace mecsc::opt {

/// Directed flow network with residual arcs managed internally.
class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t node_count);

  std::size_t node_count() const { return arcs_.size(); }

  /// Adds arc u -> v with the given capacity and per-unit cost; returns an
  /// arc handle usable with flow_on(). Precondition: capacity >= 0.
  std::size_t add_arc(std::size_t u, std::size_t v, std::int64_t capacity,
                      double cost);

  /// Result of a flow computation.
  struct Result {
    std::int64_t flow = 0;  ///< units actually shipped
    double cost = 0.0;      ///< total cost of the shipped flow
  };

  /// Sends at most `max_flow` units from s to t along successive cheapest
  /// augmenting paths (all of them if max_flow is negative). Can be called
  /// once per instance.
  Result solve(std::size_t s, std::size_t t, std::int64_t max_flow = -1);

  /// Flow routed on the arc returned by add_arc (valid after solve()).
  std::int64_t flow_on(std::size_t arc) const;

 private:
  struct Arc {
    std::size_t to;
    std::size_t rev;  ///< index of the reverse arc in arcs_[to]
    std::int64_t capacity;
    double cost;
  };

  bool has_negative_cost_ = false;
  std::vector<std::vector<Arc>> arcs_;
  std::vector<std::pair<std::size_t, std::size_t>> handles_;  // (node, idx)
};

}  // namespace mecsc::opt
