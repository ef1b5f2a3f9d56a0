// Slotted transportation solver: the exact inner problem of Algorithm 1.
//
// Algorithm 1 splits each cloudlet CL_i into n_i virtual cloudlets, each
// restricted to hold a single cached service instance. With one item per
// knapsack and knapsack-independent item weights, the GAP instance collapses
// to a transportation problem: assign each item (service) to a group
// (cloudlet), at most slot_costs[g].size() items per group, minimizing
//   Σ_j cost(g_j, j) + Σ_g Σ_{k<load_g} slot_costs[g][k].
// Its LP is integral, so the optimum is exact — the "2-approximation"
// requirement of [34] is met with ratio 1.
//
// Solver: successive shortest paths over the group nodes only. Items enter
// one at a time in index order. A dense Dijkstra with group potentials runs
// over the groups, where the edge g→h costs the cheapest c(h,i) − c(g,i)
// over the items i now in g (one item moves from g to h), and the path ends
// at the group g with a free slot that minimises D(g) + slot_costs[g][load_g]
// (D = true path cost from the entering item). An entering item therefore
// costs O(m²) for m groups, however many items are already placed; the m×m
// edge matrix is repriced only where a group lost the item an edge was
// priced by.
//
// Ties break deterministically: Dijkstra settles the lowest reduced
// distance first, then the lowest group index; the path ends at the lowest
// group index among equally cheap ends; an edge among equally cheap items
// is priced by the lowest item index. The result is a pure function of the
// instance.
#pragma once

#include <cstddef>
#include <vector>

namespace mecsc::opt {

/// cost_at(g, j) = cost of putting item j in group g; a cost of
/// kInadmissible (or any value >= kInadmissibleThreshold) marks a forbidden
/// pair. The k-th item placed in group g (0-based) additionally pays
/// slot_costs[g][k]. Each slot_costs[g] must be non-decreasing (convex group
/// cost; all zeros for plain slot counts) and its length is the group's
/// capacity.
struct TransportationInstance {
  std::size_t num_groups = 0;
  std::size_t num_items = 0;
  std::vector<std::vector<double>> slot_costs;  ///< per group, non-decreasing
  /// Item-major: cost[item * num_groups + group], so that one item's costs
  /// over all groups are contiguous.
  std::vector<double> cost;

  double cost_at(std::size_t group, std::size_t item) const {
    return cost[item * num_groups + group];
  }
};

inline constexpr double kInadmissible = 1e17;
inline constexpr double kInadmissibleThreshold = 1e16;

struct TransportationSolution {
  bool feasible = false;
  /// assignment[item] = group (valid when feasible).
  std::vector<std::size_t> assignment;
  /// The objective of `assignment`: item costs summed in item order, then
  /// each group's slot costs in group order.
  double cost = 0.0;
  /// Items moved from one group to another by augmenting paths, over the
  /// whole solve (0 when every item went straight to its cheapest slot).
  std::size_t path_edges = 0;
};

/// Solves the instance optimally. Infeasible when some item cannot be given
/// a slot (the items outnumber the admissible slots).
TransportationSolution solve_transportation(
    const TransportationInstance& instance);

}  // namespace mecsc::opt
