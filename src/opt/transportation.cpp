#include "opt/transportation.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"

namespace mecsc::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Successive shortest paths over the groups of one instance. Items are
/// inserted one at a time; each insertion keeps the placement optimal for
/// the items inserted so far (see the header for the method).
///
/// Invariant: for every placed item i in group g and admissible group h,
/// the reduced cost c(h,i) − c(g,i) + potential_[g] − potential_[h] >= 0,
/// so Dijkstra over the edge matrix is exact.
class GroupPaths {
 public:
  explicit GroupPaths(const TransportationInstance& t)
      : t_(t),
        m_(t.num_groups),
        edges_(m_ * m_),
        group_of_(t.num_items, kNone),
        next_(t.num_items, kNone),
        prev_(t.num_items, kNone),
        head_(m_, kNone),
        load_(m_, 0),
        potential_(m_, 0.0),
        dist_(m_),
        reach_(m_),
        from_(m_),
        settled_(m_) {
    open_.reserve(m_);
    stale_.reserve(m_);
    path_.reserve(m_);
  }

  /// Places item j, rerouting placed items along the cheapest augmenting
  /// path. False when no group with a free slot is reachable from j.
  bool insert(std::size_t j) {
    const double* cj = t_.cost.data() + j * m_;
    open_.clear();
    std::size_t first = kNone;  // open_[g] == g here
    double first_dist = kInf;
    for (std::size_t g = 0; g < m_; ++g) {
      settled_[g] = 0;
      from_[g] = kNone;
      const bool admissible = cj[g] < kInadmissibleThreshold;
      dist_[g] = admissible ? cj[g] - potential_[g] : kInf;
      reach_[g] = admissible ? cj[g] : kInf;
      open_.push_back(g);
      if (dist_[g] < first_dist) {
        first_dist = dist_[g];
        first = g;
      }
    }

    // Dense Dijkstra on reduced costs over every group j can reach.
    double dist_max = -kInf;
    for (std::size_t k = first; k != kNone; k = relax_and_pick(k)) {
      settled_[open_[k]] = 1;
      dist_max = dist_[open_[k]];
    }

    std::size_t end = kNone;
    double end_cost = kInf;
    for (std::size_t g = 0; g < m_; ++g) {
      if (!settled_[g] || load_[g] == t_.slot_costs[g].size()) continue;
      const double total = reach_[g] + t_.slot_costs[g][load_[g]];
      if (total < end_cost) {
        end_cost = total;
        end = g;
      }
    }
    if (end == kNone) return false;

    // Dijkstra settles in order of distance, so dist_max is the largest
    // settled distance. Groups it did not reach have no edge from a
    // reached one; shifting them by dist_max keeps every reduced cost >= 0.
    for (std::size_t g = 0; g < m_; ++g) {
      potential_[g] += settled_[g] ? dist_[g] : dist_max;
    }

    // Walk the path from its end back to j's group. Each step reads the
    // edge row of the group before it, which no earlier step has touched.
    path_.clear();
    for (std::size_t g = end; g != kNone; g = from_[g]) path_.push_back(g);
    for (std::size_t k = 0; k + 1 < path_.size(); ++k) {
      const std::size_t item = edges_[path_[k + 1] * m_ + path_[k]].item;
      unlink(item);
      link(item, path_[k]);
    }
    path_edges_ += path_.size() - 1;
    link(j, path_.back());
    return true;
  }

  std::vector<std::size_t> take_assignment() { return std::move(group_of_); }
  std::size_t path_edges() const { return path_edges_; }

 private:
  /// Cheapest way to move one item out of group g into group h: the entry
  /// at [g * m + h] of a single m×m buffer.
  struct Edge {
    double cost = kInf;  ///< c(h, item) − c(g, item)
    std::size_t item = kNone;
  };

  /// Closes the group at open_[at] and relaxes its edges into the groups
  /// still open. In the same pass, returns the position in open_ of the open
  /// group with the lowest reduced distance (lowest group index on ties), or
  /// kNone when no open group is reachable.
  std::size_t relax_and_pick(std::size_t at) {
    const std::size_t g = open_[at];
    open_[at] = open_.back();
    open_.pop_back();
    const Edge* row = &edges_[g * m_];
    const double dist_g = dist_[g], reach_g = reach_[g];
    const double potential_g = potential_[g];
    std::size_t next = kNone, next_group = kNone;
    double best = kInf;
    for (std::size_t k = 0; k < open_.size(); ++k) {
      const std::size_t h = open_[k];
      // An absent edge costs +inf and never relaxes. Reduced costs are >= 0
      // up to numeric noise; clamp tiny negatives.
      const double w = row[h].cost;
      const double nd = dist_g + std::max(w + potential_g - potential_[h], 0.0);
      if (nd < dist_[h]) {
        dist_[h] = nd;
        reach_[h] = reach_g + w;
        from_[h] = g;
      }
      if (dist_[h] < best || (dist_[h] == best && h < next_group)) {
        best = dist_[h];
        next = k;
        next_group = h;
      }
    }
    return best == kInf ? kNone : next;
  }

  /// Offers item i, placed in group g, as the mover of edge g→h.
  void offer(std::size_t g, std::size_t h, std::size_t i) {
    const double* ci = t_.cost.data() + i * m_;
    if (h == g || ci[h] >= kInadmissibleThreshold) return;
    const double c = ci[h] - ci[g];
    Edge& e = edges_[g * m_ + h];
    if (c < e.cost || (c == e.cost && i < e.item)) e = Edge{c, i};
  }

  void link(std::size_t i, std::size_t g) {
    group_of_[i] = g;
    prev_[i] = kNone;
    next_[i] = head_[g];
    if (head_[g] != kNone) prev_[head_[g]] = i;
    head_[g] = i;
    ++load_[g];
    for (std::size_t h = 0; h < m_; ++h) offer(g, h, i);
  }

  /// Removes item i from its group and reprices the edges it was the
  /// cheapest mover of, from the items that remain.
  void unlink(std::size_t i) {
    const std::size_t g = group_of_[i];
    if (prev_[i] != kNone) {
      next_[prev_[i]] = next_[i];
    } else {
      head_[g] = next_[i];
    }
    if (next_[i] != kNone) prev_[next_[i]] = prev_[i];
    --load_[g];
    group_of_[i] = kNone;

    Edge* row = &edges_[g * m_];
    stale_.clear();
    for (std::size_t h = 0; h < m_; ++h) {
      if (row[h].item == i) {
        row[h] = Edge{};
        stale_.push_back(h);
      }
    }
    if (stale_.empty()) return;
    for (std::size_t k = head_[g]; k != kNone; k = next_[k]) {
      for (const std::size_t h : stale_) offer(g, h, k);
    }
  }

  const TransportationInstance& t_;
  const std::size_t m_;
  std::vector<Edge> edges_;
  // Per item: its group, and its neighbours in that group's member list.
  std::vector<std::size_t> group_of_, next_, prev_;
  // Per group.
  std::vector<std::size_t> head_, load_;
  // dist_ is the reduced distance from the entering item, reach_ the true
  // cost of the same tree path.
  std::vector<double> potential_, dist_, reach_;
  std::vector<std::size_t> from_;
  std::vector<char> settled_;
  // Buffers reused across insertions.
  std::vector<std::size_t> open_, stale_, path_;
  std::size_t path_edges_ = 0;
};

}  // namespace

TransportationSolution solve_transportation(
    const TransportationInstance& instance) {
  TransportationSolution sol;
  const std::size_t n = instance.num_items;
  const std::size_t m = instance.num_groups;
  assert(instance.slot_costs.size() == m);
  assert(instance.cost.size() == m * n);
  assert(std::all_of(instance.slot_costs.begin(), instance.slot_costs.end(),
                     [](const std::vector<double>& slots) {
                       return std::is_sorted(slots.begin(), slots.end());
                     }));

  GroupPaths paths(instance);
  std::size_t inserted = 0;
  bool feasible = true;
  while (feasible && inserted < n) feasible = paths.insert(inserted++);
  sol.path_edges = paths.path_edges();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter_add("opt.transport.items",
                      static_cast<std::int64_t>(inserted));
  metrics.counter_add("opt.transport.path_edges",
                      static_cast<std::int64_t>(sol.path_edges));
  if (!feasible) return sol;

  sol.feasible = true;
  sol.assignment = paths.take_assignment();
  std::vector<std::size_t> load(m, 0);
  for (std::size_t j = 0; j < n; ++j) {
    sol.cost += instance.cost_at(sol.assignment[j], j);
    ++load[sol.assignment[j]];
  }
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t k = 0; k < load[g]; ++k) {
      sol.cost += instance.slot_costs[g][k];
    }
  }
  return sol;
}

}  // namespace mecsc::opt
