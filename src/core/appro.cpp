#include "core/appro.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "opt/gap.h"
#include "util/timer.h"

namespace mecsc::core {

namespace {

/// Eq. (8): how many services fit one virtual cloudlet, via demands
/// normalized to the largest demand (a unit-capacity virtual cloudlet holds
/// up to 1/min-weight services).
std::size_t slot_multiplicity(const Instance& inst,
                              const VirtualCloudletSplit& split) {
  if (split.a_max <= 0.0 || split.b_max <= 0.0) return 1;
  double min_w = 1.0;
  for (const auto& p : inst.providers) {
    const double w = std::max(p.compute_demand() / split.a_max,
                              p.bandwidth_demand() / split.b_max);
    if (w > 0.0) min_w = std::min(min_w, w);
  }
  const auto n_max = static_cast<std::size_t>(1.0 / std::max(min_w, 1e-6));
  return std::clamp<std::size_t>(n_max, 1, 64);
}

/// Builds the aggregated Shmoys-Tardos GAP reduction: knapsack i gathers
/// CL_i's n_i unit virtual cloudlets (capacity n_i, item weights normalized
/// to the largest demand so every service weighs <= 1), plus the remote
/// knapsack.
opt::GapInstance build_gap(const Instance& inst,
                           const VirtualCloudletSplit& split) {
  const std::size_t m = inst.cloudlet_count();
  const std::size_t n = inst.provider_count();
  opt::GapInstance g;
  g.num_knapsacks = m + 1;
  g.num_items = n;
  g.capacity.assign(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    g.capacity[i] = static_cast<double>(split.slots[i]);
  }
  g.capacity[m] = static_cast<double>(n);
  g.cost.assign((m + 1) * n, 0.0);
  g.weight.assign((m + 1) * n, 0.0);
  for (std::size_t l = 0; l < n; ++l) {
    const double w = std::max(
        split.a_max > 0.0
            ? inst.providers[l].compute_demand() / split.a_max
            : 0.0,
        split.b_max > 0.0
            ? inst.providers[l].bandwidth_demand() / split.b_max
            : 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      if (split.slots[i] == 0 || !demand_fits(inst, l, i)) {
        // Inadmissible: weight above capacity.
        g.weight[i * n + l] = g.capacity[i] + 1.0;
        g.cost[i * n + l] = 0.0;
        continue;
      }
      g.weight[i * n + l] = std::min(w, 1.0);
      g.cost[i * n + l] = flat_cache_cost(inst, l, i);
    }
    g.weight[m * n + l] = 1.0;
    g.cost[m * n + l] = remote_cost(inst, l);
  }
  return g;
}

}  // namespace

opt::TransportationInstance build_appro_transportation(
    const Instance& inst, const VirtualCloudletSplit& split,
    bool congestion_aware) {
  const std::size_t m = inst.cloudlet_count();
  const std::size_t n = inst.provider_count();
  const std::size_t multiplicity =
      congestion_aware ? slot_multiplicity(inst, split) : 1;
  opt::TransportationInstance t;
  t.num_groups = m + 1;  // last group = remote
  t.num_items = n;
  t.slot_costs.resize(m + 1);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t slots = split.slots[i] * multiplicity;
    if (!congestion_aware) {
      t.slot_costs[i].assign(slots, 0.0);
      continue;
    }
    t.slot_costs[i].reserve(slots);
    const double unit =
        (inst.cost.alpha[i] + inst.cost.beta[i]) * kCongestionUnit;
    for (std::size_t k = 1; k <= slots; ++k) {
      // Marginal social congestion of the k-th tenant: k·f(k) − (k−1)·f(k−1)
      // (2k−1 for the paper's linear shape). Non-decreasing in k for every
      // shape, so the transportation formulation stays exact.
      t.slot_costs[i].push_back(
          unit * congestion_shape_marginal(inst.cost.congestion, k));
    }
  }
  t.slot_costs[m].assign(n, 0.0);  // remote: uncongested, unlimited
  t.cost.assign(n * (m + 1), opt::kInadmissible);
  for (std::size_t l = 0; l < n; ++l) {
    double* row = &t.cost[l * (m + 1)];
    for (std::size_t i = 0; i < m; ++i) {
      if (split.slots[i] == 0 || !demand_fits(inst, l, i)) continue;
      row[i] = congestion_aware ? fixed_cache_cost(inst, l, i)
                                : flat_cache_cost(inst, l, i);
    }
    row[m] = remote_cost(inst, l);
  }
  return t;
}

ApproResult run_appro(const Instance& inst, const ApproOptions& options) {
  MECSC_PROFILE_SCOPE("appro");
  VirtualCloudletSplit split;
  {
    MECSC_PROFILE_SCOPE("appro.split");
    split = split_cloudlets(inst, options.a_max_override,
                            options.b_max_override);
  }
  ApproResult result{Assignment(inst), std::move(split), 0.0, {}, 0};
  const std::size_t m = inst.cloudlet_count();
  const std::size_t n = inst.provider_count();
  if (n == 0) return result;

  std::vector<std::size_t> group_of(n, m);  // default: remote group index m

  const util::Timer inner_timer;
  if (options.solver == ApproOptions::InnerSolver::Transportation) {
    opt::TransportationInstance t;
    {
      MECSC_PROFILE_SCOPE("appro.build");
      t = build_appro_transportation(inst, result.split,
                                     options.congestion_aware);
    }
    opt::TransportationSolution sol;
    {
      MECSC_PROFILE_SCOPE("appro.inner_solve");
      sol = opt::solve_transportation(t);
    }
    assert(sol.feasible);  // remote group absorbs everyone
    group_of = std::move(sol.assignment);
    MECSC_TRACE(obs::TraceEvent("appro.inner_solve")
                    .f("solver", "transportation")
                    .f("congestion_aware", options.congestion_aware)
                    .f("groups", m + 1)
                    .f("items", n)
                    .f("path_edges", sol.path_edges)
                    .f("wall_ms", inner_timer.elapsed_ms()));
  } else {
    opt::GapInstance g;
    {
      MECSC_PROFILE_SCOPE("appro.build");
      g = build_gap(inst, result.split);
    }
    opt::GapSolution sol;
    {
      MECSC_PROFILE_SCOPE("appro.lp_solve");
      sol = opt::solve_gap_shmoys_tardos(g);
    }
    result.lp_bound = sol.lp_bound;
    if (sol.feasible) {
      group_of = std::move(sol.assignment);
    }
    // else: keep everyone remote (cannot happen: remote admits all items).
    MECSC_TRACE(obs::TraceEvent("appro.lp_solve")
                    .f("solver", "shmoys_tardos")
                    .f("groups", m + 1)
                    .f("items", n)
                    .f("lp_bound", sol.lp_bound.value_or(0.0))
                    .f("lp_pivots", sol.lp_pivots)
                    .f("rounded_feasible", sol.feasible)
                    .f("wall_ms", inner_timer.elapsed_ms()));
  }

  MECSC_PROFILE_SCOPE("appro.rounding");
  // Step 4: move virtual-cloudlet assignments onto physical cloudlets.
  // Process cache placements in decreasing flat-cost order so that, if the
  // Shmoys-Tardos load relaxation overfills a cloudlet, the cheapest-gain
  // services are the ones diverted to the remote tier.
  std::vector<ProviderId> order(n);
  for (ProviderId l = 0; l < n; ++l) order[l] = l;
  std::sort(order.begin(), order.end(), [&](ProviderId a, ProviderId b) {
    const double ra = group_of[a] < m
                          ? remote_cost(inst, a) -
                                flat_cache_cost(inst, a, group_of[a])
                          : 0.0;
    const double rb = group_of[b] < m
                          ? remote_cost(inst, b) -
                                flat_cache_cost(inst, b, group_of[b])
                          : 0.0;
    return ra > rb;  // biggest caching gain claims its seat first
  });
  for (const ProviderId l : order) {
    const std::size_t g = group_of[l];
    if (g >= m) continue;  // remote
    if (result.assignment.can_move(l, g)) {
      result.assignment.move(l, g);
    } else {
      ++result.evicted_to_remote;
    }
  }

  // C' under the congestion-free cost function (Eq. (9)).
  double flat = 0.0;
  for (ProviderId l = 0; l < n; ++l) {
    const std::size_t c = result.assignment.choice(l);
    flat += c == kRemote ? remote_cost(inst, l) : flat_cache_cost(inst, l, c);
  }
  result.flat_cost = flat;

  std::size_t cached = 0;
  for (ProviderId l = 0; l < n; ++l) {
    if (result.assignment.choice(l) != kRemote) ++cached;
  }
  MECSC_TRACE(obs::TraceEvent("appro.rounding")
                  .f("cached", cached)
                  .f("remote", n - cached)
                  .f("evicted_to_remote", result.evicted_to_remote)
                  .f("flat_cost", result.flat_cost));
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter_add("appro.runs");
  metrics.counter_add("appro.evicted_to_remote",
                      static_cast<std::int64_t>(result.evicted_to_remote));
  metrics.value_record("appro.flat_cost", result.flat_cost);

  assert(result.assignment.feasible());
  return result;
}

}  // namespace mecsc::core
