#include "opt/transportation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/appro.h"
#include "core/instance.h"
#include "core/virtual_cloudlet.h"
#include "opt/mcmf.h"
#include "util/rng.h"

namespace mecsc::opt {
namespace {

/// Zero-cost slots: `slots[g]` items fit group g.
std::vector<std::vector<double>> flat_slots(
    const std::vector<std::size_t>& slots) {
  std::vector<std::vector<double>> out;
  for (const std::size_t s : slots) out.emplace_back(s, 0.0);
  return out;
}

/// The arc-graph formulation on MinCostFlow: source → item (1 unit) →
/// group (1 unit per admissible pair, at its cost) → sink (one unit arc per
/// slot, at its slot cost; convexity makes the flow fill cheap slots
/// first).
TransportationSolution reference_transportation(
    const TransportationInstance& t) {
  TransportationSolution sol;
  const std::size_t n = t.num_items, m = t.num_groups;
  if (n == 0) {
    sol.feasible = true;
    return sol;
  }
  // Nodes: 0 = source, 1..n = items, n+1..n+m = groups, last = sink.
  MinCostFlow flow(2 + n + m);
  const std::size_t source = 0, sink = 1 + n + m;
  for (std::size_t j = 0; j < n; ++j) flow.add_arc(source, 1 + j, 1, 0.0);
  std::vector<std::size_t> arc(m * n, 0);
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t j = 0; j < n; ++j) {
      const double c = t.cost_at(g, j);
      if (c >= kInadmissibleThreshold) continue;
      arc[g * n + j] = flow.add_arc(1 + j, 1 + n + g, 1, c);
    }
    for (const double s : t.slot_costs[g]) {
      flow.add_arc(1 + n + g, sink, 1, s);
    }
  }
  const auto res = flow.solve(source, sink);
  if (res.flow != static_cast<std::int64_t>(n)) return sol;
  sol.feasible = true;
  sol.cost = res.cost;
  sol.assignment.assign(n, m);
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t j = 0; j < n; ++j) {
      if (t.cost_at(g, j) < kInadmissibleThreshold &&
          flow.flow_on(arc[g * n + j]) > 0) {
        sol.assignment[j] = g;
      }
    }
  }
  return sol;
}

/// Σ_j cost(g_j, j) + Σ_g Σ_{k<load_g} slot_costs[g][k]; +inf when the
/// assignment uses a forbidden pair or overfills a group.
double objective(const TransportationInstance& t,
                 const std::vector<std::size_t>& assignment) {
  std::vector<std::size_t> load(t.num_groups, 0);
  double cost = 0.0;
  for (std::size_t j = 0; j < t.num_items; ++j) {
    const std::size_t g = assignment[j];
    if (t.cost_at(g, j) >= kInadmissibleThreshold) return INFINITY;
    cost += t.cost_at(g, j);
    ++load[g];
  }
  for (std::size_t g = 0; g < t.num_groups; ++g) {
    if (load[g] > t.slot_costs[g].size()) return INFINITY;
    for (std::size_t k = 0; k < load[g]; ++k) cost += t.slot_costs[g][k];
  }
  return cost;
}

/// Brute force over all group choices (m^n).
double brute_force(const TransportationInstance& t) {
  const std::size_t n = t.num_items, m = t.num_groups;
  std::vector<std::size_t> choice(n, 0);
  double best = INFINITY;
  while (true) {
    best = std::min(best, objective(t, choice));
    // Increment the mixed-radix counter.
    std::size_t k = 0;
    while (k < n && ++choice[k] == m) choice[k++] = 0;
    if (k == n) break;
  }
  return best;
}

/// `count` non-decreasing slot costs: all zero, or sorted draws from
/// [0, 5) on `grid`-sized steps (grid 0 = continuous).
std::vector<double> random_slot_costs(util::Rng& rng, std::size_t count,
                                      double grid) {
  std::vector<double> s(count, 0.0);
  if (rng.bernoulli(0.3)) return s;
  for (auto& v : s) {
    v = grid > 0.0
            ? grid * static_cast<double>(rng.uniform_int(0, 20))
            : rng.uniform_real(0.0, 5.0);
  }
  std::sort(s.begin(), s.end());
  return s;
}

TransportationInstance random_instance(util::Rng& rng, std::size_t groups,
                                       std::size_t items) {
  TransportationInstance t;
  t.num_groups = groups;
  t.num_items = items;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto slots = static_cast<std::size_t>(rng.uniform_int(0, 3));
    t.slot_costs.push_back(random_slot_costs(rng, slots, 0.0));
  }
  // Guarantee feasibility: last group can hold everyone.
  t.slot_costs.back() = random_slot_costs(rng, items, 0.0);
  t.cost.resize(groups * items);
  for (auto& c : t.cost) c = rng.uniform_real(0.0, 10.0);
  return t;
}

TEST(Transportation, EmptyIsFeasible) {
  TransportationInstance t;
  const auto s = solve_transportation(t);
  EXPECT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.cost, 0.0);
}

TEST(Transportation, PicksCheapestGroup) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 1;
  t.slot_costs = flat_slots({1, 1});
  t.cost = {5.0, 2.0};
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(s.cost, 2.0);
}

TEST(Transportation, SlotLimitForcesSecondBest) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 2;
  t.slot_costs = flat_slots({1, 2});
  t.cost = {1.0, 5.0, 1.0, 5.0};  // both want group 0, only one seat
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.cost, 6.0);
}

TEST(Transportation, InfeasibleWhenSlotsShort) {
  TransportationInstance t;
  t.num_groups = 1;
  t.num_items = 2;
  t.slot_costs = flat_slots({1});
  t.cost = {1.0, 1.0};
  EXPECT_FALSE(solve_transportation(t).feasible);
}

TEST(Transportation, InadmissiblePairsAvoided) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 1;
  t.slot_costs = flat_slots({1, 1});
  t.cost = {kInadmissible, 3.0};
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment[0], 1u);
}

TEST(Transportation, InfeasibleWhenOnlyInadmissible) {
  TransportationInstance t;
  t.num_groups = 1;
  t.num_items = 1;
  t.slot_costs = flat_slots({1});
  t.cost = {kInadmissible};
  EXPECT_FALSE(solve_transportation(t).feasible);
}

TEST(Transportation, ZeroSlotGroupNeverUsed) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 1;
  t.slot_costs = flat_slots({0, 1});
  t.cost = {0.1, 9.0};  // group 0 cheaper but has no seat
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment[0], 1u);
}

TEST(Transportation, ReroutesPlacedItem) {
  // Item 0 enters first and takes group 0's only seat; item 1 can use only
  // group 0, so item 0 must move to group 1 along a one-edge path.
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 2;
  t.slot_costs = flat_slots({1, 1});
  t.cost = {1.0, 2.0, 1.0, kInadmissible};
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment, (std::vector<std::size_t>{1, 0}));
  EXPECT_DOUBLE_EQ(s.cost, 3.0);
  EXPECT_EQ(s.path_edges, 1u);
}

TEST(Transportation, TiesBreakToLowestGroup) {
  TransportationInstance t;
  t.num_groups = 3;
  t.num_items = 1;
  t.slot_costs = flat_slots({1, 1, 1});
  t.cost = {2.0, 1.5, 1.5};
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment[0], 1u);
}

TEST(Transportation, TiesMoveLowestItem) {
  // Items 0 and 1 fill group 0 and are equally cheap to move to group 1;
  // item 2 fits only group 0, so the lower-index item 0 moves.
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 3;
  t.slot_costs = flat_slots({2, 1});
  t.cost = {1.0, 2.0, 1.0, 2.0, 1.0, kInadmissible};
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment, (std::vector<std::size_t>{1, 0, 0}));
}

class TransportationBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(TransportationBruteForceTest, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const std::size_t m = 2 + static_cast<std::size_t>(rng.uniform_int(0, 1));
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  const auto t = random_instance(rng, m, n);
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.cost, brute_force(t), 1e-9);
  // Assignment respects slots.
  std::vector<std::size_t> used(m, 0);
  for (std::size_t j = 0; j < n; ++j) ++used[s.assignment[j]];
  for (std::size_t g = 0; g < m; ++g) {
    EXPECT_LE(used[g], t.slot_costs[g].size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TransportationBruteForceTest,
                         ::testing::Range(0, 25));

/// The four checks of one differential case against the arc-graph
/// reference: feasibility agrees, the optimum agrees, the slot counts hold,
/// and `cost` is the objective of `assignment`.
void expect_matches_reference(const TransportationInstance& t,
                              const TransportationSolution& s) {
  const auto ref = reference_transportation(t);
  ASSERT_EQ(s.feasible, ref.feasible);
  if (!s.feasible) return;
  ASSERT_EQ(s.assignment.size(), t.num_items);
  const double scale = std::max(1.0, std::abs(ref.cost));
  EXPECT_NEAR(s.cost, ref.cost, 1e-9 * scale);
  std::vector<std::size_t> used(t.num_groups, 0);
  for (const std::size_t g : s.assignment) {
    ASSERT_LT(g, t.num_groups);
    ++used[g];
  }
  for (std::size_t g = 0; g < t.num_groups; ++g) {
    EXPECT_LE(used[g], t.slot_costs[g].size());
  }
  EXPECT_DOUBLE_EQ(s.cost, objective(t, s.assignment));
}

struct DifferentialCounts {
  std::size_t feasible = 0, infeasible = 0, rerouted = 0;
};

/// Runs `rounds` differential cases on instances with 1–7 groups and 0–30
/// items: quarter-integer costs make ties common, a share `forbidden` of the
/// pairs is inadmissible, and group capacities are drawn from [0, 2n/m + 1],
/// so they total about the item count and zero-capacity groups and
/// infeasible instances both occur.
DifferentialCounts run_differential(std::uint64_t seed, int rounds,
                                    double forbidden) {
  util::Rng rng(seed);
  DifferentialCounts counts;
  for (int round = 0; round < rounds; ++round) {
    TransportationInstance t;
    t.num_groups = static_cast<std::size_t>(rng.uniform_int(1, 7));
    t.num_items = static_cast<std::size_t>(rng.uniform_int(0, 30));
    const auto max_slots =
        static_cast<std::int64_t>(2 * t.num_items / t.num_groups + 1);
    for (std::size_t g = 0; g < t.num_groups; ++g) {
      const auto slots =
          static_cast<std::size_t>(rng.uniform_int(0, max_slots));
      t.slot_costs.push_back(random_slot_costs(rng, slots, 0.25));
    }
    t.cost.resize(t.num_groups * t.num_items);
    for (auto& c : t.cost) {
      c = rng.bernoulli(forbidden)
              ? kInadmissible
              : 0.25 * static_cast<double>(rng.uniform_int(0, 40));
    }
    const auto s = solve_transportation(t);
    SCOPED_TRACE(::testing::Message() << "round " << round);
    expect_matches_reference(t, s);
    ++(s.feasible ? counts.feasible : counts.infeasible);
    if (s.path_edges > 0) ++counts.rerouted;
  }
  return counts;
}

TEST(TransportationDifferential, MatchesArcGraphReference) {
  const auto counts = run_differential(20260417, 3000, 0.15);
  // The generator must exercise both outcomes and the rerouting paths.
  EXPECT_GT(counts.feasible, 300u);
  EXPECT_GT(counts.infeasible, 300u);
  EXPECT_GT(counts.rerouted, 300u);
}

TEST(TransportationDifferential, SparseAdmissibility) {
  // With half the pairs forbidden, an entering item often cannot reach
  // every group: the case the potential shift of unreached groups is for.
  const auto counts = run_differential(7, 1000, 0.5);
  EXPECT_GT(counts.feasible, 100u);
  EXPECT_GT(counts.rerouted, 100u);
}

TransportationInstance appro_instance(bool congestion_aware) {
  util::Rng rng(11);
  core::InstanceParams p;
  p.network_size = 400;
  p.provider_count = 250;
  const core::Instance inst = core::generate_instance(p, rng);
  return core::build_appro_transportation(inst, core::split_cloudlets(inst),
                                          congestion_aware);
}

TEST(TransportationDifferential, ApproLiteralSize400) {
  const auto t = appro_instance(false);
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  expect_matches_reference(t, s);
}

TEST(TransportationDifferential, ApproCongestionAwareSize400) {
  const auto t = appro_instance(true);
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  expect_matches_reference(t, s);
}

}  // namespace
}  // namespace mecsc::opt
