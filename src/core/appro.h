// Algorithm 1 ("Appro"): approximation algorithm for service caching with
// non-selfish (fully coordinated) providers (§III-B).
//
// Steps, following the paper:
//  1. Split every cloudlet into n_i single-instance virtual cloudlets
//     (Eq. (7), virtual_cloudlet.h).
//  2. Treat each virtual cloudlet as a GAP knapsack under the congestion-
//     free cost of Eq. (9): (α_i + β_i) + c_l^ins + c_i^bdw.
//  3. Solve the GAP instance with the Shmoys-Tardos framework [34]. Because
//     step 1 restricts each virtual cloudlet to a single instance, the
//     default inner solver is the integral transportation formulation
//     (exact, ratio 1 <= 2), solved by shortest paths over the cloudlet
//     groups (opt/transportation.h); the general LP-rounding solver is
//     available for fidelity to [34] and for the Lemma-2 study.
//  4. Move all services assigned to CL_i's virtual cloudlets into CL_i.
//
// The strategy space includes "do not cache" (serve from the home data
// center), so the mechanism never rejects a provider outright: when the
// virtual cloudlets cannot hold everyone, the optimizer sends the
// least-profitable services to the remote tier.
#pragma once

#include <optional>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/virtual_cloudlet.h"
#include "opt/transportation.h"

namespace mecsc::core {

struct ApproOptions {
  enum class InnerSolver {
    Transportation,  ///< exact transportation solve of the slotted reduction
    ShmoysTardos,    ///< LP relaxation + rounding, as in [34]
  };
  InnerSolver solver = InnerSolver::Transportation;
  /// Congestion-aware slot pricing (Transportation solver only; default on).
  /// Algorithm 1 literally prices every virtual cloudlet of CL_i at the
  /// congestion-free Eq. (9). With this flag, the k-th slot of CL_i instead
  /// carries the *marginal* congestion cost (α_i+β_i)·u·(2k-1), which
  /// telescopes to the exact quadratic congestion term of the social cost —
  /// so the inner solve returns the true social optimum of the slotted
  /// relaxation (a strictly stronger OPT' guide for the Stackelberg leader;
  /// Lemma 1 feasibility and the Lemma 2 bound are unaffected since the
  /// returned placement is never costlier under Eq. (6)). Slot multiplicity
  /// follows Eq. (8): each virtual cloudlet may hold up to n'_max services,
  /// with physical capacities re-checked when merging onto the cloudlet.
  /// Set to false to run the paper's literal congestion-free pricing
  /// (benchmarked as an ablation in bench_ablation).
  bool congestion_aware = true;
  /// Override the demand maxima used in Eq. (7) (Fig. 7 sweeps these);
  /// non-positive means "use the instance's actual maxima".
  double a_max_override = 0.0;
  double b_max_override = 0.0;
};

struct ApproResult {
  Assignment assignment;
  VirtualCloudletSplit split;
  /// C': social cost under the congestion-free cost function of Eq. (9)
  /// (remote providers contribute their remote cost).
  double flat_cost = 0.0;
  /// LP lower bound from the Shmoys-Tardos path, when that solver ran.
  std::optional<double> lp_bound;
  /// Providers the rounding could not place within physical capacities and
  /// that were diverted to the remote tier (only possible with the
  /// ShmoysTardos inner solver, whose loads may exceed capacity by one
  /// service).
  std::size_t evicted_to_remote = 0;
};

/// Runs Algorithm 1. The result's assignment is always feasible.
ApproResult run_appro(const Instance& inst, const ApproOptions& options = {});

/// The slotted transportation instance the Transportation inner solver
/// receives: group i < m is cloudlet CL_i, group m is the remote tier (holds
/// everyone at no slot cost). With congestion_aware=false, CL_i has n_i
/// zero-cost slots and a provider costs Eq. (9) there; with true, CL_i has
/// n_i·n'_max slots priced at the marginal congestion cost and a provider
/// costs the congestion-free fixed part (see ApproOptions::congestion_aware).
opt::TransportationInstance build_appro_transportation(
    const Instance& inst, const VirtualCloudletSplit& split,
    bool congestion_aware);

}  // namespace mecsc::core
