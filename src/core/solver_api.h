// Uniform front door to the solver family: one algorithm-by-name
// dispatcher shared by the mecsc CLI (`mecsc solve`) and the solver
// service (src/svc/), so the two surfaces cannot drift apart on algorithm
// spellings, defaults, or option handling.
//
// A SolveSpec also defines the *cache-key contract* of the service: the
// digest of the instance bytes ⊕ cache_key() identifies a solve uniquely,
// because every input that influences the result is either in the instance
// document or in the spec (all solvers here are deterministic functions of
// those two).
#pragma once

#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "obs/profiler.h"
#include "util/json_arena.h"

namespace mecsc::core {

/// One solve request: which algorithm, with which knobs.
struct SolveSpec {
  /// One of solver_algorithm_names(): "lcf", "appro", "appro-literal",
  /// "jo", "offload", "selfish", "optimal".
  std::string algorithm = "lcf";
  /// 1-ξ, the selfish-provider share (LCF only; paper default 0.3).
  double one_minus_xi = 0.3;

  /// Canonical text encoding of every result-influencing option. Two specs
  /// with equal cache_key() (and equal instance bytes) must produce
  /// byte-identical serialized results. Extend this string whenever a new
  /// option is added — forgetting to would silently serve stale cache hits.
  std::string cache_key() const;
};

/// Result of run_solver: the placement plus provenance the CLI surfaces.
struct SolveOutcome {
  Assignment assignment;
  /// False only for algorithm "optimal" when the branch-and-bound node
  /// budget was hit and the incumbent is not proven optimal.
  bool proven_optimal = true;
  /// Wall-clock duration of the solver dispatch itself (excluding parse /
  /// decode around it), measured inside run_solver so every caller — CLI,
  /// service, benches — reports the same phase boundary. Callers must
  /// serialize it under a "wall_"-prefixed key; it never influences the
  /// assignment.
  double wall_solve_ms = 0.0;
};

/// The algorithm names run_solver accepts, sorted.
const std::vector<std::string>& solver_algorithm_names();

/// True when `name` is a valid SolveSpec::algorithm.
bool solver_algorithm_known(const std::string& name);

/// Decodes the solve-spec fields of a request document: "algorithm" (must
/// be a string naming a known solver) and "one_minus_xi" (must be a
/// number); absent fields keep the SolveSpec defaults, extra fields are
/// ignored. Fields are read with util::field_string / field_number, so a
/// wrongly typed one is reported as the service reports any request field.
/// Throws std::invalid_argument with the messages the service maps to
/// "bad_request".
SolveSpec solve_spec_from_arena(const util::JsonArena::View& doc);

/// Per-call observability plumbing for run_solver. Carried separately
/// from SolveSpec on purpose: nothing here may influence the result (or
/// the cache key).
struct SolveContext {
  /// When non-null, installed as the calling thread's profiler span tap
  /// for the duration of the solve, so solver-internal
  /// MECSC_PROFILE_SCOPE phases (appro, simplex pivots, game dynamics)
  /// land in the caller's per-request trace (obs/tracing.h).
  obs::Profiler::SpanListener* span_listener = nullptr;
};

/// Dispatches to the named algorithm. Throws std::invalid_argument (with
/// the list of valid names) when spec.algorithm is unknown. Deterministic:
/// equal (instance, spec) pairs produce equal assignments.
SolveOutcome run_solver(const Instance& inst, const SolveSpec& spec);

/// As above, with observability context: the span listener (when set) taps
/// every profiler scope the solve opens, wrapped in one "solver.run" span.
SolveOutcome run_solver(const Instance& inst, const SolveSpec& spec,
                        const SolveContext& ctx);

}  // namespace mecsc::core
