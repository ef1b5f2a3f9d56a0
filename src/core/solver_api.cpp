#include "core/solver_api.h"

#include <stdexcept>

#include "core/appro.h"
#include "core/baselines.h"
#include "core/congestion_game.h"
#include "core/lcf.h"
#include "core/social_optimum.h"
#include "util/json.h"
#include "util/json_arena.h"
#include "util/timer.h"

namespace mecsc::core {

const std::vector<std::string>& solver_algorithm_names() {
  static const std::vector<std::string> names = {
      "appro", "appro-literal", "jo", "lcf", "offload", "selfish", "optimal"};
  return names;
}

bool solver_algorithm_known(const std::string& name) {
  for (const std::string& n : solver_algorithm_names()) {
    if (n == name) return true;
  }
  return false;
}

SolveSpec solve_spec_from_arena(const util::JsonArena::View& doc) {
  SolveSpec spec;
  if (doc.contains("algorithm")) {
    spec.algorithm = std::string(util::field_string(doc, "algorithm"));
  }
  spec.one_minus_xi =
      util::field_number(doc, "one_minus_xi", spec.one_minus_xi);
  if (!solver_algorithm_known(spec.algorithm)) {
    throw std::invalid_argument("unknown algorithm \"" + spec.algorithm +
                                "\"");
  }
  return spec;
}

std::string SolveSpec::cache_key() const {
  // JsonValue's number formatting (%.17g) round-trips doubles exactly, so
  // distinct ξ values never collide in the key.
  std::string key = "alg=" + algorithm;
  if (algorithm == "lcf") {
    key += "|one_minus_xi=" + util::JsonValue(one_minus_xi).dump();
  }
  return key;
}

namespace {

SolveOutcome dispatch_solver(const Instance& inst, const SolveSpec& spec) {
  if (spec.algorithm == "lcf") {
    LcfOptions options;
    options.coordinated_fraction = 1.0 - spec.one_minus_xi;
    return {run_lcf(inst, options).assignment, true};
  }
  if (spec.algorithm == "appro") {
    return {run_appro(inst).assignment, true};
  }
  if (spec.algorithm == "appro-literal") {
    ApproOptions options;
    options.congestion_aware = false;
    return {run_appro(inst, options).assignment, true};
  }
  if (spec.algorithm == "jo") {
    return {run_jo_offload_cache(inst), true};
  }
  if (spec.algorithm == "offload") {
    return {run_offload_cache(inst), true};
  }
  if (spec.algorithm == "selfish") {
    return {best_response_dynamics(
                Assignment(inst),
                std::vector<bool>(inst.provider_count(), true))
                .assignment,
            true};
  }
  if (spec.algorithm == "optimal") {
    const auto opt = solve_social_optimum(inst);
    return {opt.assignment, opt.proven_optimal};
  }
  std::string valid;
  for (const std::string& n : solver_algorithm_names()) {
    valid += valid.empty() ? n : "|" + n;
  }
  throw std::invalid_argument("unknown algorithm '" + spec.algorithm +
                              "' (valid: " + valid + ")");
}

}  // namespace

SolveOutcome run_solver(const Instance& inst, const SolveSpec& spec) {
  return run_solver(inst, spec, SolveContext{});
}

SolveOutcome run_solver(const Instance& inst, const SolveSpec& spec,
                        const SolveContext& ctx) {
  // Install the tap before opening "solver.run" so the wrapper span itself
  // lands in the caller's trace; restored (RAII) before returning.
  const obs::ProfilerListenerScope listener(ctx.span_listener);
  const util::Timer timer;
  SolveOutcome outcome = [&] {
    MECSC_PROFILE_SCOPE("solver.run");
    return dispatch_solver(inst, spec);
  }();
  outcome.wall_solve_ms = timer.elapsed_ms();
  return outcome;
}

}  // namespace mecsc::core
