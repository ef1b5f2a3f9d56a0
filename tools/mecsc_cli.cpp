// mecsc — command-line front end for the service-caching library.
//
// Workflow-oriented subcommands around the JSON interchange format
// (core/io.h):
//
//   mecsc generate --size 250 --providers 100 --seed 7 -o instance.json
//   mecsc solve    -i instance.json --algorithm lcf --one-minus-xi 0.3
//                  -o placement.json
//   mecsc evaluate -i instance.json -p placement.json
//   mecsc info     -i instance.json
//
// Every command reads/writes files (or stdout with "-") so experiments can
// be scripted and diffed.
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "core/appro.h"
#include "core/baselines.h"
#include "core/congestion_game.h"
#include "core/delay_model.h"
#include "core/incentives.h"
#include "core/io.h"
#include "core/lcf.h"
#include "core/pricing.h"
#include "core/social_optimum.h"
#include "core/solver_api.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_info.h"
#include "obs/trace.h"
#include "sim/emulation.h"
#include "sim/workload.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace mecsc;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      R"(mecsc — stable service caching in mobile edge-clouds (ICDCS 2020)

usage:
  mecsc generate [--size N] [--providers N] [--seed S] [--as1755]
                 [--congestion linear|quadratic|exponential|harmonic]
                 [-o FILE]
  mecsc solve    -i FILE --algorithm lcf|appro|appro-literal|jo|offload|
                 selfish|optimal [--one-minus-xi X] [-o FILE]
  mecsc evaluate -i FILE -p FILE
  mecsc emulate  -i FILE -p FILE [--horizon S] [--seed S]
  mecsc delay    -i FILE -p FILE
  mecsc stability -i FILE [--one-minus-xi X]
  mecsc price    -i FILE [-o FILE]
  mecsc info     -i FILE

observability flags (valid on every subcommand):
  --log-level debug|info|warn|error|off   stderr log threshold (default warn)
  --trace-out FILE     JSON-lines algorithm trace (per-round game events,
                       solver spans; see DESIGN.md "Observability")
  --metrics-out FILE   counters/gauges/histograms of the run as JSON
  --profile-out FILE   hierarchical phase profile (per-phase call counts and
                       wall times) with a Chrome/Perfetto traceEvents array;
                       load it at https://ui.perfetto.dev
  --manifest-out FILE  run manifest (seed, config, instance digest, build);
                       defaults to <metrics-out|trace-out>.manifest.json
                       when either of those is requested

"-o -" (default) writes JSON to stdout.
)";
  std::exit(error.empty() ? 0 : 2);
}

/// Tiny flag parser: --key value pairs plus boolean switches.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 && key.rfind('-', 0) != 0) {
        usage("unexpected argument '" + key + "'");
      }
      if (key == "--as1755") {
        values_[key] = "true";
        continue;
      }
      if (i + 1 >= argc) usage("flag '" + key + "' needs a value");
      values_[key] = argv[++i];
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& key, const std::string& dflt) const {
    return get(key).value_or(dflt);
  }

  double number_or(const std::string& key, double dflt) const {
    const auto v = get(key);
    return v ? std::stod(*v) : dflt;
  }

  std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) usage("missing required flag '" + key + "'");
    return *v;
  }

  /// Every flag as parsed, for the run manifest.
  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// Digest of the instance consumed (or generated) by the current command,
/// recorded into the run manifest.
std::optional<std::string> g_instance_digest;

/// Configures logging/tracing/metrics from the shared observability flags
/// and, on finish(), writes the metrics file and run manifest.
class ObsSession {
 public:
  ObsSession(std::string command, const Args& args)
      : command_(std::move(command)),
        trace_out_(args.get("--trace-out")),
        metrics_out_(args.get("--metrics-out")),
        profile_out_(args.get("--profile-out")),
        manifest_out_(args.get("--manifest-out")) {
    if (const auto level = args.get("--log-level")) {
      if (*level == "debug") {
        util::set_log_level(util::LogLevel::Debug);
      } else if (*level == "info") {
        util::set_log_level(util::LogLevel::Info);
      } else if (*level == "warn") {
        util::set_log_level(util::LogLevel::Warn);
      } else if (*level == "error") {
        util::set_log_level(util::LogLevel::Error);
      } else if (*level == "off") {
        util::set_log_level(util::LogLevel::Off);
      } else {
        usage("unknown log level '" + *level + "'");
      }
    }
    // One configuration point: LOG_* lines flow into the same trace file
    // and metrics registry as the algorithm events.
    obs::install_log_bridge();
    obs::MetricsRegistry::global().reset();
    if (trace_out_) obs::Trace::global().open_file(*trace_out_);
    if (profile_out_) obs::Profiler::global().enable();
    for (const auto& [key, value] : args.all()) {
      config_[key] = util::JsonValue(value);
    }
  }

  /// Writes the requested observability artifacts. Called once after the
  /// subcommand succeeded (skipped on error paths so partial runs never
  /// leave misleading artifacts).
  void finish() {
    if (trace_out_) {
      obs::Trace::global().close();
      std::cerr << "wrote " << *trace_out_ << "\n";
    }
    if (metrics_out_) {
      core::write_text_file(
          *metrics_out_,
          obs::MetricsRegistry::global().snapshot().to_json().dump(2));
      std::cerr << "wrote " << *metrics_out_ << "\n";
    }
    if (profile_out_) {
      core::write_text_file(
          *profile_out_,
          obs::Profiler::global().report().to_json().dump(2));
      obs::Profiler::global().disable();
      std::cerr << "wrote " << *profile_out_ << "\n";
    }
    std::optional<std::string> manifest_path = manifest_out_;
    if (!manifest_path && metrics_out_) {
      manifest_path = *metrics_out_ + ".manifest.json";
    }
    if (!manifest_path && trace_out_) {
      manifest_path = *trace_out_ + ".manifest.json";
    }
    if (!manifest_path) return;
    obs::RunManifest manifest;
    manifest.tool = "mecsc";
    manifest.command = command_;
    manifest.config = config_;
    if (g_instance_digest) manifest.instance_digest = *g_instance_digest;
    obs::write_manifest(*manifest_path, manifest);
    std::cerr << "wrote " << *manifest_path << "\n";
  }

 private:
  std::string command_;
  std::optional<std::string> trace_out_;
  std::optional<std::string> metrics_out_;
  std::optional<std::string> profile_out_;
  std::optional<std::string> manifest_out_;
  util::JsonObject config_;
};

void emit(const std::string& target, const std::string& content) {
  if (target == "-") {
    std::cout << content << "\n";
  } else {
    core::write_text_file(target, content);
    std::cerr << "wrote " << target << "\n";
  }
}

core::Instance load_instance(const Args& args) {
  const std::string path = args.require("-i");
  const std::string text = core::read_text_file(path);
  g_instance_digest = obs::fnv1a64_hex(text);
  return core::instance_from_json_text(text);
}

int cmd_generate(const Args& args) {
  util::Rng rng(static_cast<std::uint64_t>(args.number_or("--seed", 1)));
  core::InstanceParams params;
  params.network_size =
      static_cast<std::size_t>(args.number_or("--size", 100));
  params.provider_count =
      static_cast<std::size_t>(args.number_or("--providers", 100));
  params.use_as1755 = args.get("--as1755").has_value();
  core::Instance inst = core::generate_instance(params, rng);
  if (const auto kind = args.get("--congestion")) {
    bool found = false;
    for (const auto k :
         {core::CongestionKind::Linear, core::CongestionKind::Quadratic,
          core::CongestionKind::Exponential, core::CongestionKind::Harmonic}) {
      if (*kind == core::congestion_kind_name(k)) {
        inst.cost.congestion = k;
        found = true;
      }
    }
    if (!found) usage("unknown congestion kind '" + *kind + "'");
  }
  const std::string doc = core::instance_to_json(inst).dump(2);
  g_instance_digest = obs::fnv1a64_hex(doc);
  emit(args.get_or("-o", "-"), doc);
  return 0;
}

int cmd_solve(const Args& args) {
  const core::Instance inst = load_instance(args);
  core::SolveSpec spec;
  spec.algorithm = args.require("--algorithm");
  spec.one_minus_xi = args.number_or("--one-minus-xi", 0.3);
  if (!core::solver_algorithm_known(spec.algorithm)) {
    usage("unknown algorithm '" + spec.algorithm + "'");
  }

  // Same dispatcher as the solver service (src/svc/), so the two surfaces
  // cannot drift apart on algorithm behavior.
  util::Timer timer;
  const core::SolveOutcome outcome = core::run_solver(inst, spec);
  if (!outcome.proven_optimal) {
    std::cerr << "warning: node budget hit; placement is the incumbent, "
                 "not proven optimal\n";
  }
  const double ms = timer.elapsed_ms();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.gauge_set("solve.social_cost", outcome.assignment.social_cost());
  metrics.gauge_set("solve.potential", outcome.assignment.potential());
  metrics.gauge_set("solve.one_minus_xi", spec.one_minus_xi);
  metrics.wall_duration_record("solve." + spec.algorithm + "_ms", ms);

  auto doc = core::assignment_to_json(outcome.assignment);
  doc.as_object()["algorithm"] = util::JsonValue(spec.algorithm);
  doc.as_object()["wall_elapsed_ms"] = util::JsonValue(ms);
  // Solver-internal time as measured by run_solver itself — the same
  // number the service reports as the wide-event solve phase, so CLI and
  // served runs are directly comparable. wall_elapsed_ms above adds the
  // dispatch overhead around it.
  doc.as_object()["wall_solve_ms"] = util::JsonValue(outcome.wall_solve_ms);
  emit(args.get_or("-o", "-"), doc.dump(2));
  return 0;
}

int cmd_evaluate(const Args& args) {
  const core::Instance inst = load_instance(args);
  const core::Assignment a = core::assignment_from_json(
      inst,
      util::parse_json(core::read_text_file(args.require("-p"))));

  util::Table summary({"metric", "value"});
  summary.add_row({std::string("social cost"), a.social_cost()});
  summary.add_row({std::string("potential"), a.potential()});
  long long cached = 0;
  for (core::ProviderId l = 0; l < inst.provider_count(); ++l) {
    if (a.choice(l) != core::kRemote) ++cached;
  }
  summary.add_row({std::string("cached services"), cached});
  summary.add_row(
      {std::string("remote services"),
       static_cast<long long>(inst.provider_count()) - cached});
  summary.add_row(
      {std::string("feasible"), std::string(a.feasible() ? "yes" : "no")});
  summary.add_row(
      {std::string("nash equilibrium (all selfish)"),
       std::string(core::is_nash_equilibrium(
                       a, std::vector<bool>(inst.provider_count(), true))
                       ? "yes"
                       : "no")});
  summary.add_row({std::string("congestion-free lower bound"),
                   core::social_cost_lower_bound(inst)});
  std::cout << summary.to_string();

  util::Table load({"cloudlet", "tenants", "compute left", "bandwidth left"});
  for (core::CloudletId i = 0; i < inst.cloudlet_count(); ++i) {
    load.add_row({static_cast<long long>(i),
                  static_cast<long long>(a.occupancy(i)), a.compute_left(i),
                  a.bandwidth_left(i)});
  }
  util::print_section(std::cout, "cloudlet load", load);
  return 0;
}

int cmd_emulate(const Args& args) {
  const core::Instance inst = load_instance(args);
  const core::Assignment a = core::assignment_from_json(
      inst, util::parse_json(core::read_text_file(args.require("-p"))));
  util::Rng rng(static_cast<std::uint64_t>(args.number_or("--seed", 1)));
  sim::WorkloadParams wp;
  wp.horizon_s = args.number_or("--horizon", 30.0);
  const auto trace = sim::generate_workload(inst, wp, rng);
  const sim::EmulationResult r = sim::replay(a, trace);

  util::Table t({"metric", "value"});
  t.add_row({std::string("requests served"),
             static_cast<long long>(r.requests_served)});
  t.add_row({std::string("measured social cost"), r.measured_social_cost});
  t.add_row({std::string("analytic social cost"), a.social_cost()});
  t.add_row({std::string("latency p50 (ms)"),
             r.request_latency_s.p50 * 1e3});
  t.add_row({std::string("latency p95 (ms)"),
             r.request_latency_s.p95 * 1e3});
  t.add_row({std::string("latency max (ms)"),
             r.request_latency_s.max * 1e3});
  t.add_row({std::string("transfer volume (GB x hops)"),
             r.total_transfer_gb});
  std::cout << t.to_string();
  return 0;
}

int cmd_delay(const Args& args) {
  const core::Instance inst = load_instance(args);
  const core::Assignment a = core::assignment_from_json(
      inst, util::parse_json(core::read_text_file(args.require("-p"))));
  const core::DelayReport r = core::evaluate_delay(a);
  util::Table t({"metric", "value"});
  t.add_row({std::string("mean request delay (ms)"), r.mean_delay_s * 1e3});
  t.add_row({std::string("max request delay (ms)"), r.max_delay_s * 1e3});
  t.add_row({std::string("overloaded providers"),
             static_cast<long long>(r.overloaded_providers)});
  std::cout << t.to_string();
  util::Table u({"cloudlet", "utilization"});
  for (core::CloudletId i = 0; i < inst.cloudlet_count(); ++i) {
    u.add_row({static_cast<long long>(i), r.cloudlet_utilization[i]});
  }
  util::print_section(std::cout, "queue utilization", u);
  return 0;
}

int cmd_stability(const Args& args) {
  const core::Instance inst = load_instance(args);
  core::LcfOptions options;
  options.coordinated_fraction =
      1.0 - args.number_or("--one-minus-xi", 0.3);
  const core::LcfResult lcf = core::run_lcf(inst, options);
  const core::StabilityReport r = core::analyze_stability(inst, lcf);
  util::Table t({"metric", "value"});
  t.add_row({std::string("social cost"), lcf.social_cost()});
  t.add_row({std::string("binding contracts"),
             static_cast<long long>(r.binding_contracts)});
  t.add_row({std::string("side-payment budget"), r.side_payment_budget});
  t.add_row({std::string("max deviation incentive"), r.max_incentive});
  t.add_row({std::string("IR violations"),
             static_cast<long long>(r.ir_violations)});
  t.add_row({std::string("IR subsidy"), r.ir_subsidy});
  std::cout << t.to_string();
  return 0;
}

int cmd_price(const Args& args) {
  const core::Instance inst = load_instance(args);
  const core::PricingResult r = core::decentralize_by_pricing(inst);
  util::Table t({"metric", "value"});
  t.add_row({std::string("social cost"), r.social_cost});
  t.add_row({std::string("occupancy gap vs Appro"),
             static_cast<long long>(r.occupancy_gap)});
  t.add_row({std::string("iterations"),
             static_cast<long long>(r.iterations)});
  t.add_row({std::string("price revenue"), r.revenue});
  std::cerr << t.to_string();
  auto doc = core::assignment_to_json(r.assignment);
  util::JsonArray prices(r.prices.begin(), r.prices.end());
  doc.as_object()["prices"] = util::JsonValue(std::move(prices));
  emit(args.get_or("-o", "-"), doc.dump(2));
  return 0;
}

int cmd_info(const Args& args) {
  const core::Instance inst = load_instance(args);
  util::Table t({"property", "value"});
  t.add_row({std::string("switch nodes"),
             static_cast<long long>(inst.network.topology().node_count())});
  t.add_row({std::string("links"),
             static_cast<long long>(inst.network.topology().edge_count())});
  t.add_row({std::string("cloudlets"),
             static_cast<long long>(inst.cloudlet_count())});
  t.add_row({std::string("data centers"),
             static_cast<long long>(inst.network.data_center_count())});
  t.add_row({std::string("providers"),
             static_cast<long long>(inst.provider_count())});
  t.add_row({std::string("congestion model"),
             std::string(core::congestion_kind_name(inst.cost.congestion))});
  t.add_row({std::string("max compute demand"), inst.max_compute_demand()});
  t.add_row({std::string("max bandwidth demand"),
             inst.max_bandwidth_demand()});
  std::cout << t.to_string();
  return 0;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "solve") return cmd_solve(args);
  if (cmd == "evaluate") return cmd_evaluate(args);
  if (cmd == "emulate") return cmd_emulate(args);
  if (cmd == "delay") return cmd_delay(args);
  if (cmd == "stability") return cmd_stability(args);
  if (cmd == "price") return cmd_price(args);
  if (cmd == "info") return cmd_info(args);
  usage("unknown subcommand '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") usage();
  try {
    const Args args(argc, argv, 2);
    ObsSession session(cmd, args);
    const util::Timer run_timer;
    const int status = dispatch(cmd, args);
    obs::MetricsRegistry::global().wall_duration_record(
        "cli." + cmd + "_ms", run_timer.elapsed_ms());
    if (status == 0) session.finish();
    return status;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
