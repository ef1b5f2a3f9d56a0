// svcbench — end-to-end and per-layer benchmark of the solver service.
//
//   svcbench --workload solve_miss|hit_large|routed_small --seed N
//            --seconds S --trace 0|1
//   svcbench --selftest
//
// Starts the real mecsc_serve / mecsc_route daemons, drives them in a
// closed loop with 2 connections from request lines generated from the
// seed before timing starts, checks every response against an in-process
// oracle, and prints a report followed by one JSON result line. With
// --trace 1 it prints the per-layer metrics instead: a second fleet runs
// with the daemons' --request-log on, and the driver replays the lines it
// sent through each layer's public functions in process. Workloads,
// metrics and the noise floor are documented in README.md.
#include <sys/stat.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/io.h"
#include "fleet.h"
#include "layers.h"
#include "loop.h"
#include "rates.h"
#include "util/json.h"
#include "util/json_arena.h"
#include "workload.h"

namespace svcbench {
namespace {

using namespace mecsc;

/// Closed-loop clients: each waits for its placement before asking again.
constexpr std::size_t kConnections = 2;
/// Set-ups per run, before the timed window (the last one serves it) and
/// after it, so setup_s, their median, samples the host across the run.
constexpr std::size_t kSetupsBefore = 4;
constexpr std::size_t kSetupsAfter = 5;

constexpr const char* kWorkDir = ".bench_build";
constexpr const char* kTraceDir = ".bench_build/traces";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  long corrupt_key = -1;  ///< self-test: corrupt this key's oracle entry
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< the first few, for the report
};

/// A unique directory for one run's sockets, logs and daemon output,
/// removed with everything in it when the run ends.
class RunDir {
 public:
  RunDir() {
    ::mkdir(kWorkDir, 0755);
    std::string tmpl = std::string(kWorkDir) + "/run-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("cannot create a run directory under " +
                               std::string(kWorkDir));
    path_ = tmpl;
  }
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  std::string prefix(const std::string& fleet) const { return path_ + "/" + fleet; }

 private:
  std::string path_;
};

/// One fleet's life: set-up (spawn, ready, warm-up pass) and its
/// connections.
struct Phase {
  std::unique_ptr<Fleet> fleet;
  std::vector<svc::ConnectionPtr> conns;
  double setup_s = 0.0;
};

/// What one timed window measured.
struct Window {
  LoopResult loop;
  std::size_t timed = 0;  ///< requests sent in the window
  Counters before, after;
  double calibration_before_ms = 0.0, calibration_after_ms = 0.0;
  std::string loadavg_before, loadavg_after;
  double steal_ms = 0.0;
  double peak_rss_mb = 0.0;
};

void note_failures(Result& r, std::uint64_t count,
                   const std::vector<std::string>& why) {
  r.failed += count;
  for (const std::string& w : why)
    if (r.failures.size() < 20) r.failures.push_back(w);
}

Phase start_phase(const WorkloadSpec& spec, const Inputs& in, const Options& o,
                  const RunDir& dir, const std::string& name, bool request_log,
                  Clock::time_point epoch, Result& r) {
  Phase p;
  const Clock::time_point t0 = Clock::now();
  p.fleet = std::make_unique<Fleet>(spec, dir.prefix(name), request_log);
  p.fleet->start();
  for (std::size_t c = 0; c < kConnections; ++c)
    p.conns.push_back(svc::connect_unix(p.fleet->front()));
  // Warm-up: every key once, so the hit workloads' caches are full and
  // the first solves' one-off costs land before timing.
  const LoopResult warm = run_loop(p.conns, spec, in, *p.fleet, 0,
                                   in.keys.size(), 0.0, 0, epoch, o.corrupt_key);
  p.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.attempted += warm.samples.size();
  note_failures(r, warm.failed, warm.failures);
  return p;
}

Window timed_window(const WorkloadSpec& spec, const Inputs& in,
                    const Options& o, double seconds, Phase& p,
                    Clock::time_point epoch, Result& r) {
  Window w;
  w.before = read_counters(*p.fleet);
  w.loadavg_before = loadavg();
  w.calibration_before_ms = calibration_ms();
  const double steal0 = steal_ms();
  // One slice per second: the resolution of the host diagnostics (rates.h).
  const auto slices = static_cast<std::size_t>(std::max(1.0, std::round(seconds)));
  w.loop = run_loop(p.conns, spec, in, *p.fleet, in.keys.size(), in.capacity(),
                    seconds, slices, epoch, o.corrupt_key);
  w.steal_ms = steal_ms() - steal0;
  w.calibration_after_ms = calibration_ms();
  w.loadavg_after = loadavg();
  w.after = read_counters(*p.fleet);
  w.timed = w.loop.samples.size();
  for (const pid_t pid : p.fleet->pids()) w.peak_rss_mb += process_peak_rss_mb(pid);
  r.attempted += w.timed;
  note_failures(r, w.loop.failed, w.loop.failures);
  const std::vector<std::string> bad =
      check_counters(spec, in, w.before, w.after, w.timed);
  note_failures(r, bad.size(), bad);
  if (!w.loop.samples.empty() && w.loop.samples.back().index + kConnections >= in.capacity())
    note_failures(r, 1, {"ran out of pre-encoded requests; raise max_rps"});
  return w;
}

void finish_phase(Phase& p, Result& r) {
  p.conns.clear();
  const std::vector<std::string> problems = p.fleet->stop();
  note_failures(r, problems.size(), problems);
}

std::vector<double> latencies(const LoopResult& loop) {
  std::vector<double> out;
  out.reserve(loop.samples.size());
  for (const Sample& s : loop.samples) out.push_back(s.rtt_ms);
  return out;
}

void print_window(const char* label, const Window& w) {
  const double driver = w.loop.driver_cpu_ms / static_cast<double>(w.timed);
  const double service = w.loop.service_cpu_ms / static_cast<double>(w.timed);
  std::printf(
      "svcbench: %s window: requests=%zu ok=%llu failed=%llu window_s=%.3f "
      "latency_samples=%zu\n",
      label, w.timed, static_cast<unsigned long long>(w.loop.ok),
      static_cast<unsigned long long>(w.loop.failed), w.loop.window_s,
      w.loop.samples.size());
  std::printf(
      "svcbench: %s host: calibration_ms before=%.2f after=%.2f "
      "steal_ms_per_s=%.1f loadavg before=\"%s\" after=\"%s\"\n",
      label, w.calibration_before_ms, w.calibration_after_ms,
      w.steal_ms / w.loop.window_s, w.loadavg_before.c_str(),
      w.loadavg_after.c_str());
  std::printf(
      "svcbench: %s driver.cpu_ms_per_req=%.4f service cpu_ms_per_req=%.4f "
      "(driver share %.3f%s)\n",
      label, driver, service, service > 0 ? driver / service : 0.0,
      driver > 0.25 * service ? "; above a quarter, the client is in the measurement"
                              : "");
  if (w.timed < kP99Samples)
    std::printf("svcbench: %s window has %zu requests, fewer than the %zu p99 needs\n",
                label, w.timed, kP99Samples);
}

Inputs prepare(const WorkloadSpec& spec, const Options& o) {
  const std::size_t keys = spec.algorithms.size() * spec.instances *
                           (spec.routed ? spec.backends : 1);
  // Each connection takes every other index, so one that runs ahead of
  // the other reaches index keys + 2 * (its requests).
  const auto capacity = keys + kConnections *
      static_cast<std::size_t>(spec.max_rps * o.seconds) + kConnections;
  return make_inputs(spec, o.seed, capacity);
}

Result run_end_to_end(const Options& o) {
  const WorkloadSpec spec = workload_spec(o.workload, o.tiny);
  const Clock::time_point epoch = Clock::now();
  const Inputs in = prepare(spec, o);
  const RunDir dir;
  Result r;

  std::vector<double> setup_s;
  Window w;
  for (std::size_t s = 0; s < kSetupsBefore + kSetupsAfter; ++s) {
    Phase p = start_phase(spec, in, o, dir, "f" + std::to_string(s), false, epoch, r);
    setup_s.push_back(p.setup_s);
    if (s + 1 == kSetupsBefore) w = timed_window(spec, in, o, o.seconds, p, epoch, r);
    finish_phase(p, r);
  }

  double bytes = 0.0;
  for (const Key& k : in.keys) bytes += static_cast<double>(k.body.size());
  std::printf("svcbench: %zu keys, %.0f request bytes on average\n", in.keys.size(),
              bytes / static_cast<double>(in.keys.size()));
  std::printf("svcbench: setup_s runs:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  print_window("timed", w);

  const Rates rates = window_rates(w.loop, o.seconds);
  std::printf("%s", rates.report.c_str());
  r.metrics = {
      {"setup_s", "s", median(setup_s)},
      {"throughput_rps", "1/s", rates.throughput_rps},
      {"latency_p50_ms", "ms", rates.latency_p50_ms},
      {"latency_p99_ms", "ms", rates.latency_p99_ms},
      {"cpu_ms_per_req", "ms", rates.cpu_ms_per_req},
      {"peak_rss_mb", "MB", w.peak_rss_mb},
  };
  return r;
}

Result run_traced(const Options& o) {
  const WorkloadSpec spec = workload_spec(o.workload, o.tiny);
  const Clock::time_point epoch = Clock::now();
  const Inputs in = prepare(spec, o);
  const RunDir dir;
  Result r;
  const std::size_t keys = in.keys.size();

  // Two windows of half the run length each: an untraced one (the
  // baseline of obs.trace_overhead_pct) and a traced one, whose request
  // lines are then replayed.
  const double part_s = o.seconds / 2;
  Phase plain = start_phase(spec, in, o, dir, "plain", false, epoch, r);
  const Window wa = timed_window(spec, in, o, part_s, plain, epoch, r);
  finish_phase(plain, r);
  print_window("untraced", wa);

  // Traced window: the daemons write their wide events.
  Phase traced = start_phase(spec, in, o, dir, "traced", true, epoch, r);
  const Window wb = timed_window(spec, in, o, part_s, traced, epoch, r);
  finish_phase(traced, r);  // flushes the request logs
  print_window("traced", wb);

  std::vector<WideEvent> server_events, router_events;
  for (const Daemon* d : traced.fleet->servers())
    read_request_log(d->log_path, server_events);
  if (const Daemon* router = traced.fleet->router())
    read_request_log(router->log_path, router_events);

  std::vector<double> queue, service, unattributed, transport, route_parse, hop;
  std::size_t missing = 0;
  for (const Sample& s : wb.loop.samples) {
    const WideEvent* e = s.index < server_events.size() && server_events[s.index].present
                             ? &server_events[s.index] : nullptr;
    const WideEvent* re = s.index < router_events.size() && router_events[s.index].present
                              ? &router_events[s.index] : nullptr;
    if (e == nullptr || (spec.routed && re == nullptr)) {
      ++missing;
      continue;
    }
    queue.push_back(e->queue_ms);
    service.push_back(e->total_ms - e->queue_ms);
    unattributed.push_back(e->total_ms - e->queue_ms - e->parse_ms - e->decode_ms -
                           e->solve_ms - e->serialize_ms);
    transport.push_back(s.rtt_ms - (re ? re->total_ms : e->total_ms));
    if (re) {
      route_parse.push_back(re->parse_ms);
      hop.push_back(re->total_ms - e->total_ms);
    }
  }
  if (missing > 0)
    note_failures(r, 0, {std::to_string(missing) +
                         " timed requests have no wide event (log queue full?)"});

  std::vector<obs::FinishedTrace> traces;
  add_round_trips(wb.loop, traces);
  std::vector<Metric>& m = r.metrics;
  std::vector<std::size_t> sent;  // warm-up first, then the window
  for (std::size_t i = 0; i < keys; ++i) sent.push_back(i);
  for (const Sample& s : wb.loop.samples) sent.push_back(s.index);
  replay_layers(in, server_events, sent, epoch, traces, m);

  const double window_hits = wb.after.hits - wb.before.hits;
  const double window_lookups = window_hits + (wb.after.misses - wb.before.misses);
  const double forwarded = wb.after.forwarded - wb.before.forwarded;
  const double spilled = wb.after.spilled - wb.before.spilled;
  const double p50_plain = quantile(latencies(wa.loop), 0.5);
  const double p50_traced = quantile(latencies(wb.loop), 0.5);
  m.push_back({"svc.queue_ms", "ms", median(queue)});
  m.push_back({"svc.service_ms", "ms", median(service)});
  m.push_back({"svc.unattributed_ms", "ms", median(unattributed)});
  m.push_back({"svc.transport_ms", "ms", median(transport)});
  m.push_back({"svc.cache_hit_ratio", "ratio",
               window_lookups > 0 ? window_hits / window_lookups : 0.0});
  m.push_back({"route.parse_ms", "ms", median(route_parse)});
  m.push_back({"route.hop_ms", "ms", median(hop)});
  m.push_back({"route.first_choice_ratio", "ratio",
               spec.routed && forwarded > 0 ? 1.0 - spilled / forwarded : 0.0});
  m.push_back({"driver.cpu_ms_per_req", "ms",
               wa.loop.driver_cpu_ms / static_cast<double>(wa.timed)});
  m.push_back({"obs.trace_overhead_pct", "%",
               p50_plain > 0 ? 100.0 * (p50_traced - p50_plain) / p50_plain : 0.0});

  std::filesystem::create_directories(kTraceDir);
  const std::string trace_path = std::string(kTraceDir) + "/" + o.workload +
                                 "-seed" + std::to_string(o.seed) + ".json";
  const std::size_t written = write_traces(std::move(traces), trace_path);
  std::printf("svcbench: wrote %zu traces to %s (open in ui.perfetto.dev)\n",
              written, trace_path.c_str());
  return r;
}

std::string result_line(const Result& r) {
  util::JsonObject metrics;
  for (const Metric& m : r.metrics) {
    util::JsonObject entry;
    entry["value"] = util::JsonValue(m.value);
    entry["unit"] = util::JsonValue(m.unit);
    metrics[m.name] = util::JsonValue(std::move(entry));
  }
  util::JsonObject top;
  top["correct"] = util::JsonValue(r.failed == 0);
  top["attempted"] = util::JsonValue(static_cast<std::size_t>(r.attempted));
  top["failed"] = util::JsonValue(static_cast<std::size_t>(r.failed));
  top["metrics"] = util::JsonValue(std::move(metrics));
  return util::JsonValue(std::move(top)).dump();
}

Result run(const Options& o) {
  std::printf("svcbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.tiny ? " (tiny)" : "");
  Result r = o.trace ? run_traced(o) : run_end_to_end(o);
  for (const Metric& m : r.metrics)
    std::printf("svcbench: %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& f : r.failures) std::printf("svcbench: FAILED %s\n", f.c_str());
  std::fflush(stdout);
  return r;
}

// ---------------------------------------------------------------------------
// Self-test: every workload at tiny size, both modes, against the metric
// names and units BENCHMARK.json declares; plus a corrupted oracle entry
// and a killed daemon, which must be counted as failed requests.

int selftest() {
  const util::JsonValue bench =
      util::parse_json(core::read_text_file("BENCHMARK.json"));
  std::vector<std::string> problems;
  auto check_line = [&](const std::string& label, const std::string& line,
                        const char* section, bool expect_ok) {
    const util::JsonArena doc = util::parse_json_arena(line);
    const util::JsonArena::View root = doc.root();
    const util::JsonArena::View metrics = root.at("metrics");
    std::set<std::string> declared;
    for (const util::JsonValue& m : bench.at(section).as_array()) {
      const std::string& name = m.string_at("name");
      declared.insert(name);
      if (!metrics.contains(name)) {
        problems.push_back(label + ": metric " + name + " not printed");
      } else if (metrics.at(name).at("unit").as_string() != m.string_at("unit")) {
        problems.push_back(label + ": metric " + name + " has unit " +
                           std::string(metrics.at(name).at("unit").as_string()));
      }
    }
    for (const util::JsonArena::View m : metrics.as_object())
      if (!declared.count(std::string(m.key())))
        problems.push_back(label + ": printed metric " + std::string(m.key()) +
                           " is not declared in BENCHMARK.json");
    const bool ok = root.at("correct").as_bool() && root.at("failed").as_number() == 0;
    if (ok != expect_ok)
      problems.push_back(label + (expect_ok ? ": requests failed" : ": corrupted oracle entry not counted as a failure"));
  };
  for (const std::string& name : workload_names()) {
    Options o;
    o.workload = name;
    o.seconds = 1.0;
    o.tiny = true;
    check_line(name + " end-to-end", result_line(run(o)), "end_to_end", true);
    o.trace = true;
    check_line(name + " traced", result_line(run(o)), "per_layer", true);
  }
  Options corrupt;
  corrupt.workload = "hit_large";
  corrupt.seconds = 1.0;
  corrupt.tiny = true;
  corrupt.corrupt_key = 0;
  check_line("corrupted oracle", result_line(run(corrupt)), "end_to_end", false);

  // A daemon that dies under an open connection: the next request must be
  // counted as failed, and the write to the dead socket must not kill the
  // driver.
  {
    const WorkloadSpec spec = workload_spec("hit_large", true);
    const Inputs in = make_inputs(spec, 1, spec.algorithms.size() * spec.instances);
    const RunDir dir;
    Fleet fleet(spec, dir.prefix("killed"), false);
    fleet.start();
    const std::vector<svc::ConnectionPtr> conns = {svc::connect_unix(fleet.front())};
    const pid_t pid = fleet.pids().front();
    ::kill(pid, SIGKILL);
    siginfo_t info{};
    ::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT);  // left for ~Fleet to reap
    const LoopResult loop = run_loop(conns, spec, in, fleet, 0, in.keys.size(), 0.0, 0,
                                     Clock::now());
    std::printf("svcbench: killed daemon: %llu failed, %llu ok\n",
                static_cast<unsigned long long>(loop.failed),
                static_cast<unsigned long long>(loop.ok));
    if (loop.failed != 1 || loop.ok != 0)
      problems.push_back("killed daemon: the dropped connection was not one failed request");
  }

  for (const std::string& p : problems) std::printf("selftest: %s\n", p.c_str());
  std::printf("selftest: %s\n", problems.empty() ? "passed" : "FAILED");
  return problems.empty() ? 0 : 1;
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n\nusage: svcbench --workload solve_miss|hit_large|"
               "routed_small --seed N --seconds S --trace 0|1\n"
               "       svcbench --selftest\n",
               error.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  using namespace svcbench;
  // A daemon that dies mid-write must fail the request, not the driver.
  std::signal(SIGPIPE, SIG_IGN);
  set_binaries(SVCBENCH_SERVE_BIN, SVCBENCH_ROUTE_BIN);
  try {
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--selftest") return selftest();
      if (key.rfind("--", 0) != 0 || i + 1 >= argc)
        usage("bad argument '" + key + "'");
      args[key] = argv[++i];
    }
    Options o;
    if (!args.count("--workload")) usage("--workload is required");
    o.workload = args["--workload"];
    o.seed = args.count("--seed") ? std::stoull(args["--seed"]) : 1;
    o.seconds = args.count("--seconds") ? std::stod(args["--seconds"]) : 10.0;
    o.trace = args.count("--trace") && args["--trace"] != "0";
    if (!(o.seconds > 0)) usage("--seconds must be > 0");
    const Result r = run(o);
    std::printf("%s\n", result_line(r).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svcbench: error: %s\n", e.what());
    return 1;
  }
}
