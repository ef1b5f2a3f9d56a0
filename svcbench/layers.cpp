#include "layers.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/io.h"
#include "core/solver_api.h"
#include "net/mec_network.h"
#include "obs/run_info.h"
#include "util/json.h"
#include "util/json_arena.h"
#include "util/timer.h"

namespace svcbench {
namespace {

using namespace mecsc;

/// The replay's track in the trace; connection c's round trips are on
/// track c + 1.
constexpr std::uint32_t kReplayTid = 100;

/// `span`'s first direct child named `name`, or nullptr.
const obs::TraceSpan* child(const obs::TraceSpan& span, const char* name) {
  for (const obs::TraceSpan& c : span.children)
    if (std::strcmp(c.name, name) == 0) return &c;
  return nullptr;
}

double child_ms(const obs::TraceSpan& span, const char* name) {
  const obs::TraceSpan* c = child(span, name);
  return c != nullptr ? c->dur_ms : 0.0;
}

/// Adds the duration and the number of the spans named `name` in `span`'s
/// subtree to `ms` and `count`.
void sum_spans(const obs::TraceSpan& span, const char* name, double& ms,
               double& count) {
  if (std::strcmp(span.name, name) == 0) {
    ms += span.dur_ms;
    count += 1;
  }
  for (const obs::TraceSpan& c : span.children) sum_spans(c, name, ms, count);
}

}  // namespace

// ---------------------------------------------------------------------------
// Request logs

void read_request_log(const std::string& path, std::vector<WideEvent>& events) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read request log " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::JsonArena doc = util::parse_json_arena(line);
    const util::JsonArena::View e = doc.root();
    const std::size_t i = request_index(e.at("request_id").as_string());
    if (i == std::numeric_limits<std::size_t>::max()) continue;
    if (i >= events.size()) events.resize(i + 1);
    WideEvent& w = events[i];
    w.present = true;
    w.miss = e.at("cache").as_string() == "miss";
    w.queue_ms = e.number_at("wall_queue_ms");
    w.parse_ms = e.number_at("wall_parse_ms");
    w.decode_ms = e.number_at("wall_decode_ms");
    w.solve_ms = e.number_at("wall_solve_ms");
    w.serialize_ms = e.number_at("wall_serialize_ms");
    w.total_ms = e.number_at("wall_total_ms");
  }
}

// ---------------------------------------------------------------------------
// In-process replay

void replay_layers(const Inputs& in,
                   const std::vector<WideEvent>& server_events,
                   const std::vector<std::size_t>& sent, Clock::time_point epoch,
                   std::vector<obs::FinishedTrace>& traces,
                   std::vector<Metric>& out) {
  std::vector<double> parse, parse_mb_s, canonical, digest, respond;
  std::vector<double> decode, distances, solve, serialize;
  std::map<std::string, std::vector<double>> solve_by_algorithm;
  std::vector<double> inner;  // per lcf/appro solve
  double inner_total = 0.0, inner_solve_total = 0.0;
  std::vector<double> game_phase, game_rounds;  // per lcf solve

  std::string line;
  std::size_t replayed = 0;
  std::size_t response_bytes = 0;
  for (const std::size_t i : sent) {
    const Key& key = in.keys[i % in.keys.size()];
    line.assign(in.head(i));
    line.append(key.body, 0, key.body.size() - 1);  // without the '\n'
    // The server's path for this request: decode and solve on a miss only.
    const bool miss = i < server_events.size() && server_events[i].present
                          ? server_events[i].miss
                          : i < in.keys.size();

    const std::string rid = request_id(i);
    const double base_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - epoch).count();
    const util::Timer clock;
    // The request's trace id; no caller span, so the replay's span ids
    // differ from its round trip's.
    obs::TraceContext ctx = obs::TraceContext::derive(rid, true);
    ctx.span_id.clear();
    obs::RequestTrace trace(std::move(ctx), clock, "replay.request");
    trace.begin("util.parse");
    const util::JsonArena arena = util::parse_json_arena(line);
    trace.end();
    const util::JsonArena::View root = arena.root();

    trace.begin("util.canonical");
    const std::string canonical_bytes = root.at("instance").dump();
    trace.end();

    trace.begin("obs.digest");
    const std::string instance_digest = obs::fnv1a64_hex(canonical_bytes);
    trace.end();
    if (instance_digest != in.instance_digest[key.instance])
      throw std::runtime_error("replay: digest of " + rid +
                               " differs from the generated instance's");

    std::string payload;
    std::string algorithm;
    if (miss) {
      trace.begin("core.decode_instance");
      const core::Instance inst = core::instance_from_arena(root.at("instance"));
      trace.end();

      net::Graph topology = inst.network.topology();
      std::vector<net::Cloudlet> cloudlets = inst.network.cloudlets();
      std::vector<net::DataCenter> dcs = inst.network.data_centers();
      trace.begin("net.distances");
      const net::MecNetwork network(std::move(topology), std::move(cloudlets),
                                    std::move(dcs));
      trace.end();

      const core::SolveSpec solve_spec = core::solve_spec_from_arena(root);
      algorithm = solve_spec.algorithm;
      trace.begin("core.solve");
      core::SolveContext solve_ctx;
      solve_ctx.span_listener = &trace;
      const core::SolveOutcome outcome = core::run_solver(inst, solve_spec, solve_ctx);
      trace.end();

      trace.begin("core.serialize");
      util::JsonObject result = core::assignment_to_json(outcome.assignment).as_object();
      result["algorithm"] = util::JsonValue(solve_spec.algorithm);
      result["proven_optimal"] = util::JsonValue(outcome.proven_optimal);
      payload = util::JsonValue(std::move(result)).dump();
      trace.end();
      if (payload != key.expected_result)
        throw std::runtime_error("replay: solve of " + rid + " differs from the oracle");
    } else {
      payload = key.expected_result;  // the cached bytes
    }

    // The server's respond step, repeated for every ok response: re-parse
    // the cached payload and dump it inside the envelope.
    trace.begin("svc.respond");
    util::JsonObject body;
    body["id"] = root.at("id").to_json_value();
    body["ok"] = util::JsonValue(true);
    body["type"] = util::JsonValue("solve");
    body["request_id"] = util::JsonValue(std::string(root.at("request_id").as_string()));
    body["cached"] = util::JsonValue(!miss);
    body["result"] = util::parse_json(payload);
    body["wall_queue_ms"] = util::JsonValue(0.0);
    body["wall_service_ms"] = util::JsonValue(0.0);
    response_bytes += util::JsonValue(std::move(body)).dump().size();
    trace.end();
    obs::FinishedTrace finished = trace.finish(rid, "solve", "sampled", kReplayTid, base_ms);
    ++replayed;

    // The per-layer figures are read off the finished span tree.
    const obs::TraceSpan& tree = finished.root;
    parse.push_back(child_ms(tree, "util.parse"));
    parse_mb_s.push_back(static_cast<double>(line.size()) / 1e3 / parse.back());
    canonical.push_back(child_ms(tree, "util.canonical"));
    digest.push_back(child_ms(tree, "obs.digest"));
    respond.push_back(child_ms(tree, "svc.respond"));
    if (miss) {
      decode.push_back(child_ms(tree, "core.decode_instance"));
      distances.push_back(child_ms(tree, "net.distances"));
      serialize.push_back(child_ms(tree, "core.serialize"));
      const obs::TraceSpan& solve_span = *child(tree, "core.solve");
      solve.push_back(solve_span.dur_ms);
      solve_by_algorithm[algorithm].push_back(solve_span.dur_ms);
      double inner_ms = 0.0, game_ms = 0.0, round_ms = 0.0, rounds = 0.0, spans = 0.0;
      sum_spans(solve_span, "appro.inner_solve", inner_ms, spans);
      sum_spans(solve_span, "lcf.game_phase", game_ms, spans);
      sum_spans(solve_span, "game.best_response_round", round_ms, rounds);
      if (algorithm == "lcf" || algorithm == "appro") {
        inner.push_back(inner_ms);
        inner_total += inner_ms;
        inner_solve_total += solve_span.dur_ms;
      }
      if (algorithm == "lcf") {
        game_phase.push_back(game_ms);
        game_rounds.push_back(rounds);
      }
    }
    traces.push_back(std::move(finished));
  }

  keep(response_bytes);
  auto add = [&](const std::string& name, const std::string& unit, double v) {
    out.push_back({name, unit, v});
  };
  add("replay.requests", "count", static_cast<double>(replayed));
  add("util.parse_ms", "ms", median(parse));
  add("util.parse_mb_s", "MB/s", median(parse_mb_s));
  add("util.canonical_ms", "ms", median(canonical));
  add("obs.digest_ms", "ms", median(digest));
  add("core.decode_instance_ms", "ms", median(decode));
  add("net.distances_ms", "ms", median(distances));
  add("core.solve_ms", "ms", median(solve));
  for (const char* name : {"lcf", "appro", "jo", "offload"})
    add(std::string("core.solve_ms.") + name, "ms", median(solve_by_algorithm[name]));
  add("opt.inner_solve_ms", "ms", median(inner));
  add("opt.inner_solve_share", "ratio",
      inner_solve_total > 0 ? inner_total / inner_solve_total : 0.0);
  add("core.game_phase_ms", "ms", median(game_phase));
  add("core.game_rounds", "count", median(game_rounds));
  add("core.serialize_ms", "ms", median(serialize));
  add("svc.respond_ms", "ms", median(respond));
}

void add_round_trips(const LoopResult& loop,
                     std::vector<obs::FinishedTrace>& traces) {
  for (const Sample& s : loop.samples) {
    // The trace id is the one the request's traceparent carried.
    const std::string rid = request_id(s.index);
    const util::Timer clock;
    obs::RequestTrace trace(obs::TraceContext::derive(rid, false), clock,
                            "driver.round_trip");
    obs::FinishedTrace finished = trace.finish(
        rid, "solve", "sampled", static_cast<std::uint32_t>(s.conn + 1), s.start_us / 1e3);
    // The loop timed the round trip; the trace only carries it.
    finished.root.dur_ms = s.rtt_ms;
    traces.push_back(std::move(finished));
  }
}

std::size_t write_traces(std::vector<obs::FinishedTrace> traces,
                         const std::string& path) {
  obs::TraceWriter::Options options;
  options.path = path;
  options.queue_capacity = traces.size() + 1;  // nothing is dropped
  obs::TraceWriter writer(options);
  for (obs::FinishedTrace& t : traces) writer.write(std::move(t));
  writer.close();
  return writer.written();
}

}  // namespace svcbench
