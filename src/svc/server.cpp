#include "svc/server.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "core/io.h"
#include "core/poa.h"
#include "core/solver_api.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_info.h"
#include "util/json.h"
#include "util/json_arena.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mecsc::svc {
namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

std::string error_line(const JsonValue& id, const std::string& code,
                       const std::string& message,
                       const std::string& request_id = std::string(),
                       double retry_after_ms = -1.0) {
  JsonObject error;
  error["code"] = JsonValue(code);
  error["message"] = JsonValue(message);
  if (retry_after_ms >= 0.0)
    error["wall_retry_after_ms"] = JsonValue(retry_after_ms);
  JsonObject response;
  response["id"] = id;
  response["ok"] = JsonValue(false);
  if (!request_id.empty()) response["request_id"] = JsonValue(request_id);
  response["error"] = JsonValue(std::move(error));
  return JsonValue(std::move(response)).dump();
}

/// Decrements an in-flight gauge on scope exit, whichever way the scope
/// unwinds.
class GaugeGuard {
 public:
  explicit GaugeGuard(std::atomic<std::size_t>& gauge) : gauge_(gauge) {
    gauge_.fetch_add(1, std::memory_order_relaxed);
  }
  ~GaugeGuard() { gauge_.fetch_sub(1, std::memory_order_relaxed); }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;

 private:
  std::atomic<std::size_t>& gauge_;
};

/// Shared fields of every successful response: {"id":…, "ok":true,
/// "type":…, "request_id":…} plus wall_* timing (stripped before
/// determinism diffs). The request_id echoes the client's value, or the
/// server-generated one when the client sent none.
JsonObject ok_envelope(const JsonValue& id, const std::string& type,
                       const std::string& request_id) {
  JsonObject response;
  response["id"] = id;
  response["ok"] = JsonValue(true);
  response["type"] = JsonValue(type);
  response["request_id"] = JsonValue(request_id);
  return response;
}

/// Deadline carried by one request. A request-supplied deadline_ms of 0 is
/// already expired on arrival — the deterministic way to exercise the
/// deadline path in tests.
struct Deadline {
  bool enabled = false;
  double budget_ms = 0.0;

  bool exceeded(const util::Timer& since_admission) const {
    return enabled && since_admission.elapsed_ms() >= budget_ms;
  }
};

Deadline deadline_of(const util::JsonArena::View& request,
                     double default_deadline_ms) {
  Deadline d;
  if (request.contains("deadline_ms")) {
    const double ms = util::field_number(request, "deadline_ms", 0.0);
    if (ms < 0.0)
      throw std::invalid_argument("field \"deadline_ms\" must be >= 0");
    d.enabled = true;
    d.budget_ms = ms;
  } else if (default_deadline_ms > 0.0) {
    d.enabled = true;
    d.budget_ms = default_deadline_ms;
  }
  return d;
}

}  // namespace

namespace {

obs::ServiceTelemetry::Options telemetry_options(const ServerOptions& o) {
  obs::ServiceTelemetry::Options t;
  if (o.telemetry_window_ms > 0.0) t.window_ms = o.telemetry_window_ms;
  return t;
}

}  // namespace

SolverServer::SolverServer(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      cache_(options_.cache_capacity),
      telemetry_(telemetry_options(options_)),
      flight_(options_.flight_recorder_capacity) {
  if (options_.threads == 0) options_.threads = 1;
}

SolverServer::~SolverServer() {
  // Safety net for error paths; the normal sequence is
  // request_shutdown() + wait() before destruction.
  request_shutdown();
  wait();
}

void SolverServer::start() {
  if (!options_.unix_socket_path.empty()) {
    listener_ = std::make_unique<Listener>(
        Listener::listen_unix(options_.unix_socket_path));
  } else if (options_.tcp_port >= 0) {
    listener_ = std::make_unique<Listener>(Listener::listen_tcp(options_.tcp_port));
  } else {
    throw std::runtime_error(
        "svc: ServerOptions needs unix_socket_path or tcp_port");
  }
  {
    const util::MutexLock lock(stats_mutex_);
    counters_.queue_capacity = options_.queue_capacity;
  }
  if (!options_.request_log_path.empty()) {
    obs::RequestLog::Options log_options;
    log_options.path = options_.request_log_path;
    log_options.slow_request_ms = options_.slow_request_ms;
    if (options_.request_log_max_mb > 0.0) {
      log_options.max_bytes = static_cast<std::size_t>(
          options_.request_log_max_mb * 1024.0 * 1024.0);
    }
    request_log_ = std::make_unique<obs::RequestLog>(log_options);
  }
  if (!options_.trace_out.empty()) {
    obs::TraceWriter::Options trace_options;
    trace_options.path = options_.trace_out;
    trace_writer_ = std::make_unique<obs::TraceWriter>(trace_options);
  }
  if (options_.admin_port >= 0) {
    AdminServer::Options admin_options;
    admin_options.tcp_port = options_.admin_port;
    admin_options.metrics_handler = [this] { return metrics_prometheus(); };
    // Trailing newline: /stats is consumed by line-oriented tooling
    // (curl | jq, the tests' line reader) as well as browsers.
    admin_options.stats_handler = [this] {
      return metrics_json().dump() + "\n";
    };
    admin_options.flight_handler = [this] {
      return flight_json().dump() + "\n";
    };
    admin_ = std::make_unique<AdminServer>(admin_options);
  }
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i)
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::uint32_t>(i)); });
  acceptor_thread_ = std::thread([this] { acceptor_loop(); });
}

int SolverServer::port() const { return listener_ ? listener_->port() : 0; }

int SolverServer::admin_port() const { return admin_ ? admin_->port() : -1; }

const std::string& SolverServer::endpoint() const {
  static const std::string kUnbound = "(unbound)";
  return listener_ ? listener_->endpoint() : kUnbound;
}

void SolverServer::acceptor_loop() {
  while (true) {
    ConnectionPtr conn = listener_->accept();
    if (!conn) return;  // listener shut down (drain) or fatal error
    if (!sessions_.spawn(conn, [this](ConnectionPtr c) {
          session_loop(std::move(c));
        })) {
      conn->write_line(error_line(JsonValue(nullptr), "shutting_down",
                                  "server is draining"));
      continue;  // connection closes when conn goes out of scope
    }
    {
      const util::MutexLock lock(stats_mutex_);
      ++counters_.accepted_connections;
    }
  }
}

void SolverServer::session_loop(ConnectionPtr conn) {
  const GaugeGuard in_flight(connections_in_flight_);
  while (true) {
    std::optional<std::string> line = conn->read_line(kMaxRequestBytes);
    if (!line) {
      if (conn->line_overflow()) {
        conn->write_line(error_line(JsonValue(nullptr), "bad_request",
                                    "request line exceeds the size limit"));
        // The stream is desynchronized past an overlong line; close it.
      }
      return;
    }
    if (line->empty()) continue;  // blank keep-alive lines are harmless
    {
      const util::MutexLock lock(stats_mutex_);
      ++counters_.requests_total;
    }
    if (draining_.load(std::memory_order_acquire)) {
      {
        const util::MutexLock lock(stats_mutex_);
        ++counters_.responses_error;
      }
      const std::string rid = next_request_id();
      const std::string response = error_line(
          JsonValue(nullptr), "shutting_down", "server is draining", rid);
      conn->write_line(response);
      obs::RequestEvent event;
      event.request_id = rid;
      event.outcome = "shutting_down";
      event.ok = false;
      event.bytes_in = line->size();
      event.bytes_out = response.size() + 1;
      flight_.record(event, nullptr);  // no trace: never admitted
      record_event(std::move(event));
      continue;
    }
    Job job;
    job.line = std::move(*line);
    job.conn = conn;
    job.admitted_at_ms = telemetry_.now_ms();
    const std::size_t line_bytes = job.line.size();
    if (!queue_.try_push(std::move(job))) {
      // Admission control: a full queue answers immediately instead of
      // stalling the socket. The id is null because the line was never
      // parsed — closed-loop clients correlate by ordering — but the
      // rejection still carries a server request_id and a backoff hint
      // derived from the windowed service rate.
      {
        const util::MutexLock lock(stats_mutex_);
        ++counters_.responses_error;
        ++counters_.overloaded;
      }
      const std::string rid = next_request_id();
      const double retry_after_ms =
          telemetry_.retry_after_ms_hint(queue_.size(), options_.threads);
      const std::string response =
          error_line(JsonValue(nullptr), "overloaded",
                     "request queue is full", rid, retry_after_ms);
      conn->write_line(response);
      obs::MetricsRegistry::global().counter_add("svc.overloaded");
      obs::RequestEvent event;
      event.request_id = rid;
      event.outcome = "overloaded";
      event.ok = false;
      event.bytes_in = line_bytes;
      event.bytes_out = response.size() + 1;
      // Overload storms are exactly what the flight ring is for; record
      // the rejection even though it never got a trace.
      flight_.record(event, nullptr);
      record_event(std::move(event));
    }
  }
}

void SolverServer::worker_loop(std::uint32_t ordinal) {
  while (true) {
    std::optional<Job> job = queue_.pop();
    if (!job) return;  // closed and drained
    if (options_.test_hook_before_request) options_.test_hook_before_request();
    const GaugeGuard busy(workers_busy_);
    process(std::move(*job), ordinal);
  }
}

std::string SolverServer::next_request_id() {
  return "s-" + std::to_string(
                    request_id_seq_.fetch_add(1, std::memory_order_relaxed) +
                    1);
}

void SolverServer::process(Job job, std::uint32_t worker_ordinal) {
  MECSC_PROFILE_SCOPE("svc.request");
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter_add("svc.requests");
  const double queue_wait_ms = job.admitted.elapsed_ms();

  obs::RequestEvent event;
  event.bytes_in = job.line.size();
  event.queue_ms = queue_wait_ms;

  // Causal trace state. The trace is built for *every* request (the
  // flight ring needs it); whether it is written out is decided at the
  // end (tail-based sampling). The bridge installs the trace as this
  // thread's profiler span tap, so every MECSC_PROFILE_SCOPE below —
  // server phases and solver internals — lands in the span tree. Declared
  // after the svc.request scope above so the bridge detaches first.
  std::optional<obs::RequestTrace> trace;
  std::optional<obs::ProfilerListenerScope> bridge;
  double parse_start_ms = queue_wait_ms;

  JsonValue id;  // null until the request parses
  std::string request_id;  // resolved after parse (generated if absent)
  std::string response;
  bool ok = false;
  bool was_deadline = false;
  try {
    // The line lands in two contiguous buffers, strings decode in situ,
    // and the instance subtree decodes straight to core::Instance.
    util::JsonArena arena;
    {
      MECSC_PROFILE_SCOPE("svc.parse");
      parse_start_ms = job.admitted.elapsed_ms();
      const util::Timer parse_timer;
      try {
        arena = util::parse_json_arena(job.line);
      } catch (const util::JsonError& e) {
        throw std::runtime_error(std::string("parse_error: ") + e.what());
      }
      event.parse_ms = parse_timer.elapsed_ms();
      metrics.wall_duration_record("wall_svc_parse_ms", event.parse_ms);
      metrics.counter_add("svc.parse_bytes",
                          static_cast<std::int64_t>(job.line.size()));
    }
    const util::JsonArena::View request = arena.root();
    if (!request.is_object())
      throw std::invalid_argument("request must be a JSON object");
    if (request.contains("id")) id = request.at("id").to_json_value();
    if (request.contains("request_id"))
      request_id = util::field_string(request, "request_id");
    if (request_id.empty()) request_id = next_request_id();
    if (!request.contains("type"))
      throw std::invalid_argument("request needs a \"type\" field");
    const std::string type(util::field_string(request, "type"));
    event.type = type;

    // Resolve the trace context: adopt the client's traceparent when
    // present and well-formed (anything else is ignored, per W3C
    // trace-context), else mint a deterministic context from the
    // request_id. Head sampling ORs onto the client's flag and is a pure
    // function of the trace id — never an RNG.
    {
      obs::TraceContext tctx;
      if (request.contains("traceparent") &&
          request.at("traceparent").is_string()) {
        if (auto parsed = obs::TraceContext::parse(
                std::string(request.at("traceparent").as_string())))
          tctx = *parsed;
      }
      if (!tctx.valid()) {
        tctx = obs::TraceContext::derive(request_id, false);
        tctx.span_id.clear();  // server-minted: no upstream parent span
      }
      tctx.sampled = tctx.sampled ||
                     obs::trace_head_sample(tctx.trace_id,
                                            options_.trace_sample_rate);
      trace.emplace(std::move(tctx), job.admitted);
      // Queue and parse completed before the context was known; add them
      // retroactively so the tree covers the request from admission.
      trace->add_complete("svc.queue", 0.0, queue_wait_ms);
      trace->add_complete("svc.parse", parse_start_ms, event.parse_ms);
      bridge.emplace(&*trace);
    }

    const Deadline deadline =
        deadline_of(request, options_.default_deadline_ms);

    if (type == "health") {
      JsonObject body = ok_envelope(id, type, request_id);
      body["protocol_version"] = JsonValue(kSvcProtocolVersion);
      body["draining"] = JsonValue(draining());
      JsonArray algorithms;
      for (const std::string& name : core::solver_algorithm_names())
        algorithms.emplace_back(name);
      body["algorithms"] = JsonValue(std::move(algorithms));
      // Load signals for the routing tier's spill decisions (and for
      // mecsc_top). Capacity figures are configuration (deterministic,
      // bare keys); the instantaneous depth/inflight/service-time values
      // depend on request interleaving, so they live under wall_ keys per
      // the determinism contract.
      body["queue_capacity"] = JsonValue(options_.queue_capacity);
      body["workers"] = JsonValue(options_.threads);
      body["wall_queue_depth"] = JsonValue(queue_.size());
      body["wall_inflight"] = JsonValue(static_cast<std::size_t>(
          workers_busy_.load(std::memory_order_relaxed)));
      body["wall_service_time_ms"] =
          JsonValue(telemetry_.windowed_service_ms());
      response = JsonValue(std::move(body)).dump();
      ok = true;
    } else if (type == "stats") {
      const ServerStats s = stats();
      JsonObject body = ok_envelope(id, type, request_id);
      body["protocol_version"] = JsonValue(kSvcProtocolVersion);
      JsonObject server;
      server["accepted_connections"] = JsonValue(s.accepted_connections);
      server["requests_total"] = JsonValue(s.requests_total);
      server["responses_ok"] = JsonValue(s.responses_ok);
      server["responses_error"] = JsonValue(s.responses_error);
      server["overloaded"] = JsonValue(s.overloaded);
      server["deadline_exceeded"] = JsonValue(s.deadline_exceeded);
      server["solves_executed"] = JsonValue(s.solves_executed);
      server["queue_depth"] = JsonValue(s.queue_depth);
      server["queue_capacity"] = JsonValue(s.queue_capacity);
      body["server"] = JsonValue(std::move(server));
      JsonObject cache;
      cache["hits"] = JsonValue(s.cache.hits);
      cache["misses"] = JsonValue(s.cache.misses);
      cache["coalesced"] = JsonValue(s.cache.coalesced);
      cache["evictions"] = JsonValue(s.cache.evictions);
      cache["size"] = JsonValue(s.cache.size);
      cache["capacity"] = JsonValue(s.cache.capacity);
      body["cache"] = JsonValue(std::move(cache));
      response = JsonValue(std::move(body)).dump();
      ok = true;
    } else if (type == "metrics") {
      // Full telemetry snapshot over the NDJSON protocol — same document
      // the admin /stats endpoint serves, for clients (mecsc_top, loadgen
      // --scrape-interval-ms) already speaking the protocol.
      JsonObject body = ok_envelope(id, type, request_id);
      body["telemetry"] = metrics_json();
      response = JsonValue(std::move(body)).dump();
      ok = true;
    } else if (type == "shutdown") {
      JsonObject body = ok_envelope(id, type, request_id);
      body["draining"] = JsonValue(true);
      response = JsonValue(std::move(body)).dump();
      job.conn->write_line(response);
      {
        const util::MutexLock lock(stats_mutex_);
        ++counters_.responses_ok;
      }
      event.request_id = request_id;
      event.bytes_out = response.size() + 1;
      event.total_ms = job.admitted.elapsed_ms();
      record_event(std::move(event));
      // The response is on the wire before the drain starts, so a
      // synchronous client always sees its shutdown acknowledged. The
      // drain tears the trace writer down concurrently, so this request
      // — the last one — skips the trace epilogue.
      request_shutdown();
      return;
    } else if (type == "solve" || type == "poa") {
      if (deadline.exceeded(job.admitted)) {
        was_deadline = true;
        throw std::runtime_error("deadline expired while queued");
      }
      if (!request.contains("instance") || !request.at("instance").is_object())
        throw std::invalid_argument(
            "request needs an \"instance\" object (core/io.h document)");
      const util::JsonArena::View instance = request.at("instance");
      const std::string instance_bytes = [&] {
        // Canonical dump + digest are a real slice of large-instance
        // latency; giving them a span keeps the trace gap-free.
        MECSC_PROFILE_SCOPE("svc.digest");
        return instance.dump();
      }();
      const bool use_cache = util::field_bool(request, "cache", true);

      std::string task_key;
      core::SolveSpec spec;
      core::PoaOptions poa_options;
      std::uint64_t poa_seed = 0;
      if (type == "solve") {
        spec = core::solve_spec_from_arena(request);
        task_key = spec.cache_key();
        event.algorithm = spec.algorithm;
      } else {
        poa_options.coordinated_fraction =
            util::field_number(request, "coordinated_fraction", 0.0);
        const double restarts = util::field_number(request, "restarts", 30.0);
        if (restarts < 1.0 || restarts != static_cast<double>(
                                              static_cast<std::size_t>(restarts)))
          throw std::invalid_argument(
              "field \"restarts\" must be a positive integer");
        poa_options.restarts = static_cast<std::size_t>(restarts);
        const double seed = util::field_number(request, "seed", 1.0);
        if (seed < 0.0)
          throw std::invalid_argument("field \"seed\" must be >= 0");
        poa_seed = static_cast<std::uint64_t>(seed);
        task_key = "poa|cf=" +
                   JsonValue(poa_options.coordinated_fraction).dump() +
                   "|restarts=" + JsonValue(poa_options.restarts).dump() +
                   "|seed=" + JsonValue(poa_seed).dump();
      }
      // Cache-key contract (see solver_api.h): instance digest ⊕ canonical
      // option string. The digest is over the *canonical dump* (sorted
      // keys), so key ordering in the client's document does not fragment
      // the cache.
      const std::string digest = [&] {
        MECSC_PROFILE_SCOPE("svc.digest");
        return obs::fnv1a64_hex(instance_bytes);
      }();
      const std::string cache_key = digest + "|" + task_key;
      event.instance_digest = digest;

      std::optional<std::string> payload;
      bool cached = false;
      if (use_cache) {
        bool coalesced = false;
        {
          // Coalesced followers block here until the leader publishes —
          // exactly the wait a per-request trace needs to make visible.
          MECSC_PROFILE_SCOPE("svc.cache_wait");
          payload = cache_.get_or_lead(cache_key, &coalesced);
        }
        cached = payload.has_value();
        event.cache_outcome = cached ? (coalesced ? "coalesced" : "hit")
                                     : "miss";
      }
      if (!payload) {
        bool published = false;
        try {
          const core::Instance inst = [&] {
            // Decodes the already-parsed subtree; no re-parse of
            // instance_bytes.
            MECSC_PROFILE_SCOPE("svc.decode_instance");
            const util::Timer decode_timer;
            core::Instance decoded = core::instance_from_arena(instance);
            event.decode_ms = decode_timer.elapsed_ms();
            metrics.wall_duration_record("wall_svc_decode_instance_ms",
                                         event.decode_ms);
            return decoded;
          }();
          JsonObject result;
          if (type == "solve") {
            const core::SolveOutcome outcome = [&] {
              MECSC_PROFILE_SCOPE("svc.solve");
              // The listener is already installed (bridge above);
              // passing it again is harmless and keeps the CLI path —
              // which has no bridge — and this one identical.
              core::SolveContext solve_ctx;
              solve_ctx.span_listener = trace ? &*trace : nullptr;
              return core::run_solver(inst, spec, solve_ctx);
            }();
            event.solve_ms = outcome.wall_solve_ms;
            MECSC_PROFILE_SCOPE("svc.serialize");
            result = core::assignment_to_json(outcome.assignment).as_object();
            result["algorithm"] = JsonValue(spec.algorithm);
            result["proven_optimal"] = JsonValue(outcome.proven_optimal);
          } else {
            MECSC_PROFILE_SCOPE("svc.solve");
            const util::Timer poa_timer;
            util::Rng rng(poa_seed);
            const core::PoaResult r =
                core::estimate_poa(inst, poa_options, rng);
            result["worst_equilibrium_cost"] =
                JsonValue(r.worst_equilibrium_cost);
            result["best_equilibrium_cost"] =
                JsonValue(r.best_equilibrium_cost);
            result["optimum_cost"] = JsonValue(r.optimum_cost);
            result["optimum_exact"] = JsonValue(r.optimum_exact);
            result["empirical_poa"] = JsonValue(r.empirical_poa);
            result["theoretical_bound"] = JsonValue(r.theoretical_bound);
            result["equilibria_found"] = JsonValue(r.equilibria_found);
            event.solve_ms = poa_timer.elapsed_ms();
          }
          payload = JsonValue(std::move(result)).dump();
          {
            const util::MutexLock lock(stats_mutex_);
            ++counters_.solves_executed;
          }
          metrics.counter_add("svc.solves");
          if (use_cache) {
            cache_.publish(cache_key, *payload);
            published = true;
          }
        } catch (...) {
          if (use_cache && !published) cache_.abandon(cache_key);
          throw;
        }
      }
      if (deadline.exceeded(job.admitted)) {
        // The work still went into the cache above; only *this* response
        // degrades to an error, so a cached retry is instant.
        was_deadline = true;
        throw std::runtime_error("deadline expired during solve");
      }
      // Result payloads are deterministic bytes (the cache stores them),
      // so this counter is too; the envelope is not counted because its
      // wall_* values vary in digit length run to run.
      metrics.counter_add("svc.serialize_bytes",
                          static_cast<std::int64_t>(payload->size()));
      {
        // Covers envelope assembly including the result re-parse, which
        // is milliseconds for large assignments — without it the trace
        // would show an unexplained gap before serialize.
        MECSC_PROFILE_SCOPE("svc.respond");
        JsonObject body = ok_envelope(id, type, request_id);
        body["cached"] = JsonValue(cached);
        body["result"] = util::parse_json(*payload);
        body["wall_queue_ms"] = JsonValue(queue_wait_ms);
        body["wall_service_ms"] = JsonValue(job.admitted.elapsed_ms());
        {
          MECSC_PROFILE_SCOPE("svc.serialize_response");
          const util::Timer serialize_timer;
          response = JsonValue(std::move(body)).dump();
          event.serialize_ms = serialize_timer.elapsed_ms();
          metrics.wall_duration_record("wall_svc_serialize_ms",
                                       event.serialize_ms);
        }
      }
      ok = true;
    } else {
      throw std::invalid_argument("unknown request type \"" + type + "\"");
    }
  } catch (const std::exception& e) {
    const std::string what = e.what();
    std::string code = "bad_request";
    std::string message = what;
    if (was_deadline) {
      code = "deadline_exceeded";
    } else if (what.rfind("parse_error: ", 0) == 0) {
      code = "parse_error";
      message = what.substr(13);
    } else if (what.rfind("io: ", 0) == 0 ||
               dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
               dynamic_cast<const util::JsonError*>(&e) != nullptr) {
      code = "bad_request";
    } else {
      code = "internal";
    }
    if (request_id.empty()) request_id = next_request_id();
    event.outcome = code;
    response = error_line(id, code, message, request_id);
  }

  // Counters are bumped *before* the response leaves: a client that has read
  // its response and immediately asks for stats must see its own request
  // reflected in them.
  {
    const util::MutexLock lock(stats_mutex_);
    if (ok) {
      ++counters_.responses_ok;
    } else {
      ++counters_.responses_error;
      if (was_deadline) ++counters_.deadline_exceeded;
    }
  }
  job.conn->write_line(response);
  metrics.wall_duration_record("wall_svc_service_ms",
                               job.admitted.elapsed_ms());
  if (ok) {
    metrics.counter_add("svc.responses_ok");
  } else {
    metrics.counter_add("svc.responses_error");
  }
  event.request_id = request_id;
  event.ok = ok;
  event.bytes_out = response.size() + 1;  // +1: the '\n' framing byte
  event.total_ms = job.admitted.elapsed_ms();

  // Trace epilogue: detach the profiler bridge, decide keep-or-drop
  // (tail-based: errors and slow requests survive a 0 sample rate), feed
  // the flight ring, and hand kept traces to the async writer.
  bridge.reset();
  if (!trace) {
    // The request failed before a context could be resolved (parse
    // error, missing type): mint one from the request_id so error traces
    // are still kept and explain themselves.
    obs::TraceContext minted = obs::TraceContext::derive(request_id, false);
    minted.span_id.clear();
    minted.sampled =
        obs::trace_head_sample(minted.trace_id, options_.trace_sample_rate);
    trace.emplace(std::move(minted), job.admitted);
    trace->add_complete("svc.queue", 0.0, queue_wait_ms);
  }
  const bool sampled = trace->context().sampled;
  std::string keep_reason;  // priority: error > sampled > slow
  if (!ok) {
    keep_reason = "error";
  } else if (sampled) {
    keep_reason = "sampled";
  } else if (options_.slow_request_ms >= 0.0 &&
             event.total_ms >= options_.slow_request_ms) {
    keep_reason = "slow";
  }
  if (sampled) {
    traces_sampled_.fetch_add(1, std::memory_order_relaxed);
    metrics.counter_add("svc.traces_sampled");
  }
  obs::FinishedTrace finished =
      trace->finish(request_id, event.type, keep_reason, worker_ordinal,
                    job.admitted_at_ms);
  if (!keep_reason.empty()) {
    traces_kept_.fetch_add(1, std::memory_order_relaxed);
    metrics.counter_add("svc.traces_kept");
  }
  if (trace_writer_ && !keep_reason.empty()) {
    flight_.record(event, &finished);  // the writer needs the trace too
    trace_writer_->write(std::move(finished));
  } else {
    flight_.record(event, std::move(finished));
  }

  record_event(std::move(event));
}

void SolverServer::request_shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel))
    return;  // already draining
  if (listener_) listener_->shutdown();
  // Wake blocked session readers so they observe the drain and exit.
  // drain_ready_ gates wait() so it never tries to join a session that
  // this sweep has not woken yet.
  sessions_.close();
  {
    const util::MutexLock lock(lifecycle_mutex_);
    drain_ready_ = true;
  }
  cache_.shutdown_wakeup();
  drain_cv_.notify_all();
}

void SolverServer::wait() {
  {
    const util::MutexLock lock(lifecycle_mutex_);
    while (!drain_ready_) drain_cv_.wait(lifecycle_mutex_);
  }
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  // The acceptor is gone, so no session starts any more. Sessions exit on
  // EOF/shutdown_read; every request they admitted is drained by the
  // workers below before the pool exits.
  sessions_.join_all();
  queue_.close();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  // Telemetry surfaces go last: the admin endpoint stays scrapeable while
  // the drain is in progress, and every worker-recorded wide event is in
  // the log (and every kept trace in the writer queue) before the files
  // are flushed and closed.
  if (admin_) admin_->stop();
  if (request_log_) request_log_->close();
  if (trace_writer_) trace_writer_->close();
}

ServerStats SolverServer::stats() const {
  ServerStats s;
  {
    const util::MutexLock lock(stats_mutex_);
    s = counters_;
  }
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  s.cache = cache_.stats();
  return s;
}

void SolverServer::record_event(obs::RequestEvent event) {
  telemetry_.record(event);
  if (request_log_) request_log_->write(event);
}

obs::ServiceGauges SolverServer::gauges() const {
  obs::ServiceGauges g;
  g.queue_depth = queue_.size();
  g.queue_capacity = queue_.capacity();
  g.workers = options_.threads;
  g.workers_busy = workers_busy_.load(std::memory_order_relaxed);
  g.connections_in_flight =
      connections_in_flight_.load(std::memory_order_relaxed);
  {
    const util::MutexLock lock(stats_mutex_);
    g.accepted_connections = counters_.accepted_connections;
  }
  const ResultCache::Stats c = cache_.stats();
  g.cache_size = c.size;
  g.cache_capacity = c.capacity;
  g.cache_hits = c.hits;
  g.cache_misses = c.misses;
  g.cache_coalesced = c.coalesced;
  g.cache_evictions = c.evictions;
  if (request_log_) {
    g.request_log_dropped = request_log_->dropped();
    g.request_log_rotations = request_log_->rotations();
  }
  g.traces_sampled = traces_sampled_.load(std::memory_order_relaxed);
  g.traces_kept = traces_kept_.load(std::memory_order_relaxed);
  if (trace_writer_) g.trace_writer_dropped = trace_writer_->dropped();
  g.flight_capacity = flight_.capacity();
  g.flight_size = flight_.size();
  g.flight_recorded_total = flight_.recorded_total();
  return g;
}

util::JsonValue SolverServer::flight_json() const { return flight_.to_json(); }

util::JsonValue SolverServer::metrics_json() {
  return obs::telemetry_to_json(telemetry_.snapshot(), gauges());
}

std::string SolverServer::metrics_prometheus() {
  return obs::telemetry_to_prometheus(telemetry_.snapshot(), gauges());
}

}  // namespace mecsc::svc
