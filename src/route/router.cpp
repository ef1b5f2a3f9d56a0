#include "route/router.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/run_info.h"
#include "svc/client.h"
#include "svc/server.h"
#include "util/json_arena.h"

namespace mecsc::route {
namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

/// Thrown when every backend in a digest's preference order failed at the
/// transport level — there is no backend response to relay.
struct NoBackendError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string error_line(const JsonValue& id, const std::string& code,
                       const std::string& message,
                       const std::string& request_id = std::string()) {
  JsonObject error;
  error["code"] = JsonValue(code);
  error["message"] = JsonValue(message);
  JsonObject response;
  response["id"] = id;
  response["ok"] = JsonValue(false);
  if (!request_id.empty()) response["request_id"] = JsonValue(request_id);
  response["error"] = JsonValue(std::move(error));
  return JsonValue(std::move(response)).dump();
}

JsonObject ok_envelope(const JsonValue& id, const std::string& type,
                       const std::string& request_id) {
  JsonObject response;
  response["id"] = id;
  response["ok"] = JsonValue(true);
  response["type"] = JsonValue(type);
  response["request_id"] = JsonValue(request_id);
  return response;
}

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

/// Splices `,"key":<value_json>` immediately before the final '}' of a
/// serialized JSON object, exploiting the protocol's last-duplicate-wins
/// rule (util/json_arena.h): the parser resolves duplicate object keys to
/// the final occurrence, so the spliced field overrides any earlier one
/// without re-serializing the line. `value_json` must be a complete JSON
/// value; key and value are router-minted (safe charset), never client
/// bytes.
void splice_field(std::string& line, const std::string& key,
                  const std::string& value_json) {
  const std::size_t brace = line.rfind('}');
  if (brace == std::string::npos) return;  // not an object: leave untouched
  // An empty object ("{}" modulo whitespace) takes the field without the
  // leading comma. Routed lines always carry at least "type", but the
  // guard keeps the helper total.
  std::size_t prev = brace;
  while (prev > 0 && (line[prev - 1] == ' ' || line[prev - 1] == '\t'))
    --prev;
  const bool empty_object = prev > 0 && line[prev - 1] == '{';
  line.insert(brace, (empty_object ? "\"" : ",\"") + key + "\":" + value_json);
}

obs::ServiceTelemetry::Options telemetry_options(const RouterOptions& o) {
  obs::ServiceTelemetry::Options t;
  if (o.telemetry_window_ms > 0.0) t.window_ms = o.telemetry_window_ms;
  return t;
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      telemetry_(telemetry_options(options_)),
      flight_(options_.flight_recorder_capacity) {
  // Topology errors surface at construction, before any socket exists.
  shard_map_ = std::make_unique<ShardMap>(options_.backends);
  backends_.reserve(options_.backends.size());
  for (const BackendSpec& spec : options_.backends) {
    auto state = std::make_unique<BackendState>();
    state->spec = spec;
    backends_.push_back(std::move(state));
  }
}

Router::~Router() {
  request_shutdown();
  wait();
}

void Router::start() {
  if (!options_.unix_socket_path.empty()) {
    listener_ = std::make_unique<svc::Listener>(
        svc::Listener::listen_unix(options_.unix_socket_path));
  } else if (options_.tcp_port >= 0) {
    listener_ = std::make_unique<svc::Listener>(
        svc::Listener::listen_tcp(options_.tcp_port));
  } else {
    throw std::runtime_error(
        "route: RouterOptions needs unix_socket_path or tcp_port");
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
    svc::AdminServer::Options admin_options;
    admin_options.tcp_port = options_.admin_port;
    admin_options.metrics_handler = [this] { return metrics_prometheus(); };
    admin_options.stats_handler = [this] {
      return metrics_json().dump() + "\n";
    };
    admin_options.flight_handler = [this] {
      return flight_json().dump() + "\n";
    };
    admin_ = std::make_unique<svc::AdminServer>(admin_options);
  }
  if (options_.health_interval_ms > 0.0) {
    prober_thread_ = std::thread([this] { prober_loop(); });
  }
  acceptor_thread_ = std::thread([this] { acceptor_loop(); });
}

int Router::port() const { return listener_ ? listener_->port() : 0; }

int Router::admin_port() const { return admin_ ? admin_->port() : -1; }

const std::string& Router::endpoint() const {
  static const std::string kUnbound = "(unbound)";
  return listener_ ? listener_->endpoint() : kUnbound;
}

void Router::acceptor_loop() {
  std::uint32_t next_ordinal = 0;
  while (true) {
    svc::ConnectionPtr conn = listener_->accept();
    if (!conn) return;
    const std::uint32_t ordinal = next_ordinal;
    if (!sessions_.spawn(conn, [this, ordinal](svc::ConnectionPtr c) {
          session_loop(std::move(c), ordinal);
        })) {
      conn->write_line(error_line(JsonValue(nullptr), "shutting_down",
                                  "router is draining"));
      continue;
    }
    ++next_ordinal;
    {
      const util::MutexLock lock(stats_mutex_);
      ++counters_.accepted_connections;
    }
  }
}

void Router::session_loop(svc::ConnectionPtr conn, std::uint32_t ordinal) {
  const GaugeGuard in_flight(connections_in_flight_);
  while (true) {
    std::optional<std::string> line = conn->read_line(svc::kMaxRequestBytes);
    if (!line) {
      if (conn->line_overflow()) {
        conn->write_line(error_line(JsonValue(nullptr), "bad_request",
                                    "request line exceeds the size limit"));
      }
      return;
    }
    if (line->empty()) continue;
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
          JsonValue(nullptr), "shutting_down", "router is draining", rid);
      conn->write_line(response);
      obs::RequestEvent event;
      event.request_id = rid;
      event.outcome = "shutting_down";
      event.ok = false;
      event.bytes_in = line->size();
      event.bytes_out = response.size() + 1;
      flight_.record(event, nullptr);
      record_event(std::move(event));
      continue;
    }
    process_line(conn, std::move(*line), ordinal);
  }
}

std::string Router::next_request_id() {
  return "r-" + std::to_string(
                    request_id_seq_.fetch_add(1, std::memory_order_relaxed) +
                    1);
}

bool Router::should_skip(const BackendState& backend) const {
  if (backend.draining.load(std::memory_order_acquire)) return true;
  if (!backend.healthy.load(std::memory_order_acquire)) return true;
  if (options_.spill_queue_fraction < 1.0) {
    const util::MutexLock lock(backend.health_mutex);
    if (backend.probed && backend.queue_capacity > 0 &&
        backend.queue_depth >=
            options_.spill_queue_fraction *
                static_cast<double>(backend.queue_capacity)) {
      return true;
    }
  }
  return false;
}

std::size_t Router::shard_of(const std::string& digest) const {
  const std::vector<std::size_t> order = shard_map_->preference(digest);
  for (const std::size_t idx : order) {
    if (!should_skip(*backends_[idx])) return idx;
  }
  return order.front();
}

std::optional<std::string> Router::forward_once(BackendState& backend,
                                                const std::string& line) {
  // Pooled connection first. A pooled connection may have been closed by
  // a restarted backend since it went idle, so one transport failure on a
  // *pooled* connection earns a fresh dial before the backend is written
  // off; a failure on a fresh connection is definitive.
  svc::ConnectionPtr conn;
  bool pooled = false;
  {
    const util::MutexLock lock(backend.pool_mutex);
    if (!backend.idle.empty()) {
      conn = std::move(backend.idle.back());
      backend.idle.pop_back();
      pooled = true;
    }
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!conn) {
      try {
        const svc::Endpoint ep = svc::parse_endpoint(backend.spec.endpoint);
        conn = ep.is_unix ? svc::connect_unix(ep.path)
                          : svc::connect_tcp(ep.host, ep.port);
      } catch (const std::exception&) {
        break;  // backend not dialable
      }
      if (pooled || attempt > 0)
        backend.reconnects.fetch_add(1, std::memory_order_relaxed);
    }
    if (conn->write_line(line)) {
      std::optional<std::string> response =
          conn->read_line(svc::kMaxResponseBytes);
      if (response) {
        const util::MutexLock lock(backend.pool_mutex);
        backend.idle.push_back(std::move(conn));
        return response;
      }
      // EOF mid-request or an overlong response: the stream is dead or
      // desynchronized either way — drop the connection.
    }
    conn.reset();
    if (!pooled) break;  // the failed connection was already fresh
    pooled = false;      // retry once on a fresh dial
  }
  backend.healthy.store(false, std::memory_order_release);
  backend.failures.fetch_add(1, std::memory_order_relaxed);
  {
    const util::MutexLock lock(stats_mutex_);
    ++counters_.backend_failures;
  }
  return std::nullopt;
}

std::optional<Router::ForwardResult> Router::forward(const std::string& digest,
                                                     const std::string& line) {
  const std::vector<std::size_t> order = shard_map_->preference(digest);
  // Eligible backends in preference order, then the skipped ones as a
  // last resort — a draining or unhealthy backend that still answers
  // beats a structured failure.
  std::vector<std::size_t> try_order;
  try_order.reserve(order.size());
  for (const std::size_t idx : order)
    if (!should_skip(*backends_[idx])) try_order.push_back(idx);
  const std::size_t eligible = try_order.size();
  for (const std::size_t idx : order)
    if (should_skip(*backends_[idx])) try_order.push_back(idx);

  std::optional<ForwardResult> pushed_back;  // best overloaded response
  for (std::size_t i = 0; i < try_order.size(); ++i) {
    const std::size_t idx = try_order[i];
    BackendState& backend = *backends_[idx];
    std::optional<std::string> response = forward_once(backend, line);
    if (!response) continue;

    ForwardResult result;
    result.response = std::move(*response);
    result.backend = idx;
    result.spilled = idx != order.front();
    result.ok = true;
    try {
      // One in-situ parse of the response to read the envelope verdict —
      // the spill decision needs the error code; the bytes are relayed
      // untouched either way.
      const util::JsonArena parsed = util::parse_json_arena(result.response);
      if (parsed.root().is_object() && parsed.root().contains("ok") &&
          parsed.root().at("ok").is_bool()) {
        result.ok = parsed.root().at("ok").as_bool();
        if (!result.ok && parsed.root().contains("error") &&
            parsed.root().at("error").is_object() &&
            parsed.root().at("error").contains("code")) {
          result.error_code =
              std::string(parsed.root().at("error").at("code").as_string());
        }
      }
    } catch (const std::exception&) {
      // A non-JSON response is a backend bug; relay it rather than guess.
    }
    // Reactive spill: a backend that answers "overloaded" (admission
    // control) or "shutting_down" (drain raced the probe) pushes the
    // request to the next preference. The pushed-back response is kept —
    // when every backend is saturated the client gets the owner's
    // rejection, complete with its wall_retry_after_ms backoff hint.
    if (!result.ok && (result.error_code == "overloaded" ||
                       result.error_code == "shutting_down") &&
        i + 1 < eligible) {
      if (!pushed_back) pushed_back = std::move(result);
      continue;
    }
    return result;
  }
  return pushed_back;
}

void Router::process_line(const svc::ConnectionPtr& conn, std::string line,
                          std::uint32_t ordinal) {
  const util::Timer admitted;
  const double admitted_at_ms = telemetry_.now_ms();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter_add("route.requests");

  obs::RequestEvent event;
  event.bytes_in = line.size();

  std::optional<obs::RequestTrace> trace;
  JsonValue id;
  std::string request_id;
  std::string response;
  bool ok = false;
  bool forwarded_request = false;
  bool spilled = false;
  try {
    // The router needs the envelope fields and the canonical instance
    // bytes, never a decode: digest extraction costs one parse and no
    // Instance construction.
    util::JsonArena arena;
    {
      const util::Timer parse_timer;
      try {
        arena = util::parse_json_arena(line);
      } catch (const util::JsonError& e) {
        throw std::runtime_error(std::string("parse_error: ") + e.what());
      }
      event.parse_ms = parse_timer.elapsed_ms();
      metrics.wall_duration_record("wall_route_parse_ms", event.parse_ms);
    }
    const util::JsonArena::View request = arena.root();
    if (!request.is_object())
      throw std::invalid_argument("request must be a JSON object");
    if (request.contains("id")) id = request.at("id").to_json_value();
    const bool client_sent_request_id = request.contains("request_id");
    if (client_sent_request_id)
      request_id = util::field_string(request, "request_id");
    if (request_id.empty()) request_id = next_request_id();
    if (!request.contains("type"))
      throw std::invalid_argument("request needs a \"type\" field");
    const std::string type(util::field_string(request, "type"));
    event.type = type;

    // Trace context: same resolution as the backend (adopt a well-formed
    // client traceparent, else derive from the request_id), but the root
    // span is "route.request" — the cross-process tree reads
    // route.request -> route.forward -> svc.request.
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
        tctx.span_id.clear();
      }
      tctx.sampled = tctx.sampled ||
                     obs::trace_head_sample(tctx.trace_id,
                                            options_.trace_sample_rate);
      trace.emplace(std::move(tctx), admitted, "route.request");
      trace->add_complete("route.parse", 0.0, event.parse_ms);
    }

    if (type == "health") {
      JsonObject body = ok_envelope(id, type, request_id);
      body["protocol_version"] = JsonValue(svc::kSvcProtocolVersion);
      body["role"] = JsonValue("router");
      body["draining"] = JsonValue(draining());
      JsonArray list;
      for (const BackendView& view : backend_views()) {
        JsonObject b;
        b["name"] = JsonValue(view.name);
        b["endpoint"] = JsonValue(view.endpoint);
        b["weight"] = JsonValue(view.weight);
        b["draining"] = JsonValue(view.draining);
        b["healthy"] = JsonValue(view.healthy);
        if (view.probed) {
          b["queue_capacity"] = JsonValue(view.queue_capacity);
          b["workers"] = JsonValue(view.workers);
          b["wall_queue_depth"] = JsonValue(view.queue_depth);
          b["wall_inflight"] = JsonValue(view.inflight);
          b["wall_service_time_ms"] = JsonValue(view.service_time_ms);
        }
        list.push_back(JsonValue(std::move(b)));
      }
      body["backends"] = JsonValue(std::move(list));
      response = JsonValue(std::move(body)).dump();
      ok = true;
    } else if (type == "stats") {
      const RouterStats s = stats();
      JsonObject body = ok_envelope(id, type, request_id);
      body["protocol_version"] = JsonValue(svc::kSvcProtocolVersion);
      JsonObject router;
      router["accepted_connections"] = JsonValue(s.accepted_connections);
      router["requests_total"] = JsonValue(s.requests_total);
      router["responses_ok"] = JsonValue(s.responses_ok);
      router["responses_error"] = JsonValue(s.responses_error);
      router["forwarded"] = JsonValue(s.forwarded);
      router["spilled"] = JsonValue(s.spilled);
      router["backend_reconnects"] = JsonValue(s.backend_reconnects);
      router["backend_failures"] = JsonValue(s.backend_failures);
      body["router"] = JsonValue(std::move(router));
      JsonArray list;
      for (const BackendView& view : backend_views()) {
        JsonObject b;
        b["name"] = JsonValue(view.name);
        b["draining"] = JsonValue(view.draining);
        b["healthy"] = JsonValue(view.healthy);
        b["forwarded"] = JsonValue(view.forwarded);
        b["spilled_to"] = JsonValue(view.spilled_to);
        b["failures"] = JsonValue(view.failures);
        b["reconnects"] = JsonValue(view.reconnects);
        list.push_back(JsonValue(std::move(b)));
      }
      body["backends"] = JsonValue(std::move(list));
      response = JsonValue(std::move(body)).dump();
      ok = true;
    } else if (type == "metrics") {
      JsonObject body = ok_envelope(id, type, request_id);
      body["telemetry"] = metrics_json();
      response = JsonValue(std::move(body)).dump();
      ok = true;
    } else if (type == "drain_backend") {
      if (!request.contains("backend"))
        throw std::invalid_argument(
            "drain_backend needs a \"backend\" (name) field");
      const std::string name(util::field_string(request, "backend"));
      if (!drain_backend(name))
        throw std::invalid_argument(
            "cannot drain \"" + name +
            "\": unknown backend or last one accepting keys");
      JsonObject body = ok_envelope(id, type, request_id);
      body["draining_backend"] = JsonValue(name);
      std::size_t active = 0;
      for (const auto& backend : backends_)
        if (!backend->draining.load(std::memory_order_acquire)) ++active;
      body["active_backends"] = JsonValue(active);
      response = JsonValue(std::move(body)).dump();
      ok = true;
    } else if (type == "shutdown") {
      JsonObject body = ok_envelope(id, type, request_id);
      body["draining"] = JsonValue(true);
      response = JsonValue(std::move(body)).dump();
      conn->write_line(response);
      {
        const util::MutexLock lock(stats_mutex_);
        ++counters_.responses_ok;
      }
      event.request_id = request_id;
      event.outcome = "ok";
      event.bytes_out = response.size() + 1;
      event.total_ms = admitted.elapsed_ms();
      flight_.record(event, nullptr);
      record_event(std::move(event));
      // Response is on the wire before the drain (the drain tears the
      // trace writer down, so this last request skips the trace epilogue).
      request_shutdown();
      return;
    } else {
      // Routed. Requests with an instance shard by its digest; everything
      // else lands on the empty-digest owner — placement stays a pure
      // function of the request bytes either way.
      std::string digest;
      if (request.contains("instance") && request.at("instance").is_object()) {
        // The canonical dump is the backend's cache-key input, so the
        // digest here equals the backend's digest of the same request.
        trace->begin("route.digest");
        digest = obs::fnv1a64_hex(request.at("instance").dump());
        trace->end();
        event.instance_digest = digest;
      }
      // Logged only; a wrongly typed algorithm is the backend's to reject.
      if (request.contains("algorithm") && request.at("algorithm").is_string())
        event.algorithm = request.at("algorithm").as_string();

      // The forwarded line: the raw client bytes plus (a) the resolved
      // request_id when the client sent none — so the backend's wide
      // event, the response, and the router's log all correlate on one id
      // and the backend never mints its own — and (b) the traceparent
      // naming the route.forward span as parent, which overrides any
      // client traceparent by the last-duplicate-wins rule.
      if (!client_sent_request_id)
        splice_field(line, "request_id", JsonValue(request_id).dump());
      trace->begin("route.forward");
      const obs::TraceContext& ctx = trace->context();
      const std::string hop_traceparent =
          "00-" + ctx.trace_id + "-" + trace->current_span_id() + "-" +
          (ctx.sampled ? "01" : "00");
      splice_field(line, "traceparent", JsonValue(hop_traceparent).dump());

      std::optional<ForwardResult> result = forward(digest, line);
      trace->end();
      if (!result)
        throw NoBackendError("no backend reachable for this request");

      forwarded_request = true;
      spilled = result->spilled;
      backends_[result->backend]->forwarded.fetch_add(
          1, std::memory_order_relaxed);
      if (result->spilled) {
        backends_[result->backend]->spilled_to.fetch_add(
            1, std::memory_order_relaxed);
        metrics.counter_add("route.spilled");
      }
      metrics.counter_add("route.forwarded");

      response = std::move(result->response);
      splice_field(response, "route_backend",
                   JsonValue(backends_[result->backend]->spec.name).dump());
      if (result->spilled)
        splice_field(response, "route_spilled", "true");
      ok = result->ok;
      if (!ok)
        event.outcome = result->error_code.empty() ? "relayed_error"
                                                   : result->error_code;
    }
  } catch (const std::exception& e) {
    const std::string what = e.what();
    std::string code = "bad_request";
    std::string message = what;
    if (dynamic_cast<const NoBackendError*>(&e) != nullptr) {
      code = "unavailable";
    } else if (what.rfind("parse_error: ", 0) == 0) {
      code = "parse_error";
      message = what.substr(13);
    } else if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
               dynamic_cast<const util::JsonError*>(&e) != nullptr) {
      code = "bad_request";
    } else {
      code = "internal";
    }
    if (request_id.empty()) request_id = next_request_id();
    event.outcome = code;
    response = error_line(id, code, message, request_id);
  }

  {
    const util::MutexLock lock(stats_mutex_);
    if (ok) {
      ++counters_.responses_ok;
    } else {
      ++counters_.responses_error;
    }
    if (forwarded_request) {
      ++counters_.forwarded;
      if (spilled) ++counters_.spilled;
    }
  }
  conn->write_line(response);
  metrics.wall_duration_record("wall_route_service_ms", admitted.elapsed_ms());

  event.request_id = request_id;
  event.ok = ok;
  event.bytes_out = response.size() + 1;
  event.total_ms = admitted.elapsed_ms();

  if (!trace) {
    obs::TraceContext minted = obs::TraceContext::derive(request_id, false);
    minted.span_id.clear();
    minted.sampled =
        obs::trace_head_sample(minted.trace_id, options_.trace_sample_rate);
    trace.emplace(std::move(minted), admitted, "route.request");
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
  if (sampled) traces_sampled_.fetch_add(1, std::memory_order_relaxed);
  obs::FinishedTrace finished =
      trace->finish(request_id, event.type, keep_reason, ordinal,
                    admitted_at_ms);
  if (!keep_reason.empty())
    traces_kept_.fetch_add(1, std::memory_order_relaxed);
  if (trace_writer_ && !keep_reason.empty()) {
    flight_.record(event, &finished);  // the writer needs the trace too
    trace_writer_->write(std::move(finished));
  } else {
    flight_.record(event, std::move(finished));
  }

  record_event(std::move(event));
}

void Router::prober_loop() {
  while (true) {
    {
      util::MutexLock lock(prober_mutex_);
      // One bounded wait per sweep; wakes early on drain. The while-loop
      // re-arms against spurious wakeups without stretching the period.
      while (!prober_stop_ &&
             prober_cv_.wait_for_ms(prober_mutex_,
                                    options_.health_interval_ms)) {
      }
      if (prober_stop_) return;
    }
    probe_all();
  }
}

void Router::probe_all() {
  for (const auto& backend_ptr : backends_) {
    BackendState& backend = *backend_ptr;
    if (backend.draining.load(std::memory_order_acquire)) continue;
    bool probe_ok = false;
    bool peer_draining = false;
    std::size_t queue_capacity = 0;
    std::size_t workers = 0;
    double queue_depth = 0.0;
    double inflight = 0.0;
    double service_time_ms = 0.0;
    try {
      // A fresh connection per probe: probes are rare (one per period)
      // and a dedicated dial doubles as a reachability check that pooled
      // connections would mask.
      svc::SvcClient::ReconnectOptions no_retry;
      no_retry.attempts = 0;
      svc::SvcClient probe =
          svc::SvcClient::connect(backend.spec.endpoint, no_retry);
      const svc::SvcResponse reply = probe.health();
      if (!reply.ok)
        throw std::runtime_error("health answered " + reply.error_code);
      const JsonValue& body = reply.body;
      if (body.contains("draining") && body.at("draining").is_bool())
        peer_draining = body.at("draining").as_bool();
      if (body.contains("queue_capacity") &&
          body.at("queue_capacity").is_number())
        queue_capacity = static_cast<std::size_t>(
            body.at("queue_capacity").as_number());
      if (body.contains("workers") && body.at("workers").is_number())
        workers = static_cast<std::size_t>(body.at("workers").as_number());
      if (body.contains("wall_queue_depth") &&
          body.at("wall_queue_depth").is_number())
        queue_depth = body.at("wall_queue_depth").as_number();
      if (body.contains("wall_inflight") &&
          body.at("wall_inflight").is_number())
        inflight = body.at("wall_inflight").as_number();
      if (body.contains("wall_service_time_ms") &&
          body.at("wall_service_time_ms").is_number())
        service_time_ms = body.at("wall_service_time_ms").as_number();
      probe_ok = true;
    } catch (const std::exception&) {
      probe_ok = false;
    }
    if (probe_ok) {
      {
        const util::MutexLock lock(backend.health_mutex);
        backend.probed = true;
        backend.probe_failures = 0;
        backend.queue_capacity = queue_capacity;
        backend.workers = workers;
        backend.queue_depth = queue_depth;
        backend.inflight = inflight;
        backend.service_time_ms = service_time_ms;
      }
      // A peer that reports draining still answers, but should stop
      // receiving new keys; unhealthy is the skip flag that probing can
      // undo once the peer restarts.
      backend.healthy.store(!peer_draining, std::memory_order_release);
    } else {
      bool now_unhealthy = false;
      {
        const util::MutexLock lock(backend.health_mutex);
        ++backend.probe_failures;
        backend.probed = false;
        now_unhealthy =
            backend.probe_failures >= options_.probe_failure_threshold;
      }
      if (now_unhealthy)
        backend.healthy.store(false, std::memory_order_release);
    }
  }
}

bool Router::drain_backend(const std::string& name) {
  std::size_t target = backends_.size();
  std::size_t active = 0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->spec.name == name) target = i;
    if (!backends_[i]->draining.load(std::memory_order_acquire)) ++active;
  }
  if (target == backends_.size()) return false;
  if (backends_[target]->draining.load(std::memory_order_acquire))
    return true;  // idempotent
  if (active <= 1) return false;  // would leave no backend accepting keys
  backends_[target]->draining.store(true, std::memory_order_release);
  return true;
}

void Router::request_shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel))
    return;
  if (listener_) listener_->shutdown();
  sessions_.close();
  {
    const util::MutexLock lock(lifecycle_mutex_);
    drain_ready_ = true;
  }
  {
    const util::MutexLock lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  drain_cv_.notify_all();
}

void Router::wait() {
  {
    const util::MutexLock lock(lifecycle_mutex_);
    while (!drain_ready_) drain_cv_.wait(lifecycle_mutex_);
  }
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  if (prober_thread_.joinable()) prober_thread_.join();
  sessions_.join_all();
  // Sessions are gone, so the pools are quiescent; dropping the idle
  // connections closes them.
  for (const auto& backend : backends_) {
    const util::MutexLock lock(backend->pool_mutex);
    backend->idle.clear();
  }
  if (admin_) admin_->stop();
  if (request_log_) request_log_->close();
  if (trace_writer_) trace_writer_->close();
}

RouterStats Router::stats() const {
  const util::MutexLock lock(stats_mutex_);
  return counters_;
}

std::vector<BackendView> Router::backend_views() const {
  std::vector<BackendView> views;
  views.reserve(backends_.size());
  for (const auto& backend_ptr : backends_) {
    const BackendState& backend = *backend_ptr;
    BackendView view;
    view.name = backend.spec.name;
    view.endpoint = backend.spec.endpoint;
    view.weight = backend.spec.weight;
    view.draining = backend.draining.load(std::memory_order_acquire);
    view.healthy = backend.healthy.load(std::memory_order_acquire);
    {
      const util::MutexLock lock(backend.health_mutex);
      view.probed = backend.probed;
      view.queue_capacity = backend.queue_capacity;
      view.workers = backend.workers;
      view.queue_depth = backend.queue_depth;
      view.inflight = backend.inflight;
      view.service_time_ms = backend.service_time_ms;
    }
    view.forwarded = backend.forwarded.load(std::memory_order_relaxed);
    view.spilled_to = backend.spilled_to.load(std::memory_order_relaxed);
    view.failures = backend.failures.load(std::memory_order_relaxed);
    view.reconnects = backend.reconnects.load(std::memory_order_relaxed);
    views.push_back(std::move(view));
  }
  return views;
}

void Router::record_event(obs::RequestEvent event) {
  telemetry_.record(event);
  if (request_log_) request_log_->write(event);
}

obs::ServiceGauges Router::gauges() const {
  obs::ServiceGauges g;
  g.connections_in_flight =
      connections_in_flight_.load(std::memory_order_relaxed);
  {
    const util::MutexLock lock(stats_mutex_);
    g.accepted_connections = counters_.accepted_connections;
  }
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

util::JsonValue Router::flight_json() const { return flight_.to_json(); }

util::JsonValue Router::metrics_json() {
  JsonValue doc = obs::telemetry_to_json(telemetry_.snapshot(), gauges());
  const RouterStats s = stats();
  JsonObject route;
  route["forwarded"] = JsonValue(s.forwarded);
  route["spilled"] = JsonValue(s.spilled);
  route["backend_reconnects"] = JsonValue(s.backend_reconnects);
  route["backend_failures"] = JsonValue(s.backend_failures);
  JsonArray list;
  for (const BackendView& view : backend_views()) {
    JsonObject b;
    b["name"] = JsonValue(view.name);
    b["endpoint"] = JsonValue(view.endpoint);
    b["weight"] = JsonValue(view.weight);
    b["draining"] = JsonValue(view.draining);
    b["healthy"] = JsonValue(view.healthy);
    b["forwarded"] = JsonValue(view.forwarded);
    b["spilled_to"] = JsonValue(view.spilled_to);
    b["failures"] = JsonValue(view.failures);
    b["reconnects"] = JsonValue(view.reconnects);
    if (view.probed) {
      b["queue_capacity"] = JsonValue(view.queue_capacity);
      b["workers"] = JsonValue(view.workers);
      b["wall_queue_depth"] = JsonValue(view.queue_depth);
      b["wall_inflight"] = JsonValue(view.inflight);
      b["wall_service_time_ms"] = JsonValue(view.service_time_ms);
    }
    list.push_back(JsonValue(std::move(b)));
  }
  route["backends"] = JsonValue(std::move(list));
  doc.as_object()["route"] = JsonValue(std::move(route));
  return doc;
}

std::string Router::metrics_prometheus() {
  std::string text =
      obs::telemetry_to_prometheus(telemetry_.snapshot(), gauges());
  // Router-specific series appended in the same exposition format.
  const RouterStats s = stats();
  text += "# TYPE mecsc_route_forwarded_total counter\n";
  text += "mecsc_route_forwarded_total " + std::to_string(s.forwarded) + "\n";
  text += "# TYPE mecsc_route_spilled_total counter\n";
  text += "mecsc_route_spilled_total " + std::to_string(s.spilled) + "\n";
  for (const BackendView& view : backend_views()) {
    text += "mecsc_route_backend_forwarded_total{backend=\"" + view.name +
            "\"} " + std::to_string(view.forwarded) + "\n";
    text += "mecsc_route_backend_healthy{backend=\"" + view.name + "\"} " +
            std::string(view.healthy ? "1" : "0") + "\n";
  }
  return text;
}

}  // namespace mecsc::route
