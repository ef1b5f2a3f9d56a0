#include "obs/telemetry.h"

#include "obs/run_info.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace mecsc::obs {

namespace {

/// Stable small ordinal for the calling thread, assigned on first use.
/// Used to pin a thread to one telemetry shard without any registration
/// handshake; ordinals are process-global, shard choice is ordinal modulo
/// the instance's shard count.
std::size_t thread_ordinal() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// RED key for a request type: the type itself when the daemons serve it
/// (or "unparsed"), else "unknown" (see ServiceTelemetry).
const std::string& red_type_key(const std::string& type) {
  static const std::string kKnown[] = {"drain_backend", "health", "metrics",
                                       "poa",           "shutdown", "solve",
                                       "stats",         "unparsed"};
  static const std::string kUnknown = "unknown";
  for (const std::string& known : kKnown)
    if (type == known) return known;
  return kUnknown;
}

/// Prometheus label values: escape backslash, double-quote, and newline
/// per the text exposition format.
std::string prom_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Numbers in the exposition format: shortest round-trip double, matching
/// the JSON serializer's behavior closely enough for scrapers.
void prom_number(std::string* out, double value) {
  if (std::isinf(value)) {
    *out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  *out += buf;
}

void prom_line(std::string* out, const std::string& name,
               const std::string& labels, double value) {
  *out += name;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  prom_number(out, value);
  *out += '\n';
}

void prom_header(std::string* out, const std::string& name,
                 const std::string& help, const std::string& type) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + type + "\n";
}

util::JsonValue histogram_json(const LogLinearHistogram& h) {
  util::JsonObject out;
  out["count"] = h.count();
  out["sum"] = h.sum();
  out["mean"] = h.mean();
  out["min"] = h.min();
  out["max"] = h.max();
  out["p50"] = h.quantile(0.50);
  out["p95"] = h.quantile(0.95);
  out["p99"] = h.quantile(0.99);
  out["p999"] = h.quantile(0.999);
  util::JsonArray buckets;
  for (const auto& b : h.nonzero_buckets()) {
    util::JsonArray row;
    row.push_back(b.lower);
    row.push_back(b.upper);
    row.push_back(b.count);
    buckets.push_back(std::move(row));
  }
  out["buckets"] = std::move(buckets);
  return util::JsonValue(std::move(out));
}

}  // namespace

// ---------------------------------------------------------------------------
// RequestEvent

util::JsonValue RequestEvent::to_json() const {
  util::JsonObject out;
  out["event"] = "request";
  out["request_id"] = request_id;
  out["type"] = type;
  if (!algorithm.empty()) out["algorithm"] = algorithm;
  if (!instance_digest.empty()) out["digest"] = instance_digest;
  out["cache"] = cache_outcome;
  out["outcome"] = outcome;
  out["ok"] = ok;
  out["bytes_in"] = bytes_in;
  out["wall_bytes_out"] = bytes_out;
  out["wall_queue_ms"] = queue_ms;
  out["wall_parse_ms"] = parse_ms;
  out["wall_decode_ms"] = decode_ms;
  out["wall_solve_ms"] = solve_ms;
  out["wall_serialize_ms"] = serialize_ms;
  out["wall_total_ms"] = total_ms;
  return util::JsonValue(std::move(out));
}

// ---------------------------------------------------------------------------
// RequestLog

RequestLog::RequestLog(Options options) : options_(std::move(options)) {
  out_.open(options_.path, std::ios::out | std::ios::trunc);
  if (!out_.is_open()) {
    throw std::runtime_error("request log: cannot open '" + options_.path +
                             "' for writing");
  }
  writer_ = std::thread([this] { writer_loop(); });
}

RequestLog::~RequestLog() { close(); }

void RequestLog::write(const RequestEvent& event) {
  if (options_.slow_request_ms >= 0.0 &&
      event.total_ms >= options_.slow_request_ms) {
    // Mirror synchronously so the operator sees the slow request even if
    // the async queue is saturated; one line, same schema as the log.
    std::string line = event.to_json().dump();
    std::fprintf(stderr, "mecsc_serve: slow request %s\n", line.c_str());
    util::MutexLock lock(mutex_);
    ++slow_mirrored_;
    if (closed_ || pending_.size() >= options_.queue_capacity) {
      ++dropped_;
      return;
    }
    pending_.push_back(std::move(line));
    cv_.notify_one();
    return;
  }
  std::string line = event.to_json().dump();
  util::MutexLock lock(mutex_);
  if (closed_ || pending_.size() >= options_.queue_capacity) {
    ++dropped_;
    return;
  }
  pending_.push_back(std::move(line));
  cv_.notify_one();
}

void RequestLog::close() {
  {
    util::MutexLock lock(mutex_);
    if (closed_ && !writer_.joinable()) return;
    closed_ = true;
    cv_.notify_all();
  }
  if (writer_.joinable()) writer_.join();
}

std::uint64_t RequestLog::dropped() const {
  util::MutexLock lock(mutex_);
  return dropped_;
}

std::uint64_t RequestLog::slow_mirrored() const {
  util::MutexLock lock(mutex_);
  return slow_mirrored_;
}

std::uint64_t RequestLog::rotations() const {
  util::MutexLock lock(mutex_);
  return rotations_;
}

void RequestLog::rotate() {
  out_.close();
  // Single-level rollover: the previous ".1" (if any) is replaced, so the
  // log never occupies more than ~2x max_bytes on disk. rename() failures
  // (exotic filesystems) degrade to truncate-in-place, never to a crash.
  std::rename(options_.path.c_str(), (options_.path + ".1").c_str());
  out_.open(options_.path, std::ios::out | std::ios::trunc);
  bytes_written_ = 0;
  util::MutexLock lock(mutex_);
  ++rotations_;
}

void RequestLog::writer_loop() {
  while (true) {
    std::deque<std::string> batch;
    bool closed = false;
    {
      util::MutexLock lock(mutex_);
      while (!closed_ && pending_.empty()) cv_.wait(mutex_);
      batch.swap(pending_);
      closed = closed_;
    }
    for (const std::string& line : batch) {
      if (options_.max_bytes > 0 &&
          bytes_written_ + line.size() + 1 > options_.max_bytes &&
          bytes_written_ > 0) {
        rotate();
      }
      out_ << line << '\n';
      bytes_written_ += line.size() + 1;
    }
    // One flush per drained batch (not per line) keeps the on-disk log
    // current for tail -f / mid-run scrapes without a syscall per event.
    if (!batch.empty()) out_.flush();
    if (closed) {
      // Writes racing close() land before closed_ is set, so one more
      // empty check under the lock drains everything deterministically.
      util::MutexLock lock(mutex_);
      if (pending_.empty()) break;
    }
  }
  out_.flush();
}

// ---------------------------------------------------------------------------
// ServiceTelemetry

ServiceTelemetry::ServiceTelemetry(Options options)
    : options_(options),
      slot_ms_(options.window_ms / static_cast<double>(
                                       options.slots == 0 ? 1 : options.slots)) {
  if (options_.slots == 0) options_.slots = 1;
  if (options_.shards == 0) options_.shards = 1;
  if (!(slot_ms_ > 0.0)) slot_ms_ = 1.0;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ServiceTelemetry::Shard& ServiceTelemetry::local_shard() {
  return *shards_[thread_ordinal() % shards_.size()];
}

bool ServiceTelemetry::slot_in_window(std::uint64_t index,
                                      double at_ms) const {
  const std::uint64_t current =
      static_cast<std::uint64_t>(std::max(0.0, at_ms) / slot_ms_);
  if (index > current) return false;  // future slot (test clock rewound)
  return current - index < options_.slots;
}

void ServiceTelemetry::record_at(const RequestEvent& event, double at_ms) {
  const std::uint64_t slot_index =
      static_cast<std::uint64_t>(std::max(0.0, at_ms) / slot_ms_);
  Shard& shard = local_shard();
  util::MutexLock lock(shard.mutex);
  TypeState& state = shard.types[red_type_key(event.type)];
  if (state.slots.empty()) state.slots.resize(options_.slots);
  ++state.requests;
  state.bytes_in += event.bytes_in;
  state.bytes_out += event.bytes_out;
  if (!event.ok) {
    ++state.errors;
    ++state.errors_by_code[event.outcome];
  }
  state.latency.record(event.total_ms);
  Slot& slot = state.slots[slot_index % state.slots.size()];
  if (slot.index != slot_index) {
    // The ring position last held a slot that has since rotated out of
    // the window; reclaim it for the current slot.
    slot = Slot{};
    slot.index = slot_index;
  }
  ++slot.requests;
  if (!event.ok) ++slot.errors;
  slot.duration_sum_ms += event.total_ms;
}

TelemetrySnapshot ServiceTelemetry::snapshot_at(double at_ms) {
  TelemetrySnapshot out;
  out.window_ms = options_.window_ms;
  out.uptime_ms = at_ms;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mutex);
    for (const auto& [type, state] : shard.types) {
      RedTypeStats& merged = out.types[type];
      merged.requests += state.requests;
      merged.errors += state.errors;
      for (const auto& [code, n] : state.errors_by_code)
        merged.errors_by_code[code] += n;
      merged.bytes_in += state.bytes_in;
      merged.bytes_out += state.bytes_out;
      merged.latency.merge(state.latency);
      for (const Slot& slot : state.slots) {
        if (slot.requests == 0 || !slot_in_window(slot.index, at_ms)) continue;
        merged.window_requests += slot.requests;
        merged.window_errors += slot.errors;
        merged.window_duration_sum_ms += slot.duration_sum_ms;
      }
    }
  }
  return out;
}

double ServiceTelemetry::windowed_service_ms_at(double at_ms) {
  std::uint64_t window_requests = 0;
  double window_duration_sum_ms = 0.0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mutex);
    for (const auto& [type, state] : shard.types) {
      (void)type;
      for (const Slot& slot : state.slots) {
        if (slot.requests == 0 || !slot_in_window(slot.index, at_ms)) continue;
        window_requests += slot.requests;
        window_duration_sum_ms += slot.duration_sum_ms;
      }
    }
  }
  return window_requests > 0
             ? window_duration_sum_ms / static_cast<double>(window_requests)
             : 0.0;
}

double ServiceTelemetry::windowed_service_ms() {
  return windowed_service_ms_at(now_ms());
}

double ServiceTelemetry::retry_after_ms_hint_at(std::size_t queue_depth,
                                                std::size_t workers,
                                                double at_ms) {
  // Mean service time over the window; nominal 25 ms before any data.
  const double windowed_ms = windowed_service_ms_at(at_ms);
  const double mean_ms = windowed_ms > 0.0 ? windowed_ms : 25.0;
  const double effective_workers =
      static_cast<double>(workers == 0 ? 1 : workers);
  // Time until the queue (plus the slot this request would have taken)
  // drains through the worker pool.
  const double hint =
      mean_ms * (static_cast<double>(queue_depth) + 1.0) / effective_workers;
  return std::clamp(hint, 1.0, 10000.0);
}

// ---------------------------------------------------------------------------
// Exports

util::JsonValue telemetry_to_json(const TelemetrySnapshot& snapshot,
                                  const ServiceGauges& gauges) {
  util::JsonObject red;
  for (const auto& [type, stats] : snapshot.types) {
    util::JsonObject t;
    t["requests"] = stats.requests;
    t["errors"] = stats.errors;
    util::JsonObject by_code;
    for (const auto& [code, n] : stats.errors_by_code) by_code[code] = n;
    t["errors_by_code"] = std::move(by_code);
    t["bytes_in"] = stats.bytes_in;
    t["wall_bytes_out"] = stats.bytes_out;
    t["wall_latency_ms"] = histogram_json(stats.latency);
    util::JsonObject window;
    window["requests"] = stats.window_requests;
    window["errors"] = stats.window_errors;
    window["mean_ms"] =
        stats.window_requests > 0
            ? stats.window_duration_sum_ms /
                  static_cast<double>(stats.window_requests)
            : 0.0;
    const double window_s =
        std::max(1e-9, std::min(snapshot.window_ms, snapshot.uptime_ms)) /
        1000.0;
    window["rate_per_s"] =
        static_cast<double>(stats.window_requests) / window_s;
    window["error_rate_per_s"] =
        static_cast<double>(stats.window_errors) / window_s;
    t["wall_window"] = std::move(window);
    red[type] = std::move(t);
  }

  util::JsonObject fixed;
  fixed["queue_capacity"] = gauges.queue_capacity;
  fixed["workers"] = gauges.workers;
  fixed["cache_capacity"] = gauges.cache_capacity;
  fixed["window_ms"] = snapshot.window_ms;

  // Deterministic under a FIFO (--threads 1) capture: the cache counters
  // advance only inside worker-side request processing.
  util::JsonObject cache;
  cache["hits"] = gauges.cache_hits;
  cache["misses"] = gauges.cache_misses;
  cache["coalesced"] = gauges.cache_coalesced;
  cache["evictions"] = gauges.cache_evictions;
  cache["size"] = gauges.cache_size;

  // Causal-trace accounting (obs/tracing.h). Like the cache counters,
  // these advance only inside worker-side request processing, so they are
  // deterministic under a FIFO (--threads 1) capture.
  util::JsonObject trace;
  trace["sampled"] = gauges.traces_sampled;
  trace["kept"] = gauges.traces_kept;
  trace["flight_size"] = gauges.flight_size;
  trace["flight_capacity"] = gauges.flight_capacity;
  trace["flight_recorded_total"] = gauges.flight_recorded_total;

  // Point-in-time operational readings; racy by nature (session threads
  // and the acceptor advance them), so wall-segregated.
  util::JsonObject live;
  live["queue_depth"] = gauges.queue_depth;
  live["workers_busy"] = gauges.workers_busy;
  live["connections_in_flight"] = gauges.connections_in_flight;
  live["accepted_connections"] = gauges.accepted_connections;
  live["request_log_dropped"] = gauges.request_log_dropped;
  // Rotation trips on byte counts, and the log lines carry wall_ fields
  // whose digit counts vary run to run — wall territory.
  live["request_log_rotations"] = gauges.request_log_rotations;
  live["trace_writer_dropped"] = gauges.trace_writer_dropped;
  const std::uint64_t classified = gauges.cache_hits + gauges.cache_misses;
  live["cache_hit_ratio"] =
      classified > 0
          ? static_cast<double>(gauges.cache_hits) /
                static_cast<double>(classified)
          : 0.0;
  live["uptime_ms"] = snapshot.uptime_ms;

  util::JsonObject out;
  out["red"] = std::move(red);
  out["gauges"] = std::move(fixed);
  out["cache"] = std::move(cache);
  out["trace"] = std::move(trace);
  out["build"] = build_info_to_json();
  out["wall_gauges"] = std::move(live);
  return util::JsonValue(std::move(out));
}

std::string telemetry_to_prometheus(const TelemetrySnapshot& snapshot,
                                    const ServiceGauges& gauges) {
  std::string out;
  out.reserve(4096);

  prom_header(&out, "mecsc_requests_total",
              "Requests processed, by request type.", "counter");
  for (const auto& [type, stats] : snapshot.types) {
    prom_line(&out, "mecsc_requests_total",
              "type=\"" + prom_escape(type) + "\"",
              static_cast<double>(stats.requests));
  }

  prom_header(&out, "mecsc_errors_total",
              "Error responses, by request type and error code.", "counter");
  for (const auto& [type, stats] : snapshot.types) {
    for (const auto& [code, n] : stats.errors_by_code) {
      prom_line(&out, "mecsc_errors_total",
                "type=\"" + prom_escape(type) + "\",code=\"" +
                    prom_escape(code) + "\"",
                static_cast<double>(n));
    }
  }

  prom_header(&out, "mecsc_request_bytes_in_total",
              "Request payload bytes received, by request type.", "counter");
  for (const auto& [type, stats] : snapshot.types) {
    prom_line(&out, "mecsc_request_bytes_in_total",
              "type=\"" + prom_escape(type) + "\"",
              static_cast<double>(stats.bytes_in));
  }
  prom_header(&out, "mecsc_request_bytes_out_total",
              "Response bytes written, by request type.", "counter");
  for (const auto& [type, stats] : snapshot.types) {
    prom_line(&out, "mecsc_request_bytes_out_total",
              "type=\"" + prom_escape(type) + "\"",
              static_cast<double>(stats.bytes_out));
  }

  prom_header(&out, "mecsc_request_duration_ms",
              "End-to-end request latency (admission to response).",
              "histogram");
  for (const auto& [type, stats] : snapshot.types) {
    const std::string type_label = "type=\"" + prom_escape(type) + "\"";
    std::uint64_t cumulative = 0;
    for (const auto& bucket : stats.latency.nonzero_buckets()) {
      cumulative += bucket.count;
      // The overflow bucket is open-ended; its count still reaches the
      // mandatory +Inf edge below via the total.
      if (bucket.upper <= bucket.lower) continue;
      std::string le = type_label + ",le=\"";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", bucket.upper);
      le += buf;
      le += '"';
      prom_line(&out, "mecsc_request_duration_ms_bucket", le,
                static_cast<double>(cumulative));
    }
    prom_line(&out, "mecsc_request_duration_ms_bucket",
              type_label + ",le=\"+Inf\"",
              static_cast<double>(stats.latency.count()));
    prom_line(&out, "mecsc_request_duration_ms_sum", type_label,
              stats.latency.sum());
    prom_line(&out, "mecsc_request_duration_ms_count", type_label,
              static_cast<double>(stats.latency.count()));
  }

  prom_header(&out, "mecsc_window_requests",
              "Requests inside the sliding RED window, by request type.",
              "gauge");
  for (const auto& [type, stats] : snapshot.types) {
    prom_line(&out, "mecsc_window_requests",
              "type=\"" + prom_escape(type) + "\"",
              static_cast<double>(stats.window_requests));
  }
  prom_header(&out, "mecsc_window_errors",
              "Errors inside the sliding RED window, by request type.",
              "gauge");
  for (const auto& [type, stats] : snapshot.types) {
    prom_line(&out, "mecsc_window_errors",
              "type=\"" + prom_escape(type) + "\"",
              static_cast<double>(stats.window_errors));
  }

  const struct {
    const char* name;
    const char* help;
    const char* type;
    double value;
  } singles[] = {
      {"mecsc_queue_depth", "Bounded work queue depth.", "gauge",
       static_cast<double>(gauges.queue_depth)},
      {"mecsc_queue_capacity", "Bounded work queue capacity.", "gauge",
       static_cast<double>(gauges.queue_capacity)},
      {"mecsc_workers", "Worker pool size.", "gauge",
       static_cast<double>(gauges.workers)},
      {"mecsc_workers_busy", "Workers currently processing a request.",
       "gauge", static_cast<double>(gauges.workers_busy)},
      {"mecsc_connections_in_flight", "Open client connections.", "gauge",
       static_cast<double>(gauges.connections_in_flight)},
      {"mecsc_connections_accepted_total", "Connections accepted.", "counter",
       static_cast<double>(gauges.accepted_connections)},
      {"mecsc_cache_size", "Result cache entries.", "gauge",
       static_cast<double>(gauges.cache_size)},
      {"mecsc_cache_capacity", "Result cache capacity.", "gauge",
       static_cast<double>(gauges.cache_capacity)},
      {"mecsc_cache_hits_total", "Result cache hits.", "counter",
       static_cast<double>(gauges.cache_hits)},
      {"mecsc_cache_misses_total", "Result cache misses.", "counter",
       static_cast<double>(gauges.cache_misses)},
      {"mecsc_cache_coalesced_total",
       "Requests coalesced onto an in-flight solve.", "counter",
       static_cast<double>(gauges.cache_coalesced)},
      {"mecsc_cache_evictions_total", "Result cache evictions.", "counter",
       static_cast<double>(gauges.cache_evictions)},
      {"mecsc_request_log_dropped_total",
       "Wide events dropped by the bounded request-log writer.", "counter",
       static_cast<double>(gauges.request_log_dropped)},
      {"mecsc_request_log_rotations_total",
       "Times the request log rolled over to its .1 sibling.", "counter",
       static_cast<double>(gauges.request_log_rotations)},
      {"mecsc_traces_sampled_total",
       "Requests whose trace id hit the head-sampling rate.", "counter",
       static_cast<double>(gauges.traces_sampled)},
      {"mecsc_traces_kept_total",
       "Traces kept after tail sampling (sampled, slow, or error).",
       "counter", static_cast<double>(gauges.traces_kept)},
      {"mecsc_trace_writer_dropped_total",
       "Kept traces dropped by the bounded trace writer.", "counter",
       static_cast<double>(gauges.trace_writer_dropped)},
      {"mecsc_flight_recorder_size",
       "Completed requests currently held in the flight-recorder ring.",
       "gauge", static_cast<double>(gauges.flight_size)},
      {"mecsc_flight_recorder_capacity", "Flight-recorder ring capacity.",
       "gauge", static_cast<double>(gauges.flight_capacity)},
      {"mecsc_flight_recorder_recorded_total",
       "Requests ever recorded into the flight recorder.", "counter",
       static_cast<double>(gauges.flight_recorded_total)},
      {"mecsc_uptime_ms", "Milliseconds since telemetry start.", "gauge",
       snapshot.uptime_ms},
  };
  for (const auto& s : singles) {
    prom_header(&out, s.name, s.help, s.type);
    prom_line(&out, s.name, "", s.value);
  }

  const std::uint64_t classified = gauges.cache_hits + gauges.cache_misses;
  prom_header(&out, "mecsc_cache_hit_ratio",
              "Hits / (hits + misses); 0 before any classified lookup.",
              "gauge");
  prom_line(&out, "mecsc_cache_hit_ratio", "",
            classified > 0 ? static_cast<double>(gauges.cache_hits) /
                                 static_cast<double>(classified)
                           : 0.0);

  // Build provenance as a constant-1 info gauge (the idiomatic Prometheus
  // pattern: the data lives in the labels, joins key other series to the
  // exact binary that produced them).
  const BuildInfo& build = build_info();
  prom_header(&out, "mecsc_build_info",
              "Build provenance; constant 1, data in the labels.", "gauge");
  prom_line(&out, "mecsc_build_info",
            "version=\"" + prom_escape(build.version) + "\",git_describe=\"" +
                prom_escape(build.git_describe) + "\",obs_format_version=\"" +
                std::to_string(build.obs_format_version) + "\"",
            1.0);
  return out;
}

}  // namespace mecsc::obs
