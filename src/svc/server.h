// Long-running solver daemon core: acceptor, bounded worker pool,
// digest-keyed single-flight result cache, per-request deadlines, and
// graceful drain.
//
// Wire protocol (newline-delimited JSON, one request per line, one
// response line per request — full reference in DESIGN.md "Serving"):
//
//   {"id": 7, "type": "solve", "algorithm": "lcf", "one_minus_xi": 0.3,
//    "instance": { ...core/io.h instance document... },
//    "deadline_ms": 5000, "cache": true}
//   -> {"id": 7, "ok": true, "type": "solve", "cached": false,
//       "result": { ...assignment document..., "algorithm": "lcf"},
//       "wall_queue_ms": 0.1, "wall_service_ms": 12.9}
//
//   {"type": "poa" | "stats" | "health" | "shutdown", ...}
//
// Errors are structured, never a dropped connection:
//   {"id": null, "ok": false,
//    "error": {"code": "overloaded", "message": "..."}}
// with codes: parse_error, bad_request, overloaded, deadline_exceeded,
// shutting_down, internal.
//
// Threading model: the acceptor thread spawns one session thread per
// connection (svc/sessions.h; finished sessions are joined as new ones
// arrive); sessions read request lines and enqueue {line, connection}
// into a bounded queue (admission control — a full queue answers
// "overloaded" immediately instead of stalling the socket); `threads`
// workers pop, parse, solve, and write the response under the
// connection's write lock. Responses therefore may interleave across a
// pipelining connection — the echoed "id" is the correlator. Graceful
// drain (SIGTERM or a "shutdown" request): stop accepting, wake idle
// readers, answer everything already admitted, then join every thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.h"
#include "obs/tracing.h"
#include "svc/admin.h"
#include "svc/bounded_queue.h"
#include "svc/result_cache.h"
#include "svc/sessions.h"
#include "svc/socket.h"
#include "util/json.h"
#include "util/sync.h"
#include "util/timer.h"

namespace mecsc::svc {

/// Protocol version echoed by "health" and "stats"; bump on incompatible
/// wire changes.
inline constexpr int kSvcProtocolVersion = 1;

/// Longest accepted request line (instances are a few hundred KB at
/// paper scale; 64 MB is generous headroom, not an invitation).
inline constexpr std::size_t kMaxRequestBytes = 64u << 20;

struct ServerOptions {
  /// Exactly one of the two endpoints: a Unix-domain socket path, or a
  /// loopback TCP port (0 = ephemeral, see SolverServer::port()).
  std::string unix_socket_path;
  int tcp_port = -1;

  std::size_t threads = 4;          ///< worker pool size (min 1)
  std::size_t queue_capacity = 64;  ///< admitted-but-unserved requests
  std::size_t cache_capacity = 128; ///< resident solve results (0 = off)

  /// Applied when a request carries no deadline_ms; <= 0 means none.
  double default_deadline_ms = 0.0;

  /// Wide-event request log: one JSON-lines record per request (schema in
  /// obs/telemetry.h RequestEvent). Empty disables logging.
  std::string request_log_path;

  /// Requests with total latency >= this mirror their wide event to
  /// stderr as they complete, and their causal trace is tail-kept even
  /// when head sampling did not select it; < 0 disables both.
  double slow_request_ms = -1.0;

  /// Request-log growth cap in MiB: when the current log file would
  /// exceed it, the file rotates once to "<path>.1" (replacing any
  /// previous rollover) and a fresh file begins. <= 0 disables rotation.
  double request_log_max_mb = 0.0;

  /// Head-sampling rate for causal traces in [0, 1]: the fraction of
  /// trace ids kept independent of outcome (error and slow requests are
  /// always kept — tail-based sampling). Deterministic per trace id.
  double trace_sample_rate = 0.0;

  /// Kept traces are appended to this file as Chrome trace-event JSON
  /// (Perfetto-loadable; see obs/tracing.h). Empty disables the writer —
  /// span trees are still built for the flight recorder.
  std::string trace_out;

  /// Flight-recorder ring size: the last N completed requests (wide
  /// event + span tree) held in memory for GET /debug/flight / SIGQUIT
  /// dumps. Always on; values < 1 are clamped to 1.
  std::size_t flight_recorder_capacity = 256;

  /// Read-only admin HTTP endpoint (loopback): GET /metrics (Prometheus
  /// text) and GET /stats (telemetry JSON). -1 disables; 0 binds an
  /// ephemeral port resolved by admin_port().
  int admin_port = -1;

  /// Sliding RED window span for telemetry rates (ms).
  double telemetry_window_ms = 60000.0;

  /// Test-only hook, run by a worker after dequeue and before processing;
  /// lets tests hold a worker deterministically (backpressure, drain).
  std::function<void()> test_hook_before_request;
};

/// Point-in-time server counters for the "stats" response and tests.
struct ServerStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t requests_total = 0;   ///< lines read (incl. rejected)
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;  ///< structured errors of any code
  std::uint64_t overloaded = 0;       ///< subset of responses_error
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t solves_executed = 0;  ///< actual solver runs (cache misses)
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  ResultCache::Stats cache;
};

class SolverServer {
 public:
  explicit SolverServer(ServerOptions options);
  ~SolverServer();
  SolverServer(const SolverServer&) = delete;
  SolverServer& operator=(const SolverServer&) = delete;

  /// Binds the endpoint and spawns acceptor + workers. Throws
  /// std::runtime_error when the endpoint cannot be bound.
  void start();

  /// Begins graceful drain: stop accepting, reject new reads, answer
  /// everything admitted. Safe from any thread (a worker handling a
  /// "shutdown" request, a signal-watcher thread); idempotent.
  void request_shutdown();

  /// Blocks until the drain completes and every thread is joined. Call
  /// from the owning thread exactly once after start().
  void wait();

  /// True once request_shutdown() has been called.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Bound TCP port (after start(); 0 for Unix endpoints).
  int port() const;

  /// Bound admin HTTP port (after start(); -1 when the endpoint is off).
  int admin_port() const;

  /// "unix:<path>" or "tcp:127.0.0.1:<port>" (after start()).
  const std::string& endpoint() const;

  ServerStats stats() const;

  /// Telemetry snapshot + live gauges rendered as the "metrics" response
  /// body / admin /stats document (obs::telemetry_to_json shape).
  util::JsonValue metrics_json();

  /// The same data as Prometheus text exposition (admin /metrics body).
  std::string metrics_prometheus();

  /// Flight-recorder dump: the last N completed requests (wide event +
  /// span tree), oldest first (admin GET /debug/flight body, SIGQUIT).
  util::JsonValue flight_json() const;

 private:
  struct Job {
    std::string line;
    ConnectionPtr conn;
    util::Timer admitted;  ///< queue wait + service time base
    /// Admission stamp on the telemetry clock: the server-timeline base
    /// for this request's trace events.
    double admitted_at_ms = 0.0;
  };

  void acceptor_loop();
  void session_loop(ConnectionPtr conn);
  void worker_loop(std::uint32_t ordinal);
  void process(Job job, std::uint32_t worker_ordinal);
  /// Records one finished request into telemetry and the request log.
  void record_event(obs::RequestEvent event);
  obs::ServiceGauges gauges() const;
  /// Next server-generated request_id ("s-<n>").
  std::string next_request_id();

  ServerOptions options_;
  std::unique_ptr<Listener> listener_;
  BoundedQueue<Job> queue_;
  ResultCache cache_;
  obs::ServiceTelemetry telemetry_;
  std::unique_ptr<obs::RequestLog> request_log_;  ///< null when disabled
  std::unique_ptr<obs::TraceWriter> trace_writer_;  ///< null when disabled
  obs::FlightRecorder flight_;                    ///< always on
  std::unique_ptr<AdminServer> admin_;            ///< null when disabled

  std::atomic<std::uint64_t> traces_sampled_{0};  ///< head-sample hits
  std::atomic<std::uint64_t> traces_kept_{0};     ///< written candidates

  /// Server-generated request_id sequence ("s-<n>") for requests whose
  /// clients did not supply one.
  std::atomic<std::uint64_t> request_id_seq_{0};
  std::atomic<std::size_t> workers_busy_{0};
  std::atomic<std::size_t> connections_in_flight_{0};

  std::atomic<bool> draining_{false};
  /// Leaf lock for the drain handshake between request_shutdown() and
  /// wait().
  util::Mutex lifecycle_mutex_;
  bool drain_ready_ MECSC_GUARDED_BY(lifecycle_mutex_) = false;
  std::thread acceptor_thread_;   ///< start()/wait() only (owning thread)
  std::vector<std::thread> workers_;  ///< start()/wait() only (owning thread)
  util::CondVar drain_cv_;

  /// Leaf lock for the counters; never held across a call that blocks or
  /// takes another lock.
  mutable util::Mutex stats_mutex_;
  ServerStats counters_ MECSC_GUARDED_BY(stats_mutex_);

  /// One thread per open connection. Declared last so that it is
  /// destroyed (and its threads joined) before anything they use.
  SessionSet sessions_;
};

}  // namespace mecsc::svc
