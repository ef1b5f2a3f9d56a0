// Digest-sharded front router: terminates client NDJSON connections and
// forwards each request to the `mecsc_serve` backend that owns its
// instance digest, so every backend's single-flight result cache stays
// hot for exactly its shard of the keyspace.
//
// Request path (one hop, no decode):
//
//   client line ──► arena parse ──► canonical dump of the "instance"
//   subtree ──► fnv1a64_hex digest ──► ShardMap preference order ──►
//   forward the *raw line* (with router-minted request_id / traceparent
//   fields spliced in) over a pooled backend connection ──► relay the
//   backend's response line (with "route_backend" spliced in).
//
// The router never decodes an instance and never re-serializes a request
// or response: field injection exploits the protocol's last-duplicate-
// wins rule (util/json_arena.h — the parser resolves duplicate object
// keys to the final occurrence), so appending `,"key":value` before the
// closing '}' of a line overrides the field without touching the rest of
// the bytes.
//
// Spillover + drain share one mechanism: the ShardMap's clockwise
// preference order. A backend is skipped when it is draining (the
// "drain_backend" request), marked unhealthy (probe failures or a failed
// forward), or — when probed load data is fresh — its queue is above the
// spill threshold; the request then lands on the next backend in
// preference order. Because the ring itself never changes, the keys of
// every untouched backend keep their owner (the ≤1/N movement property
// tests/test_shard_map.cpp pins down).
//
// Cross-process tracing: the router opens a "route.request" root span
// (parented on the client's traceparent when present), hangs a
// "route.forward" child on it, and splices *that* span's id into the
// forwarded traceparent — so the backend's "svc.request" root parents on
// the router's forward span and the two processes' spans form one tree.
//
// Router-answered request types (never forwarded): "health" (aggregated
// backend view), "stats", "metrics" (router RED telemetry + per-backend
// "route" section), "drain_backend", "shutdown". Everything else routes:
// requests with an "instance" object by digest, the rest to a fixed
// shard (the empty-digest owner), so placement is a pure function of the
// request bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.h"
#include "obs/tracing.h"
#include "route/shard_map.h"
#include "svc/admin.h"
#include "svc/sessions.h"
#include "svc/socket.h"
#include "util/json.h"
#include "util/sync.h"
#include "util/timer.h"

namespace mecsc::route {

struct RouterOptions {
  /// Exactly one of the two endpoints (same contract as ServerOptions):
  /// a Unix-domain socket path, or a loopback TCP port (0 = ephemeral).
  std::string unix_socket_path;
  int tcp_port = -1;

  /// The topology. At least one backend; see ShardMap for the hash
  /// identity rules.
  std::vector<BackendSpec> backends;

  /// Health-probe sweep period; <= 0 disables the prober (forward
  /// failures still mark backends unhealthy, but nothing marks them
  /// healthy again — determinism runs disable probing so no probe
  /// traffic consumes backend request-id sequence numbers).
  double health_interval_ms = 1000.0;

  /// Consecutive probe failures before a backend is marked unhealthy.
  std::size_t probe_failure_threshold = 2;

  /// Pre-spill threshold: with fresh probe data, a backend whose queue
  /// occupancy (wall_queue_depth / queue_capacity) is at or above this
  /// fraction is skipped in preference order. >= 1 disables pre-spill
  /// (reactive spill on "overloaded" responses still happens).
  double spill_queue_fraction = 0.9;

  // Observability plumbing, one-to-one with ServerOptions.
  std::string request_log_path;
  double slow_request_ms = -1.0;
  double request_log_max_mb = 0.0;
  double trace_sample_rate = 0.0;
  std::string trace_out;
  std::size_t flight_recorder_capacity = 256;
  int admin_port = -1;
  double telemetry_window_ms = 60000.0;
};

/// Point-in-time router counters for the "stats" response and tests.
struct RouterStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t forwarded = 0;       ///< requests sent to some backend
  std::uint64_t spilled = 0;         ///< landed off their preferred shard
  std::uint64_t backend_reconnects = 0;
  std::uint64_t backend_failures = 0;  ///< forwards that lost a backend
};

/// One backend's live view for health aggregation / the "route" metrics
/// section.
struct BackendView {
  std::string name;
  std::string endpoint;
  std::size_t weight = 1;
  bool draining = false;
  bool healthy = true;
  bool probed = false;  ///< load fields below are fresh probe data
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;
  double queue_depth = 0.0;       ///< wall_ in serialized form
  double inflight = 0.0;          ///< wall_
  double service_time_ms = 0.0;   ///< wall_
  std::uint64_t forwarded = 0;
  std::uint64_t spilled_to = 0;   ///< received as a spill target
  std::uint64_t failures = 0;
  std::uint64_t reconnects = 0;
};

class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the endpoint and spawns the acceptor (+ health prober when
  /// enabled). Throws std::runtime_error when the endpoint cannot be
  /// bound. (Bad topologies throw std::invalid_argument from the
  /// constructor, before any socket exists.)
  void start();

  /// Begins graceful drain: stop accepting, wake blocked readers, finish
  /// in-flight requests. Safe from any thread; idempotent.
  void request_shutdown();

  /// Blocks until the drain completes and every thread is joined.
  void wait();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  int port() const;
  int admin_port() const;
  const std::string& endpoint() const;

  RouterStats stats() const;
  std::vector<BackendView> backend_views() const;

  /// Marks a backend draining so new requests rehash past it (in-flight
  /// forwards finish on their own). Returns false when the name is
  /// unknown or this would leave no backend accepting keys.
  bool drain_backend(const std::string& name);

  /// Router telemetry snapshot + gauges with a "route" section of
  /// per-backend views (the "metrics" response body / admin /stats).
  util::JsonValue metrics_json();
  std::string metrics_prometheus();
  util::JsonValue flight_json() const;

  /// Shard lookup for tests: which backend (index into options.backends)
  /// owns this digest right now, honoring draining/unhealthy skips.
  std::size_t shard_of(const std::string& digest) const;

 private:
  /// Per-backend runtime state: connection pool, health flags, probe
  /// data, counters. Fixed at start() — topology changes are flag flips,
  /// never vector surgery, so sessions index it without a topology lock.
  struct BackendState {
    BackendSpec spec;

    /// Idle pooled connections (exclusive per in-flight request: the
    /// backend's worker pool may interleave responses across a pipelined
    /// connection, so a pooled connection carries one request at a time).
    util::Mutex pool_mutex;
    std::vector<svc::ConnectionPtr> idle MECSC_GUARDED_BY(pool_mutex);

    std::atomic<bool> draining{false};
    std::atomic<bool> healthy{true};

    /// Probe results (prober writes, sessions/exports read).
    mutable util::Mutex health_mutex;
    bool probed MECSC_GUARDED_BY(health_mutex) = false;
    std::size_t queue_capacity MECSC_GUARDED_BY(health_mutex) = 0;
    std::size_t workers MECSC_GUARDED_BY(health_mutex) = 0;
    double queue_depth MECSC_GUARDED_BY(health_mutex) = 0.0;
    double inflight MECSC_GUARDED_BY(health_mutex) = 0.0;
    double service_time_ms MECSC_GUARDED_BY(health_mutex) = 0.0;
    std::size_t probe_failures MECSC_GUARDED_BY(health_mutex) = 0;

    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> spilled_to{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> reconnects{0};
  };

  /// Outcome of one forward attempt chain.
  struct ForwardResult {
    std::string response;      ///< raw backend response line
    std::size_t backend = 0;   ///< index that answered
    bool spilled = false;      ///< not the first preference
    bool ok = false;           ///< relayed response parsed as ok:true
    std::string error_code;    ///< from the relayed response when !ok
  };

  void acceptor_loop();
  void session_loop(svc::ConnectionPtr conn, std::uint32_t ordinal);
  /// Handles one request line end to end (route or answer locally) and
  /// writes the response. Session thread only.
  void process_line(const svc::ConnectionPtr& conn, std::string line,
                    std::uint32_t ordinal);

  /// True when `backend` should be skipped in preference order right now.
  bool should_skip(const BackendState& backend) const;
  /// Forwards `line` down the digest's preference order; nullopt when
  /// every backend failed at the transport level (no response exists).
  std::optional<ForwardResult> forward(const std::string& digest,
                                       const std::string& line);
  /// One attempt against one backend: pooled connection, single retry on
  /// a stale pooled connection, pool return on success. nullopt = the
  /// backend is gone (marked unhealthy).
  std::optional<std::string> forward_once(BackendState& backend,
                                          const std::string& line);

  void prober_loop();
  /// One probe sweep over all backends. Exposed to the loop only.
  void probe_all();

  void record_event(obs::RequestEvent event);
  std::string next_request_id();
  obs::ServiceGauges gauges() const;

  RouterOptions options_;
  std::unique_ptr<ShardMap> shard_map_;  ///< immutable after start()
  std::unique_ptr<svc::Listener> listener_;
  std::vector<std::unique_ptr<BackendState>> backends_;

  obs::ServiceTelemetry telemetry_;
  std::unique_ptr<obs::RequestLog> request_log_;
  std::unique_ptr<obs::TraceWriter> trace_writer_;
  obs::FlightRecorder flight_;
  std::unique_ptr<svc::AdminServer> admin_;

  std::atomic<std::uint64_t> traces_sampled_{0};
  std::atomic<std::uint64_t> traces_kept_{0};
  std::atomic<std::uint64_t> request_id_seq_{0};
  std::atomic<std::size_t> connections_in_flight_{0};

  std::atomic<bool> draining_{false};
  /// Leaf lock for the drain handshake between request_shutdown() and
  /// wait() (same role as SolverServer's).
  util::Mutex lifecycle_mutex_;
  bool drain_ready_ MECSC_GUARDED_BY(lifecycle_mutex_) = false;
  std::thread acceptor_thread_;  ///< start()/wait() only (owning thread)
  std::thread prober_thread_;    ///< start()/wait() only (owning thread)
  util::CondVar drain_cv_;

  /// Prober sleep/wakeup: wait_for_ms between sweeps, notified on drain.
  util::Mutex prober_mutex_;
  bool prober_stop_ MECSC_GUARDED_BY(prober_mutex_) = false;
  util::CondVar prober_cv_;

  /// Leaf lock for the counters.
  mutable util::Mutex stats_mutex_;
  RouterStats counters_ MECSC_GUARDED_BY(stats_mutex_);

  /// One thread per open connection. Declared last so that it is
  /// destroyed (and its threads joined) before anything they use.
  svc::SessionSet sessions_;
};

}  // namespace mecsc::route
