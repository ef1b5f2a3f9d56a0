// Live service telemetry: per-request wide events, windowed RED metrics
// (rate / errors / duration), and the export renderers behind the solver
// service's "metrics" request, Prometheus /metrics endpoint, and
// mecsc_top dashboard.
//
// Three pieces:
//
//   - RequestEvent / RequestLog — one structured JSON-lines record per
//     request (the "wide event"): request id, type, cache outcome, phase
//     timings, bytes, outcome code. RequestLog is a bounded *async*
//     writer: the serving hot path enqueues and returns; a dedicated
//     writer thread does the file I/O; a full queue drops (counted) rather
//     than ever blocking a worker. Requests slower than a threshold are
//     mirrored to stderr synchronously, so an operator tailing the daemon
//     sees tail latency as it happens.
//
//   - ServiceTelemetry — lock-sharded RED accounting per request type:
//     cumulative counters (requests, errors by code, bytes) plus a
//     log-linear latency histogram (obs/histogram.h) and a sliding window
//     of slot counters for rates. Threads record into their own shard
//     (thread-ordinal modulo shard count), so concurrent workers never
//     contend on one lock; snapshot() merges shards — integer addition
//     and histogram bucket sums, both order-independent.
//
//   - telemetry_to_json / telemetry_to_prometheus — the two export
//     encodings of one snapshot + live gauges.
//
// Determinism contract (same as the rest of src/obs/): counts and
// structure are deterministic; every wall-clock-derived value — durations,
// rates, windowed counts, point-in-time gauges, and response byte counts
// (response envelopes carry wall_* timings whose digit count varies) —
// serializes under a "wall_" key, which tools/strip_wallclock.py removes
// before check_determinism.sh diffs the artifacts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "util/json.h"
#include "util/sync.h"
#include "util/timer.h"

namespace mecsc::obs {

/// One request's wide event. Filled in as the request moves through the
/// service pipeline; recorded (telemetry + request log) exactly once, when
/// the response has been written.
struct RequestEvent {
  std::string request_id;
  /// Request "type" field; "unparsed" for lines rejected before parsing
  /// (overload, drain).
  std::string type = "unparsed";
  std::string algorithm;        ///< empty when the type carries none
  std::string instance_digest;  ///< empty when the type carries none
  /// "hit" | "miss" | "coalesced" | "none" (cache off or non-solve type).
  std::string cache_outcome = "none";
  /// "ok" or the structured error code ("bad_request", "overloaded", ...).
  std::string outcome = "ok";
  bool ok = true;
  std::uint64_t bytes_in = 0;   ///< request line bytes (deterministic)
  std::uint64_t bytes_out = 0;  ///< response line bytes (wall_: see above)
  double queue_ms = 0.0;
  double parse_ms = 0.0;
  double decode_ms = 0.0;
  double solve_ms = 0.0;
  double serialize_ms = 0.0;
  double total_ms = 0.0;  ///< admission to response-on-the-wire

  /// The JSON-lines record: deterministic fields bare, every duration and
  /// bytes_out under "wall_" keys; algorithm/digest omitted when empty.
  util::JsonValue to_json() const;
};

/// Bounded async JSON-lines writer for wide events. write() never blocks
/// the caller: a full queue drops the event and bumps dropped(). close()
/// (or destruction) drains the queue, flushes, and joins the writer.
class RequestLog {
 public:
  struct Options {
    std::string path;
    std::size_t queue_capacity = 4096;
    /// Requests with total_ms >= this are also mirrored to stderr
    /// (synchronously, from the recording thread); < 0 disables.
    double slow_request_ms = -1.0;
    /// Size-based rotation: when appending a line would push the file
    /// past this many bytes, the file rotates to "<path>.1" (replacing
    /// any previous rollover — a single-level cap, so disk usage is
    /// bounded by ~2x max_bytes) and a fresh file begins. 0 disables.
    std::size_t max_bytes = 0;
  };

  /// Opens the file for truncating write; throws std::runtime_error when
  /// the path cannot be opened.
  explicit RequestLog(Options options);
  ~RequestLog();
  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  void write(const RequestEvent& event);

  /// Drains pending lines, flushes the file, and joins the writer thread.
  /// Call from the owning thread; idempotent there. Writes after close
  /// are counted as dropped.
  void close();

  std::uint64_t dropped() const;
  std::uint64_t slow_mirrored() const;
  /// Times the file rolled over to "<path>.1" (see Options::max_bytes).
  std::uint64_t rotations() const;

 private:
  void writer_loop();
  /// Rolls the current file to "<path>.1" and reopens fresh. Writer
  /// thread only.
  void rotate();

  Options options_;
  std::ofstream out_;  ///< writer thread only (constructor opens it)
  std::size_t bytes_written_ = 0;  ///< current file; writer thread only
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<std::string> pending_ MECSC_GUARDED_BY(mutex_);
  bool closed_ MECSC_GUARDED_BY(mutex_) = false;
  std::uint64_t dropped_ MECSC_GUARDED_BY(mutex_) = 0;
  std::uint64_t slow_mirrored_ MECSC_GUARDED_BY(mutex_) = 0;
  std::uint64_t rotations_ MECSC_GUARDED_BY(mutex_) = 0;
  std::thread writer_;  ///< owning thread only (constructor / close)
};

/// Merged per-type RED statistics at one point in time.
struct RedTypeStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::map<std::string, std::uint64_t> errors_by_code;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;          ///< wall_ in serialized form
  LogLinearHistogram latency;           ///< cumulative; values are wall
  std::uint64_t window_requests = 0;    ///< within the sliding window
  std::uint64_t window_errors = 0;
  double window_duration_sum_ms = 0.0;
};

struct TelemetrySnapshot {
  std::map<std::string, RedTypeStats> types;
  double window_ms = 0.0;
  double uptime_ms = 0.0;  ///< telemetry clock at snapshot time
};

/// Live operational gauges sampled by the server at export time (they are
/// point-in-time readings, not telemetry state).
struct ServiceGauges {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;
  std::size_t workers_busy = 0;
  std::size_t connections_in_flight = 0;
  std::uint64_t accepted_connections = 0;
  std::size_t cache_size = 0;
  std::size_t cache_capacity = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t request_log_dropped = 0;
  std::uint64_t request_log_rotations = 0;
  /// Causal-trace counters (obs/tracing.h): head-sample hits, traces the
  /// tail-sampling decision kept, and writer-queue drops.
  std::uint64_t traces_sampled = 0;
  std::uint64_t traces_kept = 0;
  std::uint64_t trace_writer_dropped = 0;
  /// Flight-recorder ring occupancy.
  std::size_t flight_size = 0;
  std::size_t flight_capacity = 0;
  std::uint64_t flight_recorded_total = 0;
};

/// Lock-sharded windowed RED accounting. All public entry points are
/// thread-safe; the *_at variants take an explicit clock value (ms on the
/// telemetry's own monotonic axis) and are the deterministic entry points
/// the window-rotation tests drive.
///
/// State is keyed by request type from a fixed set: the daemons' types
/// (solve, poa, health, stats, metrics, shutdown, drain_backend) and
/// "unparsed". Any other type string — clients choose it — is recorded
/// as "unknown", so hostile input cannot grow the per-type state or the
/// Prometheus label set.
class ServiceTelemetry {
 public:
  struct Options {
    double window_ms = 60000.0;  ///< sliding-window span
    std::size_t slots = 12;      ///< ring granularity (5 s at defaults)
    std::size_t shards = 8;
  };

  ServiceTelemetry() : ServiceTelemetry(Options()) {}
  explicit ServiceTelemetry(Options options);

  /// Milliseconds since construction (the clock record()/snapshot() use).
  double now_ms() const { return timer_.elapsed_ms(); }

  void record(const RequestEvent& event) { record_at(event, now_ms()); }
  void record_at(const RequestEvent& event, double at_ms);

  TelemetrySnapshot snapshot() { return snapshot_at(now_ms()); }
  TelemetrySnapshot snapshot_at(double at_ms);

  /// Backoff hint for "overloaded" rejections: the estimated time until
  /// the current queue has drained, from the windowed mean service time
  /// and the worker count. Clamped to [1, 10000] ms; a cold window falls
  /// back to a nominal 25 ms per queued request.
  double retry_after_ms_hint(std::size_t queue_depth, std::size_t workers) {
    return retry_after_ms_hint_at(queue_depth, workers, now_ms());
  }
  double retry_after_ms_hint_at(std::size_t queue_depth, std::size_t workers,
                                double at_ms);

  /// Mean service time (ms) over the sliding window across all request
  /// types; 0.0 on a cold window. The load signal the `health` response
  /// exports (as wall_service_time_ms) for the router's spill decisions.
  double windowed_service_ms();
  double windowed_service_ms_at(double at_ms);

 private:
  /// One sliding-window slot: counters for the absolute slot index
  /// `index` (slot k covers [k*slot_ms, (k+1)*slot_ms)). A ring position
  /// holding a stale index is reset on first touch after rotation.
  struct Slot {
    std::uint64_t index = 0;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    double duration_sum_ms = 0.0;
  };

  struct TypeState {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::map<std::string, std::uint64_t> errors_by_code;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    LogLinearHistogram latency;
    std::vector<Slot> slots;
  };

  struct Shard {
    util::Mutex mutex;
    std::map<std::string, TypeState> types MECSC_GUARDED_BY(mutex);
  };

  Shard& local_shard();
  /// True when a slot with absolute index `index` is inside the window
  /// ending at `at_ms`.
  bool slot_in_window(std::uint64_t index, double at_ms) const;

  Options options_;
  double slot_ms_;
  util::Timer timer_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// JSON encoding of one snapshot + gauges: the body of the service's
/// "metrics" response and the admin /stats document. Deterministic fields
/// bare; wall-derived fields under "wall_" keys.
util::JsonValue telemetry_to_json(const TelemetrySnapshot& snapshot,
                                  const ServiceGauges& gauges);

/// Prometheus text exposition (version 0.0.4) of the same data, served at
/// the admin /metrics endpoint. Entirely wall-clock territory — never part
/// of the determinism diff.
std::string telemetry_to_prometheus(const TelemetrySnapshot& snapshot,
                                    const ServiceGauges& gauges);

}  // namespace mecsc::obs
