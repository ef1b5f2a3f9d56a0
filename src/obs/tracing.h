// End-to-end causal tracing: per-request trace ids and span trees.
//
// The aggregate profiler (obs/profiler.h) answers "where does the
// *process* spend its time"; this module answers "where did *this
// request* go". A client mints a W3C-style traceparent —
//
//   00-<32 hex trace id>-<16 hex parent span id>-<01|00>
//
// — carried as a top-level "traceparent" field of the NDJSON request.
// The server opens one root span per request ("svc.request"), hangs the
// pipeline phases (queue / parse / decode / solve / serialize) off it,
// and bridges solver-internal MECSC_PROFILE_SCOPE spans (appro, simplex
// pivots, game dynamics) into the same tree via Profiler::SpanListener,
// so one trace goes wire -> pivot loop.
//
// Sampling is tail-based: every request builds its (cheap, in-memory)
// span tree; at completion it is *kept* when it was head-sampled, errored,
// or exceeded the slow threshold. Kept traces go to a TraceWriter — the
// same bounded async-writer discipline as RequestLog: enqueue on the hot
// path, dedicated writer thread does I/O, full queue drops (counted),
// never blocks a worker. The output file is Chrome trace-event JSON
// loadable in Perfetto, plus a "traces" section of per-request span-tree
// summaries.
//
// Determinism contract: trace ids, span ids, tree structure, and span
// counts are exact functions of the request stream (span ids are
// fnv1a64_hex(trace_id + "/" + seq) with seq = span creation order;
// server-minted trace ids derive from the deterministic request_id).
// Every wall-clock-derived field serializes under a "wall_" key, and the
// "traceEvents" array is wall-clock by nature; tools/strip_wallclock.py
// removes both, so check_determinism.sh diffs the stripped artifact
// clean across same-seed single-worker runs.
//
// The FlightRecorder reuses the same span trees for incident debugging:
// a fixed-size ring of the last N completed requests (wide event + span
// tree), always on, dumped on SIGQUIT or via admin GET /debug/flight —
// so a misbehaving daemon can be explained post-hoc without having had
// trace export enabled. The ring holds the structs themselves and renders
// JSON only when a dump asks for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "util/json.h"
#include "util/sync.h"
#include "util/timer.h"

namespace mecsc::obs {

/// Parsed (or minted) trace context: who this request belongs to.
struct TraceContext {
  std::string trace_id;  ///< 32 lowercase hex digits, not all zero
  /// Parent span id (16 lowercase hex): the *caller's* span. Empty when
  /// the server minted the context itself (no upstream parent).
  std::string span_id;
  bool sampled = false;  ///< head-sample flag (traceparent 01 flag bit)

  bool valid() const { return !trace_id.empty(); }

  /// "00-<trace_id>-<span_id>-<01|00>". Requires a non-empty span_id.
  std::string to_traceparent() const;

  /// Parses a traceparent header value. Returns nullopt on any deviation
  /// (wrong length/version, non-hex digits, all-zero ids) — per W3C
  /// trace-context, an invalid header is ignored, never an error.
  static std::optional<TraceContext> parse(const std::string& header);

  /// Deterministically derives a context from seed text (salted FNV-1a
  /// variants). Used by clients to mint ids reproducible from the request
  /// stream, and by the server (with span_id cleared) when a request
  /// carries no traceparent.
  static TraceContext derive(const std::string& seed, bool sampled);
};

/// Deterministic head-sample decision: hashes the trace id onto [0,1) and
/// compares against `rate`. Never consults an RNG, so the set of sampled
/// requests is a pure function of the trace ids.
bool trace_head_sample(const std::string& trace_id, double rate);

/// Span id rule: fnv1a64_hex(ns + "/" + seq), seq = creation order within
/// the trace (root = 0). RequestTrace namespaces with
/// trace_id + "/" + parent_span_id so two processes on the same trace
/// (router and backend, each numbering from 0) can never collide.
/// Deterministic given a deterministic request stream and single-worker
/// FIFO processing.
std::string trace_span_id(const std::string& ns, std::uint64_t seq);

/// One node of a request's span tree. `name` points at a string literal
/// (profiler scope names), so nodes are cheap to copy into the writer
/// queue and the flight ring.
struct TraceSpan {
  const char* name = "";
  std::string span_id;
  double start_ms = 0.0;  ///< offset from request admission (wall)
  double dur_ms = 0.0;
  std::vector<TraceSpan> children;

  /// {"name", "span_id", "wall_start_ms", "wall_dur_ms", "children"}
  /// (children omitted when empty) — structure bare, timings wall_.
  util::JsonValue to_json() const;

  /// Nodes in this subtree (including this one).
  std::uint64_t span_count() const;
};

/// A completed request trace, ready for the writer / flight ring.
struct FinishedTrace {
  TraceContext ctx;        ///< ctx.span_id = upstream parent ("" if none)
  std::string request_id;
  std::string type;
  /// Why the trace was kept: "sampled" | "slow" | "error"; empty when it
  /// was not kept (flight ring still holds it).
  std::string keep_reason;
  std::uint32_t tid = 0;   ///< worker ordinal for the Perfetto timeline
  double base_ms = 0.0;    ///< admission stamp on the server clock (wall)
  TraceSpan root;

  /// Deterministic per-trace record for the artifact's "traces" section
  /// and the flight ring: ids, type, keep_reason, span count, and the
  /// span tree (wall_ segregated).
  util::JsonValue summary_json() const;
};

/// Builds one request's span tree on the worker thread. Installed as the
/// thread's Profiler::SpanListener for the request's lifetime (see
/// ProfilerListenerScope), so MECSC_PROFILE_SCOPE sites anywhere below —
/// server phases and solver internals alike — land in the tree.
///
/// Single-threaded by design: only the owning worker may call into it
/// (solvers do not spawn threads; util/parallel.h is bench-only), which
/// keeps span seq numbers — and therefore span ids — deterministic.
class RequestTrace final : public Profiler::SpanListener {
 public:
  /// `clock` is the request's admission timer (span offsets are measured
  /// on it) and must outlive the trace. `root_name` is the root span's
  /// label — "svc.request" for the solver server, "route.request" for the
  /// front router (a string literal; TraceSpan::name never owns).
  RequestTrace(TraceContext ctx, const util::Timer& clock,
               const char* root_name = "svc.request");

  /// Opens a child span under the innermost open span, timed from now.
  void begin(const char* name);
  /// Closes the innermost open span (root excluded; unmatched ends are
  /// ignored).
  void end();
  /// Adds an already-timed child (retroactive phases: queue, parse) under
  /// the innermost open span.
  void add_complete(const char* name, double start_ms, double dur_ms);

  // Profiler::SpanListener — the solver bridge.
  void on_span_begin(const char* name) override { begin(name); }
  void on_span_end(const char*) override { end(); }

  const TraceContext& context() const { return ctx_; }
  std::uint64_t spans() const { return next_seq_; }

  /// Span id of the innermost open span (the root before any begin()).
  /// This is the id a cross-process hop propagates: the router opens its
  /// forward span, reads this, and sends it as the traceparent's parent
  /// span id so the downstream server's root parents on the hop.
  const std::string& current_span_id() const;

  /// Closes any still-open spans and the root at the current clock, and
  /// returns the finished trace. The RequestTrace must not be used after.
  FinishedTrace finish(std::string request_id, std::string type,
                       std::string keep_reason, std::uint32_t tid,
                       double base_ms);

 private:
  TraceContext ctx_;
  const util::Timer& clock_;
  /// Span-id hash namespace: trace_id + "/" + inbound parent span id —
  /// see trace_span_id for why the parent is folded in.
  std::string span_namespace_;
  TraceSpan root_;
  /// Innermost-first path of open spans. stack_[i] points into
  /// stack_[i-1]->children; safe because only the deepest open span's
  /// children vector can grow while deeper pointers exist.
  std::vector<TraceSpan*> stack_;
  std::vector<double> start_stack_;  ///< clock offsets of open spans
  std::uint64_t next_seq_ = 0;
};

/// Bounded async writer for kept traces (the RequestLog pattern): write()
/// enqueues and returns; a dedicated thread streams Chrome trace events
/// incrementally (so a crashed daemon still leaves a loadable prefix —
/// Perfetto tolerates an unterminated traceEvents array); close() drains,
/// appends the deterministic "traces" summary section, and joins.
class TraceWriter {
 public:
  struct Options {
    std::string path;
    std::size_t queue_capacity = 1024;
    /// Per-file cap on retained summaries (they are buffered in memory
    /// until close); traces beyond it still get their timeline events,
    /// and the overflow is counted in the artifact.
    std::size_t max_summaries = 8192;
  };

  /// Opens the file for truncating write; throws std::runtime_error when
  /// the path cannot be opened.
  explicit TraceWriter(Options options);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(FinishedTrace trace);

  /// Drains the queue, writes the artifact footer ("traces" summaries +
  /// counts), flushes, and joins the writer. Call from the owning thread;
  /// idempotent there. Writes after close are counted as dropped.
  void close();

  std::uint64_t written() const;
  std::uint64_t dropped() const;

 private:
  void writer_loop();
  /// Streams one trace's Chrome events; buffers its summary. Writer
  /// thread only.
  void emit(const FinishedTrace& trace);

  Options options_;
  // Writer-thread-only state (owning thread touches it after join only).
  std::ofstream out_;
  bool first_event_ = true;
  std::vector<std::string> summaries_;
  std::uint64_t summaries_dropped_ = 0;

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<FinishedTrace> pending_ MECSC_GUARDED_BY(mutex_);
  bool closed_ MECSC_GUARDED_BY(mutex_) = false;
  std::uint64_t written_ MECSC_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ MECSC_GUARDED_BY(mutex_) = 0;
  std::thread writer_;  ///< owning thread only (constructor / close)
};

/// Always-on ring of the last `capacity` completed requests: the wide
/// event plus (when tracing ran) the finished span tree, held as the
/// structs they were recorded as. Nothing is serialized until a dump asks
/// for it: recording moves the entry in under the lock (the evicted one is
/// freed outside it), and a dump copies the ring's pointers under the lock
/// and renders outside it. Thread-safe.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  /// `trace` may be empty (requests rejected before admission): the entry
  /// then carries the wide event only.
  void record(RequestEvent event, std::optional<FinishedTrace> trace);
  /// Copies `*trace` into the entry when it is not null; for callers that
  /// also hand the trace to a TraceWriter.
  void record(RequestEvent event, const FinishedTrace* trace);

  /// {"obs_format_version", "capacity", "recorded_total", "entries":
  /// [{"event": {...}, "trace": {...}}, ...]} — oldest first. Entry
  /// fields follow the wide-event / trace-summary wall_ contracts, so the
  /// stripped dump is deterministic under single-worker FIFO capture.
  util::JsonValue to_json() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t recorded_total() const;

 private:
  struct Entry {
    RequestEvent event;
    std::optional<FinishedTrace> trace;
  };

  std::size_t capacity_;
  mutable util::Mutex mutex_;
  /// Oldest first. Entries are immutable and shared, so a dump in progress
  /// keeps its copies alive past their eviction.
  std::deque<std::shared_ptr<const Entry>> entries_ MECSC_GUARDED_BY(mutex_);
  std::uint64_t recorded_ MECSC_GUARDED_BY(mutex_) = 0;
};

}  // namespace mecsc::obs
