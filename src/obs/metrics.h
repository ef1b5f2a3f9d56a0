// Deterministic metrics registry: named counters, gauges, and value
// histograms with thread-local shards, so parallel_for workers record
// without touching a shared lock on the hot path.
//
// Determinism contract (the reason this file exists instead of a plain
// map-plus-mutex): parallel_for hands out indices with an atomic counter,
// so *which worker* records a given value is racy. Counters are exact
// integer sums (partition-independent), and deterministic value streams
// keep their raw values so snapshot() can sort the merged stream before
// folding it into count/sum/min/max — identical runs therefore serialize
// to identical bytes no matter how the work was split across threads.
//
// Wall-clock durations are first-class but segregated: every key in the
// serialized form that starts with "wall_" is timing metadata, never an
// algorithm result. tools/strip_wallclock.py removes exactly those keys
// before check_determinism.sh diffs artifacts. Because their sums are
// never diffed, wall streams are kept as running count/sum/min/max, so a
// daemon recording one per request holds constant state; only the order
// of the floating-point additions in the sum depends on the thread split.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/sync.h"

namespace mecsc::obs {

/// Summary of a value stream. Deterministic streams compute it from the
/// sorted merged stream at snapshot time; wall streams keep it running.
struct ValueStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< valid when count > 0
  double max = 0.0;  ///< valid when count > 0

  void add(double value);
  void merge(const ValueStats& other);
};

/// Merged, immutable view of the registry at one point in time.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, ValueStats> histograms;
  /// Wall-clock duration histograms (milliseconds); excluded from the
  /// determinism guarantee.
  std::map<std::string, ValueStats> wall_timers_ms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max}}, "wall_timers_ms": {...}}. Keys sort deterministically
  /// (JsonObject is std::map); every wall-clock value lives under a key
  /// with the "wall_" prefix.
  util::JsonValue to_json() const;
};

/// Process-wide registry. Recording routes through a thread-local shard
/// that is folded (under a mutex) into one retired shard when its thread
/// exits; snapshot() additionally folds in the calling thread's live
/// shard, so the usual record-in-parallel_for-then-snapshot pattern
/// observes everything.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Adds `delta` to the named monotonic counter.
  void counter_add(const std::string& name, std::int64_t delta = 1);

  /// Records one observation of a deterministic value stream.
  void value_record(const std::string& name, double value);

  /// Records one wall-clock duration (milliseconds) into the stream's
  /// running stats. Kept apart from value_record so timing can never
  /// masquerade as an algorithm result.
  void wall_duration_record(const std::string& name, double ms);

  /// Last-writer-wins scalar. Only meaningful from sequential phases;
  /// concurrent writers would race on the final value.
  void gauge_set(const std::string& name, double value);

  /// Merges retired shards + the calling thread's live shard. Thread-safe;
  /// shards owned by other still-running threads are not visible.
  MetricsSnapshot snapshot();

  /// Drops everything recorded so far (retired shards, the calling
  /// thread's shard, and gauges). Tests and the CLI call this to scope a
  /// measurement; other threads' live shards are unaffected.
  void reset();

 private:
  friend struct ShardHandle;

  /// One thread's private buffer. Deterministic streams keep raw values
  /// so the merge can sort before summing; wall streams keep running stats
  /// (see file comment).
  struct Shard {
    std::uint64_t epoch = 0;  ///< registry generation this shard belongs to
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, ValueStats> wall_ms;
    bool empty() const {
      return counters.empty() && values.empty() && wall_ms.empty();
    }
    /// Adds `other`'s counts and streams to this shard's.
    void fold(const Shard& other);
  };

  Shard& local_shard();
  void retire(Shard&& shard);

  /// Leaf lock: taken only to fold retired shards / touch gauges, never
  /// while calling out of this class.
  util::Mutex mutex_;
  /// Everything exited threads recorded in the current epoch, folded into
  /// one shard so thread churn (a session thread per connection) adds no
  /// per-thread state.
  Shard retired_ MECSC_GUARDED_BY(mutex_);
  std::map<std::string, double> gauges_ MECSC_GUARDED_BY(mutex_);
};

}  // namespace mecsc::obs
