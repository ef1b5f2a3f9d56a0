#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace mecsc::obs {

namespace {

/// Registry-wide generation counter. Shards stamped with an older epoch
/// belong to a measurement that reset() already discarded, so they are
/// dropped instead of merged.
std::atomic<std::uint64_t> g_epoch{0};

/// Folds a sorted value stream into order-independent stats. Summing in
/// ascending order makes the floating-point sum a pure function of the
/// value multiset, independent of which thread recorded what.
ValueStats fold_sorted(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  ValueStats s;
  s.count = values.size();
  if (values.empty()) return s;
  s.min = values.front();
  s.max = values.back();
  for (const double v : values) s.sum += v;
  return s;
}

util::JsonValue stats_to_json(const ValueStats& s) {
  util::JsonObject o;
  o["count"] = util::JsonValue(static_cast<std::size_t>(s.count));
  o["sum"] = util::JsonValue(s.sum);
  if (s.count > 0) {
    o["min"] = util::JsonValue(s.min);
    o["max"] = util::JsonValue(s.max);
    o["mean"] = util::JsonValue(s.sum / static_cast<double>(s.count));
  }
  return util::JsonValue(std::move(o));
}

}  // namespace

void ValueStats::add(double value) {
  min = count == 0 ? value : std::min(min, value);
  max = count == 0 ? value : std::max(max, value);
  ++count;
  sum += value;
}

void ValueStats::merge(const ValueStats& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

util::JsonValue MetricsSnapshot::to_json() const {
  util::JsonObject doc;
  util::JsonObject c;
  for (const auto& [name, v] : counters) {
    c[name] = util::JsonValue(static_cast<long long>(v));
  }
  doc["counters"] = util::JsonValue(std::move(c));
  util::JsonObject g;
  for (const auto& [name, v] : gauges) g[name] = util::JsonValue(v);
  doc["gauges"] = util::JsonValue(std::move(g));
  util::JsonObject h;
  for (const auto& [name, s] : histograms) h[name] = stats_to_json(s);
  doc["histograms"] = util::JsonValue(std::move(h));
  util::JsonObject w;
  for (const auto& [name, s] : wall_timers_ms) w[name] = stats_to_json(s);
  doc["wall_timers_ms"] = util::JsonValue(std::move(w));
  return util::JsonValue(std::move(doc));
}

/// Thread-local owner of one shard; hands the shard back to the registry
/// when the thread exits (parallel_for joins its workers, so by the time
/// it returns every worker shard has been retired).
struct ShardHandle {
  MetricsRegistry::Shard shard;
  ~ShardHandle() { MetricsRegistry::global().retire(std::move(shard)); }
};

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  thread_local ShardHandle handle;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (handle.shard.epoch != epoch) {
    handle.shard = Shard{};
    handle.shard.epoch = epoch;
  }
  return handle.shard;
}

void MetricsRegistry::Shard::fold(const Shard& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, vs] : other.values) {
    auto& dst = values[name];
    dst.insert(dst.end(), vs.begin(), vs.end());
  }
  for (const auto& [name, s] : other.wall_ms) wall_ms[name].merge(s);
}

void MetricsRegistry::retire(Shard&& shard) {
  if (shard.empty()) return;
  const util::MutexLock lock(mutex_);
  if (shard.epoch != g_epoch.load(std::memory_order_relaxed)) return;
  retired_.fold(shard);
}

void MetricsRegistry::counter_add(const std::string& name,
                                  std::int64_t delta) {
  local_shard().counters[name] += delta;
}

void MetricsRegistry::value_record(const std::string& name, double value) {
  local_shard().values[name].push_back(value);
}

void MetricsRegistry::wall_duration_record(const std::string& name,
                                           double ms) {
  local_shard().wall_ms[name].add(ms);
}

void MetricsRegistry::gauge_set(const std::string& name, double value) {
  const util::MutexLock lock(mutex_);
  gauges_[name] = value;
}

MetricsSnapshot MetricsRegistry::snapshot() {
  MetricsSnapshot snap;
  Shard merged;
  {
    const util::MutexLock lock(mutex_);
    snap.gauges = gauges_;
    merged.fold(retired_);
    const Shard& live = local_shard();
    if (live.epoch == g_epoch.load(std::memory_order_relaxed)) {
      merged.fold(live);
    }
  }
  snap.counters = std::move(merged.counters);
  for (auto& [name, vs] : merged.values) {
    snap.histograms[name] = fold_sorted(vs);
  }
  snap.wall_timers_ms = std::move(merged.wall_ms);
  return snap;
}

void MetricsRegistry::reset() {
  const util::MutexLock lock(mutex_);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  retired_ = Shard{};
  gauges_.clear();
}

}  // namespace mecsc::obs
