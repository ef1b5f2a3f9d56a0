// Tests for the service telemetry plane (obs/histogram.h, obs/telemetry.h):
// log-linear quantile accuracy against exact sorted-sample quantiles,
// order-independent shard merges, sliding-window rotation driven through
// the explicit-clock *_at entry points, wide-event JSON schema (wall_
// segregation), the bounded async request log, and concurrent
// record/snapshot under TSan (suite names Telemetry*/RequestLog* carry the
// ctest `concurrency` label; see tests/CMakeLists.txt).
#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "util/json.h"
#include "util/rng.h"

namespace mecsc::obs {
namespace {

/// Exact sorted-sample quantile with the same rank convention the
/// histogram documents: rank q*(n-1), nearest sample.
double exact_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  return samples[static_cast<std::size_t>(std::lround(rank))];
}

TEST(TelemetryHistogram, EmptyIsAllZero) {
  const LogLinearHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(TelemetryHistogram, SingleValueQuantilesClampToIt) {
  LogLinearHistogram h;
  h.record(3.25);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.25);
  EXPECT_DOUBLE_EQ(h.max(), 3.25);
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.25) << "q=" << q;
}

TEST(TelemetryHistogram, QuantilesTrackExactWithinRelativeErrorBound) {
  // Log-uniform samples across six decades: the histogram promises
  // 1/kSubBuckets (6.25%) worst-case relative error for in-range values.
  util::Rng rng(42);
  std::vector<double> samples;
  samples.reserve(20000);
  LogLinearHistogram h;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, -2.0 + 6.0 * rng.uniform_real(0.0, 1.0));
    samples.push_back(v);
    h.record(v);
  }
  EXPECT_EQ(h.count(), samples.size());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile(samples, q);
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, exact / LogLinearHistogram::kSubBuckets)
        << "q=" << q;
  }
}

TEST(TelemetryHistogram, MergeIsOrderIndependentAndExact) {
  // The same multiset recorded into one histogram, and split across three
  // shards merged in two different orders: identical buckets either way.
  util::Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i)
    samples.push_back(std::pow(10.0, -1.0 + 4.0 * rng.uniform_real(0.0, 1.0)));

  LogLinearHistogram whole;
  LogLinearHistogram shard[3];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.record(samples[i]);
    shard[i % 3].record(samples[i]);
  }
  LogLinearHistogram forward;  // shard 0, 1, 2
  forward.merge(shard[0]);
  forward.merge(shard[1]);
  forward.merge(shard[2]);
  LogLinearHistogram backward;  // shard 2, 1, 0
  backward.merge(shard[2]);
  backward.merge(shard[1]);
  backward.merge(shard[0]);

  for (const LogLinearHistogram* merged : {&forward, &backward}) {
    EXPECT_EQ(merged->count(), whole.count());
    EXPECT_DOUBLE_EQ(merged->sum(), whole.sum());
    EXPECT_DOUBLE_EQ(merged->min(), whole.min());
    EXPECT_DOUBLE_EQ(merged->max(), whole.max());
    const auto a = merged->nonzero_buckets();
    const auto b = whole.nonzero_buckets();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].lower, b[i].lower);
      EXPECT_EQ(a[i].count, b[i].count);
    }
    for (const double q : {0.5, 0.95, 0.999})
      EXPECT_DOUBLE_EQ(merged->quantile(q), whole.quantile(q));
  }
}

TEST(TelemetryHistogram, OutOfRangeValuesLandInEdgeBuckets) {
  LogLinearHistogram h;
  h.record(-5.0);    // negative → underflow
  h.record(1e-9);    // below 2^-10 ms → underflow
  h.record(1e9);     // above 2^24 ms → overflow
  h.record(1.0);     // regular
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);  // min/max stay exact regardless
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  const auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 3u);  // underflow(2), the 1.0 bucket, overflow
  EXPECT_EQ(buckets.front().count, 2u);
  EXPECT_EQ(buckets.back().count, 1u);
  // Edge-bucket quantiles stay inside the exact extremes: the underflow
  // estimate can't go below min(), the overflow estimate can't exceed
  // max() (the overflow bucket has no meaningful upper edge).
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(0.0), 1e-3);  // an underflow-bucket-sized value
  EXPECT_GE(h.quantile(1.0), std::ldexp(1.0, LogLinearHistogram::kMaxExponent));
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(TelemetryHistogram, ClearResets) {
  LogLinearHistogram h;
  h.record(1.0);
  h.record(2.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

// ---------------------------------------------------------------------------
// Wide events

TEST(TelemetryEvent, JsonSchemaSegregatesWallKeys) {
  RequestEvent event;
  event.request_id = "lg-0-7";
  event.type = "solve";
  event.algorithm = "lcf";
  event.instance_digest = "deadbeef00000000";
  event.cache_outcome = "miss";
  event.bytes_in = 123;
  event.bytes_out = 456;
  event.queue_ms = 0.5;
  event.parse_ms = 0.25;
  event.decode_ms = 0.125;
  event.solve_ms = 2.0;
  event.serialize_ms = 0.0625;
  event.total_ms = 3.0;

  const util::JsonValue doc = event.to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_at("event"), "request");
  EXPECT_EQ(doc.string_at("request_id"), "lg-0-7");
  EXPECT_EQ(doc.string_at("type"), "solve");
  EXPECT_EQ(doc.string_at("algorithm"), "lcf");
  EXPECT_EQ(doc.string_at("digest"), "deadbeef00000000");
  EXPECT_EQ(doc.string_at("cache"), "miss");
  EXPECT_EQ(doc.string_at("outcome"), "ok");
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.number_at("bytes_in"), 123.0);
  // Every wall-clock-derived field must carry the wall_ prefix so
  // strip_wallclock.py removes it before determinism diffs.
  for (const std::string key :
       {"bytes_out", "queue_ms", "parse_ms", "decode_ms", "solve_ms",
        "serialize_ms", "total_ms"}) {
    EXPECT_FALSE(doc.contains(key)) << key;
    EXPECT_TRUE(doc.contains("wall_" + key)) << key;
  }
  EXPECT_EQ(doc.number_at("wall_total_ms"), 3.0);
}

TEST(TelemetryEvent, OmitsEmptyOptionalFields) {
  RequestEvent event;
  event.request_id = "s-1";
  event.type = "health";
  const util::JsonValue doc = event.to_json();
  EXPECT_FALSE(doc.contains("algorithm"));
  EXPECT_FALSE(doc.contains("digest"));
}

// ---------------------------------------------------------------------------
// Sliding-window RED accounting (explicit clock)

RequestEvent solve_event(double total_ms, bool ok = true,
                         const std::string& code = "") {
  RequestEvent e;
  e.type = "solve";
  e.total_ms = total_ms;
  e.ok = ok;
  if (!ok) e.outcome = code;
  e.bytes_in = 10;
  e.bytes_out = 20;
  return e;
}

TEST(TelemetryWindow, CumulativeAndWindowedCountsAgreeInsideWindow) {
  ServiceTelemetry::Options opt;
  opt.window_ms = 1000.0;
  opt.slots = 4;
  opt.shards = 2;
  ServiceTelemetry telemetry(opt);
  telemetry.record_at(solve_event(5.0), 100.0);
  telemetry.record_at(solve_event(7.0), 200.0);
  telemetry.record_at(solve_event(9.0, false, "bad_request"), 300.0);

  const TelemetrySnapshot snap = telemetry.snapshot_at(400.0);
  ASSERT_EQ(snap.types.count("solve"), 1u);
  const RedTypeStats& s = snap.types.at("solve");
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.errors_by_code.at("bad_request"), 1u);
  EXPECT_EQ(s.bytes_in, 30u);
  EXPECT_EQ(s.bytes_out, 60u);
  EXPECT_EQ(s.latency.count(), 3u);
  EXPECT_EQ(s.window_requests, 3u);
  EXPECT_EQ(s.window_errors, 1u);
  EXPECT_DOUBLE_EQ(s.window_duration_sum_ms, 21.0);
}

TEST(TelemetryWindow, RotationExpiresOldSlotsButKeepsCumulative) {
  ServiceTelemetry::Options opt;
  opt.window_ms = 1000.0;  // 4 slots of 250 ms
  opt.slots = 4;
  opt.shards = 1;
  ServiceTelemetry telemetry(opt);
  telemetry.record_at(solve_event(5.0), 100.0);   // slot 0
  telemetry.record_at(solve_event(7.0), 900.0);   // slot 3

  // At t=1200 the window [200, 1200] has dropped slot 0.
  {
    const TelemetrySnapshot snap = telemetry.snapshot_at(1200.0);
    const RedTypeStats& s = snap.types.at("solve");
    EXPECT_EQ(s.requests, 2u);          // cumulative: everything
    EXPECT_EQ(s.window_requests, 1u);   // windowed: only the t=900 event
    EXPECT_DOUBLE_EQ(s.window_duration_sum_ms, 7.0);
  }
  // Far in the future the window is empty but totals persist.
  {
    const TelemetrySnapshot snap = telemetry.snapshot_at(60000.0);
    const RedTypeStats& s = snap.types.at("solve");
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.latency.count(), 2u);
    EXPECT_EQ(s.window_requests, 0u);
  }
}

TEST(TelemetryWindow, RingReusesStaleSlotAfterFullRotation) {
  ServiceTelemetry::Options opt;
  opt.window_ms = 400.0;  // 4 slots of 100 ms
  opt.slots = 4;
  opt.shards = 1;
  ServiceTelemetry telemetry(opt);
  telemetry.record_at(solve_event(1.0), 50.0);  // slot index 0
  // Slot index 4 maps to the same ring position as index 0: the stale
  // counters must be reset, not added to.
  telemetry.record_at(solve_event(2.0), 450.0);
  const TelemetrySnapshot snap = telemetry.snapshot_at(460.0);
  const RedTypeStats& s = snap.types.at("solve");
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.window_requests, 1u);  // only the slot-4 event is in-window
  EXPECT_DOUBLE_EQ(s.window_duration_sum_ms, 2.0);
}

TEST(TelemetryWindow, RetryHintScalesWithQueueAndClamps) {
  ServiceTelemetry::Options opt;
  opt.window_ms = 1000.0;
  opt.slots = 4;
  opt.shards = 1;
  ServiceTelemetry telemetry(opt);
  // Cold window: nominal 25 ms mean. One queued request, one worker.
  EXPECT_DOUBLE_EQ(telemetry.retry_after_ms_hint_at(0, 1, 10.0), 25.0);
  // Deep queue clamps at the 10 s ceiling.
  EXPECT_DOUBLE_EQ(telemetry.retry_after_ms_hint_at(100000, 1, 10.0),
                   10000.0);
  // Warm window: mean 50 ms, 4 queued + this one, 2 workers → 125 ms.
  telemetry.record_at(solve_event(40.0), 100.0);
  telemetry.record_at(solve_event(60.0), 110.0);
  EXPECT_DOUBLE_EQ(telemetry.retry_after_ms_hint_at(4, 2, 200.0), 125.0);
  // A tiny hint clamps at the 1 ms floor.
  EXPECT_DOUBLE_EQ(telemetry.retry_after_ms_hint_at(0, 64, 200.0), 1.0);
}

// ---------------------------------------------------------------------------
// Exports

TEST(TelemetryExport, JsonShapeSegregatesWallKeys) {
  ServiceTelemetry telemetry;
  telemetry.record_at(solve_event(5.0), 10.0);
  ServiceGauges gauges;
  gauges.queue_capacity = 64;
  gauges.workers = 4;
  gauges.cache_hits = 3;
  gauges.cache_misses = 1;
  const util::JsonValue doc =
      telemetry_to_json(telemetry.snapshot_at(20.0), gauges);

  ASSERT_TRUE(doc.is_object());
  const util::JsonValue& solve = doc.at("red").at("solve");
  EXPECT_EQ(solve.number_at("requests"), 1.0);
  EXPECT_TRUE(solve.contains("wall_latency_ms"));
  EXPECT_TRUE(solve.contains("wall_window"));
  EXPECT_FALSE(solve.contains("latency_ms"));
  EXPECT_EQ(solve.at("wall_latency_ms").number_at("count"), 1.0);
  EXPECT_EQ(doc.at("gauges").number_at("queue_capacity"), 64.0);
  EXPECT_EQ(doc.at("cache").number_at("hits"), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("wall_gauges").number_at("cache_hit_ratio"), 0.75);
  // Point-in-time readings are wall-segregated, never bare.
  EXPECT_FALSE(doc.contains("gauges_live"));
  EXPECT_FALSE(doc.at("gauges").contains("queue_depth"));
  EXPECT_TRUE(doc.at("wall_gauges").contains("queue_depth"));
}

// Request types come from clients; only the daemons' own types (and
// "unparsed") get RED state of their own.
TEST(TelemetryExport, UnservedTypesShareTheUnknownKey) {
  ServiceTelemetry telemetry;
  for (const std::string type :
       {"solve", "poa", "health", "stats", "metrics", "shutdown",
        "drain_backend", "unparsed"}) {
    RequestEvent e;
    e.type = type;
    telemetry.record_at(e, 0.0);
  }
  for (int i = 0; i < 100; ++i) {
    RequestEvent e;
    e.type = "client-type-" + std::to_string(i);
    e.ok = false;
    e.outcome = "bad_request";
    telemetry.record_at(e, 0.0);
  }
  const TelemetrySnapshot snap = telemetry.snapshot_at(0.0);
  EXPECT_EQ(snap.types.size(), 9u);
  ASSERT_EQ(snap.types.count("unknown"), 1u);
  EXPECT_EQ(snap.types.at("unknown").requests, 100u);
  EXPECT_EQ(snap.types.at("unknown").errors_by_code.at("bad_request"), 100u);
  EXPECT_EQ(snap.types.at("solve").requests, 1u);
  EXPECT_EQ(snap.types.at("drain_backend").requests, 1u);
}

TEST(TelemetryExport, PrometheusExpositionIsWellFormed) {
  ServiceTelemetry telemetry;
  telemetry.record_at(solve_event(0.5), 10.0);
  telemetry.record_at(solve_event(2.5), 11.0);
  telemetry.record_at(solve_event(400.0, false, "overloaded"), 12.0);
  ServiceGauges gauges;
  gauges.workers = 2;
  const std::string text =
      telemetry_to_prometheus(telemetry.snapshot_at(20.0), gauges);

  EXPECT_NE(text.find("# TYPE mecsc_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mecsc_requests_total{type=\"solve\"} 3"),
            std::string::npos);
  EXPECT_NE(
      text.find("mecsc_errors_total{type=\"solve\",code=\"overloaded\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE mecsc_request_duration_ms histogram"),
            std::string::npos);
  // The histogram must terminate with the mandatory +Inf bucket equal to
  // the observation count, plus _sum and _count series.
  EXPECT_NE(
      text.find("mecsc_request_duration_ms_bucket{type=\"solve\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("mecsc_request_duration_ms_count{type=\"solve\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("mecsc_workers 2"), std::string::npos);
  // Exposition format: every line is comment or sample; file ends with \n.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // Cumulative `le` buckets must be monotonically non-decreasing.
  std::uint64_t previous = 0;
  std::size_t pos = 0;
  const std::string needle = "mecsc_request_duration_ms_bucket{type=\"solve\"";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::size_t eol = text.find('\n', space);
    const std::uint64_t value =
        std::stoull(text.substr(space + 1, eol - space - 1));
    EXPECT_GE(value, previous);
    previous = value;
    pos = eol;
  }
  EXPECT_EQ(previous, 3u);  // the +Inf bucket saw every observation
}

// ---------------------------------------------------------------------------
// Request log

TEST(RequestLog, WritesOneParseableLinePerEvent) {
  const std::string path = testing::TempDir() + "mecsc_requestlog_test.jsonl";
  {
    RequestLog::Options opt;
    opt.path = path;
    RequestLog log(opt);
    for (int i = 0; i < 100; ++i) {
      RequestEvent e = solve_event(1.0 + i);
      e.request_id = "t-" + std::to_string(i);
      log.write(e);
    }
    log.close();
    EXPECT_EQ(log.dropped(), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    const util::JsonValue doc = util::parse_json(line);
    EXPECT_EQ(doc.string_at("request_id"), "t-" + std::to_string(lines));
    ++lines;
  }
  EXPECT_EQ(lines, 100);
}

TEST(RequestLog, WriteAfterCloseCountsAsDropped) {
  RequestLog::Options opt;
  opt.path = testing::TempDir() + "mecsc_requestlog_closed.jsonl";
  RequestLog log(opt);
  log.close();
  log.write(solve_event(1.0));
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(RequestLog, SizeRotationKeepsOneRolledFileAndEveryLine) {
  const std::string path = testing::TempDir() + "mecsc_requestlog_rotate.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  constexpr int kEvents = 200;
  {
    RequestLog::Options opt;
    opt.path = path;
    opt.max_bytes = 4096;  // tiny cap: every wide event is ~300 bytes
    RequestLog log(opt);
    for (int i = 0; i < kEvents; ++i) {
      RequestEvent e = solve_event(1.0 + i);
      e.request_id = "r-" + std::to_string(i);
      log.write(e);
    }
    log.close();
    EXPECT_EQ(log.dropped(), 0u);
    EXPECT_GE(log.rotations(), 1u);
  }
  // Single-rollover policy: the live file plus exactly one `.1` sibling,
  // and no line is lost across the most recent boundary (older rollovers
  // are intentionally discarded).
  int live_lines = 0;
  std::string line;
  std::ifstream live(path);
  ASSERT_TRUE(live.good());
  while (std::getline(live, line)) {
    EXPECT_EQ(util::parse_json(line).string_at("type"), "solve");
    ++live_lines;
  }
  std::ifstream rolled(path + ".1");
  ASSERT_TRUE(rolled.good());
  int rolled_lines = 0;
  std::string last_rolled;
  while (std::getline(rolled, line)) {
    last_rolled = line;
    ++rolled_lines;
  }
  EXPECT_GT(live_lines, 0);
  EXPECT_GT(rolled_lines, 0);
  // The rolled file ends exactly where the live file begins.
  std::ifstream live2(path);
  std::string first_live;
  ASSERT_TRUE(std::getline(live2, first_live));
  const auto index_of = [](const std::string& event_line) {
    // request_id is "r-<i>"; recover <i>.
    const std::string id = util::parse_json(event_line).string_at("request_id");
    return std::stoi(id.substr(2));
  };
  EXPECT_EQ(index_of(first_live), index_of(last_rolled) + 1);
}

TEST(RequestLog, SlowRequestsAreMirrored) {
  RequestLog::Options opt;
  opt.path = testing::TempDir() + "mecsc_requestlog_slow.jsonl";
  opt.slow_request_ms = 10.0;
  RequestLog log(opt);
  testing::internal::CaptureStderr();
  log.write(solve_event(5.0));    // below threshold
  log.write(solve_event(50.0));   // mirrored
  const std::string err = testing::internal::GetCapturedStderr();
  log.close();
  EXPECT_EQ(log.slow_mirrored(), 1u);
  EXPECT_NE(err.find("slow request"), std::string::npos);
  EXPECT_NE(err.find("wall_total_ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan via the ctest `concurrency` label)

TEST(TelemetryConcurrency, ScrapeUnderLoadIsRaceFreeAndLosesNothing) {
  ServiceTelemetry::Options opt;
  opt.window_ms = 10000.0;
  opt.shards = 4;
  ServiceTelemetry telemetry(opt);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};

  std::thread scraper([&] {
    // Concurrent scrapes must see a monotonically growing, internally
    // consistent view — never a torn count.
    std::uint64_t last = 0;
    while (!done.load()) {
      const TelemetrySnapshot snap = telemetry.snapshot();
      std::uint64_t total = 0;
      for (const auto& [type, stats] : snap.types) {
        EXPECT_EQ(stats.latency.count(), stats.requests);
        total += stats.requests;
      }
      EXPECT_GE(total, last);
      last = total;
      scrapes.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&telemetry, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        RequestEvent e = solve_event(0.5 + 0.001 * i);
        e.type = (w % 2 == 0) ? "solve" : "poa";
        telemetry.record(e);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  const TelemetrySnapshot snap = telemetry.snapshot();
  std::uint64_t total = 0;
  for (const auto& [type, stats] : snap.types) total += stats.requests;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(RequestLogConcurrency, ParallelWritersNeverLoseCountedLines) {
  const std::string path =
      testing::TempDir() + "mecsc_requestlog_concurrent.jsonl";
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::uint64_t dropped = 0;
  {
    RequestLog::Options opt;
    opt.path = path;
    RequestLog log(opt);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&log, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          RequestEvent e = solve_event(1.0);
          e.request_id = "c-" + std::to_string(w) + "-" + std::to_string(i);
          log.write(e);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    log.close();
    dropped = log.dropped();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_FALSE(util::parse_json(line).string_at("request_id").empty());
    ++lines;
  }
  // Every write either landed in the file or was counted as dropped.
  EXPECT_EQ(lines + dropped,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace mecsc::obs
