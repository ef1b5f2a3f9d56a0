#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/parallel.h"

namespace mecsc::obs {
namespace {

/// Each test owns the whole registry: reset on entry and exit so metrics
/// recorded by other tests (the instrumented solvers run all over the
/// suite) never leak in.
class ObsMetrics : public testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::global().reset(); }
  void TearDown() override { MetricsRegistry::global().reset(); }
};

TEST_F(ObsMetrics, CountersAccumulate) {
  auto& m = MetricsRegistry::global();
  m.counter_add("a");
  m.counter_add("a", 4);
  m.counter_add("b", -2);
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 5);
  EXPECT_EQ(snap.counters.at("b"), -2);
}

TEST_F(ObsMetrics, GaugesLastWriterWins) {
  auto& m = MetricsRegistry::global();
  m.gauge_set("g", 1.0);
  m.gauge_set("g", 2.5);
  EXPECT_DOUBLE_EQ(m.snapshot().gauges.at("g"), 2.5);
}

TEST_F(ObsMetrics, HistogramStats) {
  auto& m = MetricsRegistry::global();
  for (const double v : {3.0, 1.0, 2.0}) m.value_record("h", v);
  const ValueStats s = m.snapshot().histograms.at("h");
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST_F(ObsMetrics, ResetDropsEverything) {
  auto& m = MetricsRegistry::global();
  m.counter_add("a");
  m.value_record("h", 1.0);
  m.gauge_set("g", 1.0);
  m.reset();
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(snap.gauges.empty());
}

// The core determinism property: parallel_for hands out indices with an
// atomic counter, so which worker records which value differs from run to
// run — yet the merged snapshot must not.
TEST_F(ObsMetrics, MergeUnderParallelForIsDeterministic) {
  constexpr std::size_t kItems = 256;
  auto run_once = [&] {
    MetricsRegistry::global().reset();
    util::parallel_for(
        kItems,
        [](std::size_t i) {
          auto& m = MetricsRegistry::global();
          m.counter_add("par.count");
          m.counter_add("par.weighted", static_cast<std::int64_t>(i));
          // Values engineered so naive merge order would change the
          // floating-point sum.
          m.value_record("par.values",
                         1.0 + 1e-9 * static_cast<double>(i % 7));
        },
        8);
    return MetricsRegistry::global().snapshot().to_json().dump(2);
  };
  const std::string first = run_once();
  for (int repeat = 0; repeat < 4; ++repeat) {
    EXPECT_EQ(run_once(), first) << "repeat " << repeat;
  }

  MetricsRegistry::global().reset();
  util::parallel_for(
      kItems,
      [](std::size_t i) {
        MetricsRegistry::global().counter_add(
            "par.weighted", static_cast<std::int64_t>(i));
        MetricsRegistry::global().counter_add("par.count");
        MetricsRegistry::global().value_record(
            "par.values", 1.0 + 1e-9 * static_cast<double>(i % 7));
      },
      8);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("par.count"),
            static_cast<std::int64_t>(kItems));
  EXPECT_EQ(snap.counters.at("par.weighted"),
            static_cast<std::int64_t>(kItems * (kItems - 1) / 2));
  EXPECT_EQ(snap.histograms.at("par.values").count, kItems);
}

TEST_F(ObsMetrics, WallTimersSegregatedUnderWallPrefix) {
  auto& m = MetricsRegistry::global();
  m.counter_add("deterministic.counter");
  m.wall_duration_record("phase", 12.5);
  const util::JsonValue doc = m.snapshot().to_json();
  // Timing lives only under the wall_-prefixed section...
  EXPECT_TRUE(doc.at("wall_timers_ms").contains("phase"));
  EXPECT_DOUBLE_EQ(
      doc.at("wall_timers_ms").at("phase").number_at("sum"), 12.5);
  // ...and never in the deterministic sections.
  EXPECT_FALSE(doc.at("histograms").contains("phase"));
  EXPECT_TRUE(doc.at("counters").contains("deterministic.counter"));
}

// Wall streams keep running count/sum/min/max per shard. Whichever thread
// recorded what, count, min and max are exact; only the order of the
// floating-point additions in the sum may differ from the sorted sum.
TEST_F(ObsMetrics, WallStreamsFromEightThreadsKeepExactCountMinMax) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  auto value_of = [](int t, int i) {
    return 0.001 * static_cast<double>((t * 7919 + i * 104729) % 10007) +
           1e-7 * static_cast<double>(i);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &value_of] {
      for (int i = 0; i < kPerThread; ++i)
        MetricsRegistry::global().wall_duration_record("wall_x",
                                                       value_of(t, i));
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> all;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) all.push_back(value_of(t, i));
  std::sort(all.begin(), all.end());
  double sorted_sum = 0.0;
  for (const double v : all) sorted_sum += v;

  const ValueStats s = MetricsRegistry::global().snapshot().wall_timers_ms.at(
      "wall_x");
  EXPECT_EQ(s.count, all.size());
  EXPECT_EQ(s.min, all.front());
  EXPECT_EQ(s.max, all.back());
  EXPECT_LE(std::abs(s.sum - sorted_sum), 1e-12 * sorted_sum);
}

// Every exiting thread's shard folds into one retired shard; totals over
// many short-lived threads stay exact.
TEST_F(ObsMetrics, TotalsStayExactAfterThousandRetiredThreads) {
  constexpr int kThreads = 1000;
  constexpr int kBatch = 8;  // a few threads alive at a time
  for (int first = 0; first < kThreads; first += kBatch) {
    std::vector<std::thread> batch;
    for (int t = first; t < first + kBatch; ++t) {
      batch.emplace_back([t] {
        auto& m = MetricsRegistry::global();
        m.counter_add("churn.count");
        m.counter_add("churn.weighted", t);
        m.value_record("churn.values", static_cast<double>(t));
        m.wall_duration_record("wall_churn", static_cast<double>(t));
      });
    }
    for (std::thread& t : batch) t.join();
  }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  constexpr double kSum = kThreads * (kThreads - 1) / 2.0;
  EXPECT_EQ(snap.counters.at("churn.count"), kThreads);
  EXPECT_EQ(snap.counters.at("churn.weighted"),
            static_cast<std::int64_t>(kSum));
  for (const ValueStats& s : {snap.histograms.at("churn.values"),
                              snap.wall_timers_ms.at("wall_churn")}) {
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(s.sum, kSum);  // integers: exact in any order
    EXPECT_EQ(s.min, 0.0);
    EXPECT_EQ(s.max, kThreads - 1.0);
  }
}

TEST_F(ObsMetrics, SnapshotJsonRoundTripsThroughParser) {
  auto& m = MetricsRegistry::global();
  m.counter_add("c", 7);
  m.gauge_set("g", 0.5);
  m.value_record("h", 2.0);
  const std::string text = m.snapshot().to_json().dump(2);
  const util::JsonValue parsed = util::parse_json(text);
  EXPECT_DOUBLE_EQ(parsed.at("counters").number_at("c"), 7.0);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").number_at("g"), 0.5);
  EXPECT_EQ(parsed.at("histograms").at("h").number_at("count"), 1.0);
}

}  // namespace
}  // namespace mecsc::obs
