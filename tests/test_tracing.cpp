// Causal-tracing tests (obs/tracing.h): W3C traceparent parse/mint
// round-trips, deterministic id derivation and head sampling, span-tree
// construction through the Profiler::SpanListener bridge, the bounded
// async TraceWriter's Chrome trace-event artifact, and the FlightRecorder
// ring. Suites Tracing*/TracingWriter*/FlightRecorder* carry the ctest
// `concurrency` label (tests/CMakeLists.txt) so the threaded ones run
// under TSan in CI.
#include "obs/tracing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.h"
#include "obs/run_info.h"
#include "util/json.h"
#include "util/timer.h"

namespace mecsc::obs {
namespace {

using util::JsonValue;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- TraceContext -----------------------------------------------------------

TEST(TracingContext, DeriveRoundTripsThroughTraceparent) {
  const TraceContext ctx = TraceContext::derive("lg-0-17", true);
  EXPECT_EQ(ctx.trace_id.size(), 32u);
  EXPECT_EQ(ctx.span_id.size(), 16u);
  EXPECT_TRUE(ctx.sampled);

  const std::string header = ctx.to_traceparent();
  EXPECT_EQ(header.size(), 55u);
  EXPECT_EQ(header.rfind("00-", 0), 0u);
  EXPECT_EQ(header.substr(53), "01");

  const auto parsed = TraceContext::parse(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
  EXPECT_TRUE(parsed->sampled);
}

TEST(TracingContext, DeriveIsDeterministicPerSeed) {
  const TraceContext a = TraceContext::derive("req-1", false);
  const TraceContext b = TraceContext::derive("req-1", false);
  const TraceContext c = TraceContext::derive("req-2", false);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_NE(a.trace_id, c.trace_id);
  EXPECT_FALSE(a.sampled);
}

TEST(TracingContext, ParseRejectsEveryMalformedShape) {
  const std::string good = TraceContext::derive("x", false).to_traceparent();
  ASSERT_TRUE(TraceContext::parse(good).has_value());

  // Wrong length.
  EXPECT_FALSE(TraceContext::parse(good + "0").has_value());
  EXPECT_FALSE(TraceContext::parse(good.substr(0, 54)).has_value());
  EXPECT_FALSE(TraceContext::parse("").has_value());
  // Wrong version.
  std::string bad = good;
  bad[0] = '0';
  bad[1] = '1';
  EXPECT_FALSE(TraceContext::parse(bad).has_value());
  // Dash out of place.
  bad = good;
  bad[35] = '_';
  EXPECT_FALSE(TraceContext::parse(bad).has_value());
  // Non-hex (and uppercase-hex, which W3C forbids) digits.
  bad = good;
  bad[5] = 'g';
  EXPECT_FALSE(TraceContext::parse(bad).has_value());
  bad = good;
  bad[5] = 'A';
  EXPECT_FALSE(TraceContext::parse(bad).has_value());
  // All-zero ids.
  EXPECT_FALSE(
      TraceContext::parse("00-00000000000000000000000000000000-" +
                          good.substr(36, 16) + "-01")
          .has_value());
  EXPECT_FALSE(TraceContext::parse("00-" + good.substr(3, 32) +
                                   "-0000000000000000-01")
                   .has_value());
}

TEST(TracingContext, ParseReadsSampledFromLowFlagBit) {
  const TraceContext base = TraceContext::derive("flag", false);
  const std::string id = "00-" + base.trace_id + "-" + base.span_id + "-";
  EXPECT_FALSE(TraceContext::parse(id + "00")->sampled);
  EXPECT_TRUE(TraceContext::parse(id + "01")->sampled);
  EXPECT_FALSE(TraceContext::parse(id + "02")->sampled);
  EXPECT_TRUE(TraceContext::parse(id + "03")->sampled);
}

TEST(TracingSample, HeadSampleIsDeterministicAndTracksRate) {
  const std::string id = TraceContext::derive("s", false).trace_id;
  EXPECT_FALSE(trace_head_sample(id, 0.0));
  EXPECT_TRUE(trace_head_sample(id, 1.0));
  EXPECT_EQ(trace_head_sample(id, 0.5), trace_head_sample(id, 0.5));

  int hits = 0;
  constexpr int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    const TraceContext ctx =
        TraceContext::derive("trial-" + std::to_string(i), false);
    if (trace_head_sample(ctx.trace_id, 0.25)) ++hits;
  }
  // FNV-1a spreads well enough that 25% +- 5 points holds with huge margin.
  EXPECT_GT(hits, kTrials / 5);
  EXPECT_LT(hits, kTrials * 3 / 10);
}

TEST(TracingSpanId, IsDeterministicAndSeqSensitive) {
  EXPECT_EQ(trace_span_id("abc", 0), trace_span_id("abc", 0));
  EXPECT_NE(trace_span_id("abc", 0), trace_span_id("abc", 1));
  EXPECT_NE(trace_span_id("abc", 0), trace_span_id("abd", 0));
  EXPECT_EQ(trace_span_id("abc", 3).size(), 16u);
}

// --- RequestTrace -----------------------------------------------------------

TEST(TracingRequestTrace, BuildsNestedTreeWithSequentialSpanIds) {
  const util::Timer clock;
  RequestTrace trace(TraceContext::derive("r-1", true), clock);
  const std::string trace_id = trace.context().trace_id;
  // Span ids hash in the inbound parent span so that processes sharing a
  // trace (router + backend) can never mint colliding ids.
  const std::string ns = trace_id + "/" + trace.context().span_id;

  trace.add_complete("svc.queue", 0.0, 0.5);
  trace.begin("svc.solve");
  trace.begin("solver.run");
  trace.end();
  trace.end();
  const FinishedTrace finished =
      trace.finish("r-1", "solve", "sampled", 3, 10.0);

  EXPECT_STREQ(finished.root.name, "svc.request");
  EXPECT_EQ(finished.root.span_id, trace_span_id(ns, 0));
  ASSERT_EQ(finished.root.children.size(), 2u);
  EXPECT_STREQ(finished.root.children[0].name, "svc.queue");
  EXPECT_EQ(finished.root.children[0].span_id, trace_span_id(ns, 1));
  EXPECT_DOUBLE_EQ(finished.root.children[0].dur_ms, 0.5);
  EXPECT_STREQ(finished.root.children[1].name, "svc.solve");
  EXPECT_EQ(finished.root.children[1].span_id, trace_span_id(ns, 2));
  ASSERT_EQ(finished.root.children[1].children.size(), 1u);
  EXPECT_STREQ(finished.root.children[1].children[0].name, "solver.run");
  EXPECT_EQ(finished.root.span_count(), 4u);
  EXPECT_EQ(finished.tid, 3u);
  EXPECT_DOUBLE_EQ(finished.base_ms, 10.0);
  EXPECT_EQ(finished.keep_reason, "sampled");
}

TEST(TracingRequestTrace, UnmatchedEndsNeverPopTheRoot) {
  const util::Timer clock;
  RequestTrace trace(TraceContext::derive("r-2", false), clock);
  trace.end();
  trace.end();
  trace.begin("child");
  trace.end();
  trace.end();
  const FinishedTrace finished = trace.finish("r-2", "solve", "", 0, 0.0);
  EXPECT_EQ(finished.root.span_count(), 2u);
  EXPECT_STREQ(finished.root.name, "svc.request");
}

TEST(TracingRequestTrace, FinishClosesStillOpenSpans) {
  const util::Timer clock;
  RequestTrace trace(TraceContext::derive("r-3", false), clock);
  trace.begin("outer");
  trace.begin("inner");  // left open deliberately
  const FinishedTrace finished = trace.finish("r-3", "solve", "error", 0, 0.0);
  ASSERT_EQ(finished.root.children.size(), 1u);
  ASSERT_EQ(finished.root.children[0].children.size(), 1u);
  EXPECT_GE(finished.root.children[0].dur_ms, 0.0);
  EXPECT_GE(finished.root.dur_ms, finished.root.children[0].dur_ms);
}

TEST(TracingRequestTrace, ProfilerBridgeRoutesScopesIntoTheTree) {
  // The aggregate profiler stays disabled: MECSC_PROFILE_SCOPE sites must
  // record into the listener's tree anyway (should_record() is
  // listener-aware), and the aggregate report must stay untouched.
  ASSERT_FALSE(Profiler::global().enabled());
  const std::uint64_t aggregate_before =
      Profiler::global().report().spans_total;
  const util::Timer clock;
  RequestTrace trace(TraceContext::derive("r-4", true), clock);
  {
    const ProfilerListenerScope bridge(&trace);
    MECSC_PROFILE_SCOPE("bridge.outer");
    {
      MECSC_PROFILE_SCOPE("bridge.inner");
    }
  }
  {
    // Bridge detached: scopes below must NOT land in the tree.
    MECSC_PROFILE_SCOPE("bridge.after");
  }
  const FinishedTrace finished = trace.finish("r-4", "solve", "sampled", 0, 0.0);
  ASSERT_EQ(finished.root.children.size(), 1u);
  EXPECT_STREQ(finished.root.children[0].name, "bridge.outer");
  ASSERT_EQ(finished.root.children[0].children.size(), 1u);
  EXPECT_STREQ(finished.root.children[0].children[0].name, "bridge.inner");
  EXPECT_EQ(Profiler::global().report().spans_total, aggregate_before);
}

TEST(TracingRequestTrace, ListenerScopeRestoresThePreviousListener) {
  const util::Timer clock;
  RequestTrace outer_trace(TraceContext::derive("r-5", false), clock);
  RequestTrace inner_trace(TraceContext::derive("r-6", false), clock);
  EXPECT_EQ(Profiler::thread_listener(), nullptr);
  {
    const ProfilerListenerScope outer(&outer_trace);
    EXPECT_EQ(Profiler::thread_listener(), &outer_trace);
    {
      const ProfilerListenerScope inner(&inner_trace);
      EXPECT_EQ(Profiler::thread_listener(), &inner_trace);
    }
    EXPECT_EQ(Profiler::thread_listener(), &outer_trace);
  }
  EXPECT_EQ(Profiler::thread_listener(), nullptr);
}

TEST(TracingRequestTrace, SummaryJsonSegregatesWallKeys) {
  const util::Timer clock;
  RequestTrace trace(TraceContext::derive("r-7", true), clock);
  trace.add_complete("svc.queue", 0.0, 1.0);
  const FinishedTrace finished =
      trace.finish("r-7", "solve", "sampled", 0, 5.0);
  const JsonValue doc = finished.summary_json();
  EXPECT_EQ(doc.string_at("trace_id"), finished.ctx.trace_id);
  EXPECT_EQ(doc.string_at("request_id"), "r-7");
  EXPECT_EQ(doc.string_at("keep_reason"), "sampled");
  EXPECT_EQ(doc.number_at("spans"), 2.0);
  const JsonValue& root = doc.at("root");
  EXPECT_EQ(root.string_at("name"), "svc.request");
  EXPECT_TRUE(root.contains("wall_dur_ms"));
  EXPECT_TRUE(root.contains("wall_start_ms"));
  EXPECT_FALSE(root.contains("dur_ms"));
  const JsonValue& child = root.at("children").as_array()[0];
  EXPECT_EQ(child.string_at("name"), "svc.queue");
  EXPECT_FALSE(child.contains("children"));  // omitted when empty
}

// --- TraceWriter ------------------------------------------------------------

FinishedTrace make_trace(const std::string& request_id) {
  const util::Timer clock;
  RequestTrace trace(TraceContext::derive(request_id, true), clock);
  trace.begin("svc.solve");
  trace.end();
  return trace.finish(request_id, "solve", "sampled", 0, 1.0);
}

TEST(TracingWriter, WritesLoadableChromeTraceWithDeterministicFooter) {
  const std::string path = testing::TempDir() + "mecsc_trace_writer.json";
  {
    TraceWriter::Options options;
    options.path = path;
    TraceWriter writer(options);
    writer.write(make_trace("w-1"));
    writer.write(make_trace("w-2"));
    writer.close();
    EXPECT_EQ(writer.written(), 2u);
    EXPECT_EQ(writer.dropped(), 0u);
  }
  const JsonValue doc = util::parse_json(read_file(path));
  EXPECT_EQ(doc.number_at("obs_format_version"), 1.0);
  EXPECT_EQ(doc.string_at("displayTimeUnit"), "ms");
  EXPECT_EQ(doc.number_at("kept_traces"), 2.0);
  EXPECT_EQ(doc.number_at("summaries_dropped"), 0.0);
  EXPECT_EQ(doc.number_at("wall_dropped_traces"), 0.0);

  const util::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);  // 2 traces x (root + svc.solve)
  // First pass: find each trace's root span id (span ids are namespaced
  // by the inbound parent span, so the roots are discovered, not derived).
  std::map<std::string, std::string> root_span;
  for (const JsonValue& ev : events) {
    if (ev.string_at("name") == "svc.request") {
      root_span[ev.at("args").string_at("trace_id")] =
          ev.at("args").string_at("span_id");
    }
  }
  EXPECT_EQ(root_span.size(), 2u);
  std::set<std::string> span_ids;
  for (const JsonValue& ev : events) {
    EXPECT_EQ(ev.string_at("ph"), "X");
    EXPECT_EQ(ev.number_at("pid"), 1.0);
    EXPECT_TRUE(ev.contains("ts"));
    EXPECT_TRUE(ev.contains("dur"));
    const JsonValue& args = ev.at("args");
    EXPECT_EQ(args.string_at("trace_id").size(), 32u);
    span_ids.insert(args.string_at("span_id"));
    // Every non-root event's parent is its own trace's root.
    if (ev.string_at("name") != "svc.request") {
      EXPECT_EQ(args.string_at("parent_span_id"),
                root_span[args.string_at("trace_id")]);
    }
  }
  EXPECT_EQ(span_ids.size(), 4u);

  const util::JsonArray& summaries = doc.at("traces").as_array();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].string_at("request_id"), "w-1");
  EXPECT_EQ(summaries[1].string_at("request_id"), "w-2");
  // The root event's ts reflects the base offset (1.0 ms -> 1000 us).
  EXPECT_GE(events[0].number_at("ts"), 1000.0);
}

TEST(TracingWriter, WriteAfterCloseCountsAsDropped) {
  const std::string path = testing::TempDir() + "mecsc_trace_closed.json";
  TraceWriter::Options options;
  options.path = path;
  TraceWriter writer(options);
  writer.close();
  writer.write(make_trace("late"));
  EXPECT_EQ(writer.written(), 0u);
  EXPECT_EQ(writer.dropped(), 1u);
  // The footer was written exactly once; the artifact stays parseable.
  const JsonValue doc = util::parse_json(read_file(path));
  EXPECT_EQ(doc.number_at("kept_traces"), 0.0);
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

TEST(TracingWriter, SummaryOverflowIsCountedNotSilent) {
  const std::string path = testing::TempDir() + "mecsc_trace_overflow.json";
  {
    TraceWriter::Options options;
    options.path = path;
    options.max_summaries = 2;
    TraceWriter writer(options);
    for (int i = 0; i < 5; ++i)
      writer.write(make_trace("o-" + std::to_string(i)));
    writer.close();
  }
  const JsonValue doc = util::parse_json(read_file(path));
  EXPECT_EQ(doc.number_at("kept_traces"), 5.0);
  EXPECT_EQ(doc.at("traces").as_array().size(), 2u);
  EXPECT_EQ(doc.number_at("summaries_dropped"), 3.0);
}

// Concurrent producers against one writer; TSan (ctest -L concurrency)
// checks the queue discipline, and written+dropped must account for every
// write regardless of interleaving.
TEST(TracingWriterConcurrency, ParallelWritersNeverLoseCountedTraces) {
  const std::string path = testing::TempDir() + "mecsc_trace_conc.json";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::uint64_t written = 0;
  std::uint64_t dropped = 0;
  {
    TraceWriter::Options options;
    options.path = path;
    options.queue_capacity = 16;  // small enough to exercise the drop path
    TraceWriter writer(options);
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&writer, t] {
        for (int i = 0; i < kPerThread; ++i) {
          writer.write(
              make_trace("c-" + std::to_string(t) + "-" + std::to_string(i)));
        }
      });
    }
    for (std::thread& p : producers) p.join();
    writer.close();
    written = writer.written();
    dropped = writer.dropped();
  }
  EXPECT_EQ(written + dropped,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const JsonValue doc = util::parse_json(read_file(path));
  EXPECT_EQ(doc.number_at("kept_traces"), static_cast<double>(written));
}

// --- FlightRecorder ---------------------------------------------------------

RequestEvent make_event(const std::string& request_id) {
  RequestEvent event;
  event.request_id = request_id;
  event.type = "solve";
  event.total_ms = 1.0;
  return event;
}

TEST(FlightRecorder, RingKeepsTheLastNOldestFirst) {
  FlightRecorder flight(3);
  for (int i = 0; i < 5; ++i) {
    flight.record(make_event("f-" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(flight.size(), 3u);
  EXPECT_EQ(flight.recorded_total(), 5u);
  const JsonValue doc = flight.to_json();
  EXPECT_EQ(doc.number_at("capacity"), 3.0);
  EXPECT_EQ(doc.number_at("recorded_total"), 5.0);
  const util::JsonArray& entries = doc.at("entries").as_array();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].at("event").string_at("request_id"), "f-2");
  EXPECT_EQ(entries[2].at("event").string_at("request_id"), "f-4");
  EXPECT_FALSE(entries[0].contains("trace"));
}

TEST(FlightRecorder, CapacityZeroClampsToOne) {
  FlightRecorder flight(0);
  EXPECT_EQ(flight.capacity(), 1u);
  flight.record(make_event("a"), nullptr);
  flight.record(make_event("b"), nullptr);
  EXPECT_EQ(flight.size(), 1u);
  EXPECT_EQ(flight.to_json().at("entries").as_array()[0].at("event")
                .string_at("request_id"),
            "b");
}

TEST(FlightRecorder, EntriesCarryTraceSummariesWhenPresent) {
  FlightRecorder flight(4);
  const FinishedTrace trace = make_trace("f-t");
  flight.record(make_event("f-t"), &trace);
  const JsonValue doc = flight.to_json();
  const JsonValue& entry = doc.at("entries").as_array()[0];
  ASSERT_TRUE(entry.contains("trace"));
  EXPECT_EQ(entry.at("trace").string_at("request_id"), "f-t");
  EXPECT_EQ(entry.at("trace").number_at("spans"), 2.0);
  EXPECT_EQ(entry.at("trace").at("root").string_at("name"), "svc.request");
}

// The ring keeps structs and renders on demand; the dump must be the
// document eager rendering at record time produced: each entry's
// event.to_json() and summary_json(), oldest first, whether the trace was
// moved in, copied in, or absent.
TEST(FlightRecorder, DeferredRenderingMatchesEagerRendering) {
  FlightRecorder flight(3);
  std::vector<JsonValue> eager;
  for (int i = 0; i < 5; ++i) {
    const std::string rid = "e-" + std::to_string(i);
    RequestEvent event = make_event(rid);
    event.bytes_in = 10 + static_cast<std::uint64_t>(i);
    event.cache_outcome = i % 2 == 0 ? "hit" : "miss";
    util::JsonObject entry;
    entry["event"] = event.to_json();
    if (i == 1) {
      flight.record(event, nullptr);
    } else if (i == 3) {
      const FinishedTrace trace = make_trace(rid);
      entry["trace"] = trace.summary_json();
      flight.record(event, &trace);
    } else {
      FinishedTrace trace = make_trace(rid);
      entry["trace"] = trace.summary_json();
      flight.record(event, std::move(trace));
    }
    eager.emplace_back(std::move(entry));
  }
  util::JsonObject expected;
  expected["obs_format_version"] = JsonValue(kObsFormatVersion);
  expected["capacity"] = JsonValue(3);
  expected["recorded_total"] = JsonValue(5);
  expected["entries"] =
      JsonValue(util::JsonArray(eager.begin() + 2, eager.end()));
  EXPECT_EQ(flight.to_json().dump(), JsonValue(std::move(expected)).dump());
}

// Recorders and dumpers racing; TSan checks the lock discipline and the
// final tallies must account for every record.
TEST(FlightRecorderConcurrency, ParallelRecordAndDumpStayConsistent) {
  FlightRecorder flight(16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::atomic<bool> done{false};
  std::thread dumper([&flight, &done] {
    while (!done.load()) {
      const JsonValue doc = flight.to_json();
      ASSERT_LE(doc.at("entries").as_array().size(), 16u);
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&flight, t] {
      for (int i = 0; i < kPerThread; ++i) {
        flight.record(make_event(std::to_string(t) + "-" + std::to_string(i)),
                      nullptr);
      }
    });
  }
  for (std::thread& r : recorders) r.join();
  done.store(true);
  dumper.join();
  EXPECT_EQ(flight.recorded_total(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(flight.size(), 16u);
}

}  // namespace
}  // namespace mecsc::obs
