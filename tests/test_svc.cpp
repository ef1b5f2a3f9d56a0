// Solver service tests: wire protocol, result-cache single-flight,
// bounded-queue backpressure, deadlines, and graceful drain. The
// concurrency tests run under TSan in CI (suite names start with "Svc" so
// the TSan job's filter picks them up).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/instance.h"
#include "core/io.h"
#include "core/solver_api.h"
#include "obs/tracing.h"
#include "svc/bounded_queue.h"
#include "svc/client.h"
#include "svc/result_cache.h"
#include "svc/server.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace mecsc;
using util::JsonObject;
using util::JsonValue;

util::JsonValue small_instance(std::uint64_t seed = 7) {
  util::Rng rng(seed);
  core::InstanceParams params;
  params.network_size = 25;
  params.provider_count = 12;
  return core::instance_to_json(core::generate_instance(params, rng));
}

/// Starts a TCP server on an ephemeral port and tears it down in order.
struct ServerFixture {
  svc::SolverServer server;

  explicit ServerFixture(svc::ServerOptions options = make_default())
      : server(std::move(options)) {
    server.start();
  }

  ~ServerFixture() {
    server.request_shutdown();
    server.wait();
  }

  static svc::ServerOptions make_default() {
    svc::ServerOptions options;
    options.tcp_port = 0;
    options.threads = 2;
    return options;
  }

  svc::SvcClient client() {
    return svc::SvcClient::connect("tcp:127.0.0.1:" +
                                   std::to_string(server.port()));
  }

  svc::ConnectionPtr raw_connection() {
    return svc::connect_tcp("127.0.0.1", server.port());
  }
};

// --- BoundedQueue -----------------------------------------------------------

TEST(SvcBoundedQueue, TryPushRespectsCapacityWithoutBlocking) {
  svc::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: immediate rejection, no block
  EXPECT_EQ(q.size(), 2u);
}

TEST(SvcBoundedQueue, CloseDrainsRemainingItemsThenSignalsEnd) {
  svc::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  q.close();
  EXPECT_FALSE(q.try_push(3));  // closed: no new admissions
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::nullopt);  // closed and drained
}

TEST(SvcBoundedQueue, CloseWakesBlockedConsumers) {
  svc::BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  consumer.join();
}

// --- ResultCache ------------------------------------------------------------

TEST(SvcResultCache, LeaderPublishesWaitersCoalesce) {
  svc::ResultCache cache(8);
  ASSERT_EQ(cache.get_or_lead("k"), std::nullopt);  // caller leads

  std::thread waiter([&] {
    // Blocks until the leader publishes, then returns its payload.
    EXPECT_EQ(cache.get_or_lead("k"), std::optional<std::string>("payload"));
  });
  cache.publish("k", "payload");
  waiter.join();

  EXPECT_EQ(cache.get_or_lead("k"), std::optional<std::string>("payload"));
  const svc::ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST(SvcResultCache, AbandonPromotesExactlyOneWaiterToLeader) {
  svc::ResultCache cache(8);
  ASSERT_EQ(cache.get_or_lead("k"), std::nullopt);

  std::promise<void> waiter_is_leader;
  std::thread waiter([&] {
    const auto r = cache.get_or_lead("k");
    EXPECT_EQ(r, std::nullopt);  // promoted to leader after the abandon
    waiter_is_leader.set_value();
    cache.publish("k", "recovered");
  });
  // Let the waiter reach the coalescing wait before abandoning. (A sleep
  // would be flaky shorthand; polling the counter is exact.)
  while (cache.stats().coalesced == 0) std::this_thread::yield();
  cache.abandon("k");
  waiter_is_leader.get_future().wait();
  waiter.join();

  EXPECT_EQ(cache.get_or_lead("k"), std::optional<std::string>("recovered"));
}

TEST(SvcResultCache, CapacityZeroKeepsSingleFlightButNoResidency) {
  svc::ResultCache cache(0);
  ASSERT_EQ(cache.get_or_lead("k"), std::nullopt);
  cache.publish("k", "payload");
  // Nothing resident: the next call leads again.
  EXPECT_EQ(cache.get_or_lead("k"), std::nullopt);
  cache.abandon("k");
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(SvcResultCache, ShutdownWakeupUnblocksWaiters) {
  svc::ResultCache cache(8);
  ASSERT_EQ(cache.get_or_lead("k"), std::nullopt);
  std::thread waiter([&] {
    // Woken by shutdown_wakeup with no payload: reported as a miss.
    EXPECT_EQ(cache.get_or_lead("k"), std::nullopt);
  });
  while (cache.stats().coalesced == 0) std::this_thread::yield();
  cache.shutdown_wakeup();
  waiter.join();
}

// --- Endpoint parsing -------------------------------------------------------

TEST(SvcEndpoint, ParsesAllThreeSpellings) {
  const svc::Endpoint unix_ep = svc::parse_endpoint("unix:/tmp/s.sock");
  EXPECT_TRUE(unix_ep.is_unix);
  EXPECT_EQ(unix_ep.path, "/tmp/s.sock");

  const svc::Endpoint tcp = svc::parse_endpoint("tcp:127.0.0.1:7077");
  EXPECT_FALSE(tcp.is_unix);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7077);

  const svc::Endpoint bare = svc::parse_endpoint("/tmp/other.sock");
  EXPECT_TRUE(bare.is_unix);
  EXPECT_EQ(bare.path, "/tmp/other.sock");

  EXPECT_THROW(svc::parse_endpoint("tcp:nohost"), std::runtime_error);
  EXPECT_THROW(svc::parse_endpoint("tcp:host:notaport"), std::runtime_error);
  EXPECT_THROW(svc::parse_endpoint("unix:"), std::runtime_error);
}

// --- Wire protocol ----------------------------------------------------------

TEST(SvcServer, HealthReportsProtocolAndAlgorithms) {
  ServerFixture f;
  svc::SvcClient client = f.client();
  const svc::SvcResponse r = client.health();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.body.number_at("protocol_version"), svc::kSvcProtocolVersion);
  EXPECT_FALSE(r.body.at("draining").as_bool());
  bool has_lcf = false;
  for (const JsonValue& name : r.body.at("algorithms").as_array()) {
    if (name.as_string() == "lcf") has_lcf = true;
  }
  EXPECT_TRUE(has_lcf);
}

TEST(SvcServer, SolveMatchesDirectSolverAndEchoesId) {
  ServerFixture f;
  svc::SvcClient client = f.client();
  const JsonValue instance = small_instance();
  const svc::SvcResponse r = client.solve(instance, "lcf", /*id=*/42);
  ASSERT_TRUE(r.ok) << r.raw;
  EXPECT_EQ(r.id.as_number(), 42.0);
  EXPECT_FALSE(r.body.at("cached").as_bool());
  EXPECT_EQ(r.body.at("result").string_at("algorithm"), "lcf");
  // The served result equals running the solver in-process.
  const core::Instance inst = core::instance_from_json(instance);
  core::SolveSpec spec;
  const core::SolveOutcome direct = core::run_solver(inst, spec);
  EXPECT_DOUBLE_EQ(
      r.body.at("result").number_at("social_cost"),
      core::assignment_to_json(direct.assignment).number_at("social_cost"));
}

TEST(SvcServer, RepeatedSolveIsByteIdenticalAndCached) {
  ServerFixture f;
  svc::SvcClient client = f.client();
  const JsonValue instance = small_instance();
  const svc::SvcResponse first = client.solve(instance, "appro", 1);
  const svc::SvcResponse second = client.solve(instance, "appro", 1);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.body.at("cached").as_bool());
  EXPECT_TRUE(second.body.at("cached").as_bool());
  // Identical id + identical solve: the *deterministic* parts of the line
  // are byte-identical; only cached and the wall_ keys may differ.
  EXPECT_EQ(first.body.at("result").dump(), second.body.at("result").dump());
  EXPECT_EQ(f.server.stats().solves_executed, 1u);
  EXPECT_EQ(f.server.stats().cache.hits, 1u);
}

TEST(SvcServer, StructuredErrorsCarryCodeAndMessage) {
  ServerFixture f;
  svc::ConnectionPtr conn = f.raw_connection();

  auto roundtrip = [&](const std::string& line) {
    EXPECT_TRUE(conn->write_line(line));
    const auto response = conn->read_line(1 << 20);
    EXPECT_TRUE(response.has_value());
    return util::parse_json(*response);
  };

  JsonValue r = roundtrip("{not json");
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("error").string_at("code"), "parse_error");
  EXPECT_TRUE(r.at("id").is_null());

  r = roundtrip("[1, 2]");
  EXPECT_EQ(r.at("error").string_at("code"), "bad_request");

  r = roundtrip("{\"id\": 9, \"type\": \"warp\"}");
  EXPECT_EQ(r.at("error").string_at("code"), "bad_request");
  EXPECT_EQ(r.at("id").as_number(), 9.0);  // id echoed even on errors

  r = roundtrip(
      "{\"id\": 10, \"type\": \"solve\", \"algorithm\": \"quantum\", "
      "\"instance\": {}}");
  EXPECT_EQ(r.at("error").string_at("code"), "bad_request");

  // A structurally valid request whose instance fails io.cpp's semantic
  // validation also comes back as bad_request, with the io message.
  JsonObject request;
  request["id"] = JsonValue(11);
  request["type"] = JsonValue("solve");
  JsonObject bogus;
  bogus["format_version"] = JsonValue(999);
  request["instance"] = JsonValue(std::move(bogus));
  r = roundtrip(JsonValue(std::move(request)).dump());
  EXPECT_EQ(r.at("error").string_at("code"), "bad_request");
}

TEST(SvcServer, ZeroDeadlineIsDeterministicallyExceeded) {
  ServerFixture f;
  svc::SvcClient client = f.client();
  const svc::SvcResponse r =
      client.solve(small_instance(), "lcf", 1, 0.3, true, /*deadline_ms=*/0.0);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, "deadline_exceeded");
  EXPECT_EQ(f.server.stats().deadline_exceeded, 1u);
  EXPECT_EQ(f.server.stats().solves_executed, 0u);  // rejected pre-solve
}

TEST(SvcServer, PoaRequestReturnsTheoreticalBoundAndRatio) {
  ServerFixture f;
  svc::SvcClient client = f.client();
  JsonObject request;
  request["id"] = JsonValue(1);
  request["type"] = JsonValue("poa");
  request["instance"] = small_instance();
  request["restarts"] = JsonValue(3);
  request["seed"] = JsonValue(5);
  const svc::SvcResponse r = client.call(JsonValue(std::move(request)));
  ASSERT_TRUE(r.ok) << r.raw;
  EXPECT_GT(r.body.at("result").number_at("theoretical_bound"), 0.0);
  EXPECT_GE(r.body.at("result").number_at("empirical_poa"), 0.0);
}

TEST(SvcServer, UnixSocketEndpointRoundTrips) {
  const std::string path = testing::TempDir() + "mecsc_svc_test.sock";
  svc::ServerOptions options;
  options.unix_socket_path = path;
  options.threads = 1;
  svc::SolverServer server(std::move(options));
  server.start();
  EXPECT_EQ(server.endpoint(), "unix:" + path);
  {
    svc::SvcClient client = svc::SvcClient::connect("unix:" + path);
    const svc::SvcResponse r = client.health();
    EXPECT_TRUE(r.ok);
  }
  server.request_shutdown();
  server.wait();
}

// --- Concurrency edges ------------------------------------------------------

// N concurrent identical requests, cold cache: single-flight guarantees the
// solver runs exactly once — every request either leads, coalesces onto the
// leader, or hits the already-published entry. The count is exact, not
// timing-dependent.
TEST(SvcServer, ConcurrentIdenticalRequestsSolveExactlyOnce) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.threads = 4;
  ServerFixture f(std::move(options));
  const JsonValue instance = small_instance();

  constexpr std::size_t kClients = 8;
  std::vector<std::string> results(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      svc::SvcClient client = f.client();
      const svc::SvcResponse r = client.solve(instance, "lcf", c);
      ASSERT_TRUE(r.ok) << r.raw;
      results[c] = r.body.at("result").dump();
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t c = 1; c < kClients; ++c) EXPECT_EQ(results[c], results[0]);
  EXPECT_EQ(f.server.stats().solves_executed, 1u);
}

// With caching disabled per-request there is no coalescing: every request
// runs the solver (and results still agree — the solver is deterministic).
TEST(SvcServer, CacheOptOutSolvesEveryRequest) {
  ServerFixture f;
  svc::SvcClient client = f.client();
  const JsonValue instance = small_instance();
  const svc::SvcResponse a =
      client.solve(instance, "lcf", 1, 0.3, /*cache=*/false);
  const svc::SvcResponse b =
      client.solve(instance, "lcf", 2, 0.3, /*cache=*/false);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.body.at("result").dump(), b.body.at("result").dump());
  EXPECT_EQ(f.server.stats().solves_executed, 2u);
  EXPECT_EQ(f.server.stats().cache.hits, 0u);
}

// Deterministic backpressure: one worker held inside the test hook, queue
// capacity 1. Request A occupies the worker, B the queue slot; C must be
// rejected with a structured "overloaded" line *while the others are still
// pending* — the closed-loop admission contract.
TEST(SvcServer, QueueFullYieldsStructuredOverloadResponse) {
  std::promise<void> hook_entered;
  std::promise<void> release_hook;
  std::shared_future<void> release = release_hook.get_future().share();
  std::atomic<int> hook_calls{0};

  svc::ServerOptions options;
  options.tcp_port = 0;
  options.threads = 1;
  options.queue_capacity = 1;
  options.test_hook_before_request = [&] {
    if (hook_calls.fetch_add(1) == 0) {
      hook_entered.set_value();
      release.wait();
    }
  };
  ServerFixture f(std::move(options));
  svc::ConnectionPtr conn = f.raw_connection();

  ASSERT_TRUE(conn->write_line("{\"id\": 1, \"type\": \"health\"}"));
  hook_entered.get_future().wait();  // A is inside the (held) worker
  ASSERT_TRUE(conn->write_line("{\"id\": 2, \"type\": \"health\"}"));
  // B sits in the queue's only slot. Poll until the session thread has
  // admitted it, then C must bounce.
  while (f.server.stats().queue_depth == 0) std::this_thread::yield();
  ASSERT_TRUE(conn->write_line("{\"id\": 3, \"type\": \"health\"}"));

  // C's rejection arrives while A and B are still pending, so it is the
  // first line on the wire.
  const auto rejection = conn->read_line(1 << 20);
  ASSERT_TRUE(rejection.has_value());
  const JsonValue r = util::parse_json(*rejection);
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("error").string_at("code"), "overloaded");
  EXPECT_TRUE(r.at("id").is_null());  // rejected before parsing

  release_hook.set_value();
  // A then B complete in order on the single worker.
  for (const double expected_id : {1.0, 2.0}) {
    const auto line = conn->read_line(1 << 20);
    ASSERT_TRUE(line.has_value());
    const JsonValue ok = util::parse_json(*line);
    EXPECT_TRUE(ok.at("ok").as_bool());
    EXPECT_EQ(ok.at("id").as_number(), expected_id);
  }
  EXPECT_EQ(f.server.stats().overloaded, 1u);
}

// Graceful drain with requests in flight: a held worker plus a queued
// request; request_shutdown() must let both finish and answer before the
// pool exits (no dropped work, no deadlock — TSan-verified in CI).
TEST(SvcServer, ShutdownDrainsInFlightRequests) {
  std::promise<void> hook_entered;
  std::promise<void> release_hook;
  std::shared_future<void> release = release_hook.get_future().share();
  std::atomic<int> hook_calls{0};

  svc::ServerOptions options;
  options.tcp_port = 0;
  options.threads = 1;
  options.queue_capacity = 4;
  options.test_hook_before_request = [&] {
    if (hook_calls.fetch_add(1) == 0) {
      hook_entered.set_value();
      release.wait();
    }
  };
  svc::SolverServer server(std::move(options));
  server.start();
  svc::ConnectionPtr conn =
      svc::connect_tcp("127.0.0.1", server.port());

  ASSERT_TRUE(conn->write_line("{\"id\": 1, \"type\": \"health\"}"));
  hook_entered.get_future().wait();
  ASSERT_TRUE(conn->write_line("{\"id\": 2, \"type\": \"health\"}"));
  while (server.stats().queue_depth == 0) std::this_thread::yield();

  server.request_shutdown();
  EXPECT_TRUE(server.draining());
  release_hook.set_value();
  server.wait();  // joins everything; both responses are on the wire

  for (const double expected_id : {1.0, 2.0}) {
    const auto line = conn->read_line(1 << 20);
    ASSERT_TRUE(line.has_value()) << "response dropped during drain";
    const JsonValue ok = util::parse_json(*line);
    EXPECT_TRUE(ok.at("ok").as_bool());
    EXPECT_EQ(ok.at("id").as_number(), expected_id);
  }
  // Connection now reports EOF: the server is fully gone.
  EXPECT_EQ(conn->read_line(1 << 20), std::nullopt);
}

// --- Telemetry plane --------------------------------------------------------

TEST(SvcServer, MetricsRequestReturnsTelemetrySnapshot) {
  // One FIFO worker: the event for a response the client has seen is
  // recorded before the worker pops the next (metrics) job, so the counts
  // below are exact, not racing the post-write record.
  svc::ServerOptions options = ServerFixture::make_default();
  options.threads = 1;
  ServerFixture f(std::move(options));
  svc::SvcClient client = f.client();
  const JsonValue instance = small_instance();
  ASSERT_TRUE(client.solve(instance, "lcf", 1).ok);
  ASSERT_TRUE(client.solve(instance, "lcf", 2).ok);  // cache hit

  const svc::SvcResponse r = client.metrics();
  ASSERT_TRUE(r.ok) << r.raw;
  ASSERT_TRUE(r.body.contains("telemetry"));
  const JsonValue& telemetry = r.body.at("telemetry");
  const JsonValue& solve = telemetry.at("red").at("solve");
  EXPECT_EQ(solve.number_at("requests"), 2.0);
  EXPECT_EQ(solve.number_at("errors"), 0.0);
  EXPECT_EQ(solve.at("wall_latency_ms").number_at("count"), 2.0);
  EXPECT_EQ(telemetry.at("cache").number_at("hits"), 1.0);
  EXPECT_EQ(telemetry.at("cache").number_at("misses"), 1.0);
  EXPECT_EQ(telemetry.at("gauges").number_at("workers"), 1.0);
  EXPECT_TRUE(telemetry.at("wall_gauges").contains("queue_depth"));
}

TEST(SvcServer, RequestIdIsEchoedOrGenerated) {
  ServerFixture f;
  svc::SvcClient client = f.client();
  const JsonValue instance = small_instance();
  // Client-supplied id comes back verbatim on the ok envelope.
  const svc::SvcResponse echoed =
      client.solve(instance, "lcf", 1, 0.3, true, -1.0, "my-req-7");
  ASSERT_TRUE(echoed.ok);
  EXPECT_EQ(echoed.request_id, "my-req-7");
  // No id supplied: the server mints "s-<n>".
  const svc::SvcResponse minted = client.solve(instance, "lcf", 2);
  ASSERT_TRUE(minted.ok);
  EXPECT_EQ(minted.request_id.rfind("s-", 0), 0u) << minted.request_id;
  // Errors echo it too (the parse succeeded, so the id is known).
  const svc::SvcResponse err = client.solve(
      instance, "lcf", 3, 0.3, true, /*deadline_ms=*/0.0, "my-req-8");
  ASSERT_FALSE(err.ok);
  EXPECT_EQ(err.request_id, "my-req-8");
}

TEST(SvcServer, RequestLogRecordsWideEvents) {
  const std::string path = testing::TempDir() + "mecsc_svc_reqlog.jsonl";
  svc::ServerOptions options = ServerFixture::make_default();
  options.request_log_path = path;
  svc::SolverServer server(std::move(options));
  server.start();
  {
    svc::SvcClient client = svc::SvcClient::connect(
        "tcp:127.0.0.1:" + std::to_string(server.port()));
    const svc::SvcResponse r =
        client.solve(small_instance(), "lcf", 1, 0.3, true, -1.0, "wide-1");
    ASSERT_TRUE(r.ok);
  }
  server.request_shutdown();
  server.wait();  // close() drains the log before wait() returns

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    const JsonValue doc = util::parse_json(line);
    EXPECT_EQ(doc.string_at("event"), "request");
    if (doc.string_at("request_id") != "wide-1") continue;
    found = true;
    EXPECT_EQ(doc.string_at("type"), "solve");
    EXPECT_EQ(doc.string_at("algorithm"), "lcf");
    EXPECT_EQ(doc.string_at("cache"), "miss");
    EXPECT_FALSE(doc.string_at("digest").empty());
    EXPECT_TRUE(doc.contains("wall_solve_ms"));
    EXPECT_TRUE(doc.contains("wall_total_ms"));
    EXPECT_GE(doc.number_at("wall_total_ms"),
              doc.number_at("wall_solve_ms"));
  }
  EXPECT_TRUE(found);
}

TEST(SvcServer, OverloadRejectionCarriesRetryAfterHint) {
  std::promise<void> hook_entered;
  std::promise<void> release_hook;
  std::shared_future<void> release = release_hook.get_future().share();
  std::atomic<int> hook_calls{0};

  svc::ServerOptions options;
  options.tcp_port = 0;
  options.threads = 1;
  options.queue_capacity = 1;
  options.test_hook_before_request = [&] {
    if (hook_calls.fetch_add(1) == 0) {
      hook_entered.set_value();
      release.wait();
    }
  };
  ServerFixture f(std::move(options));
  svc::ConnectionPtr conn = f.raw_connection();

  ASSERT_TRUE(conn->write_line("{\"id\": 1, \"type\": \"health\"}"));
  hook_entered.get_future().wait();
  ASSERT_TRUE(conn->write_line("{\"id\": 2, \"type\": \"health\"}"));
  while (f.server.stats().queue_depth == 0) std::this_thread::yield();
  ASSERT_TRUE(conn->write_line("{\"id\": 3, \"type\": \"health\"}"));

  const auto rejection = conn->read_line(1 << 20);
  ASSERT_TRUE(rejection.has_value());
  const JsonValue r = util::parse_json(*rejection);
  EXPECT_EQ(r.at("error").string_at("code"), "overloaded");
  // The hint is present, positive, and inside the documented clamp.
  ASSERT_TRUE(r.at("error").contains("wall_retry_after_ms"));
  const double hint = r.at("error").number_at("wall_retry_after_ms");
  EXPECT_GE(hint, 1.0);
  EXPECT_LE(hint, 10000.0);
  // Rejected-before-parse lines still get a server-minted request_id.
  EXPECT_EQ(r.string_at("request_id").rfind("s-", 0), 0u);

  release_hook.set_value();
  for (int i = 0; i < 2; ++i) {
    const auto line = conn->read_line(1 << 20);
    ASSERT_TRUE(line.has_value());
  }
}

/// Minimal HTTP/1.0 GET against the admin listener; returns the full
/// response (status line + headers + body).
std::string admin_get(int port, const std::string& request_line) {
  svc::ConnectionPtr conn = svc::connect_tcp("127.0.0.1", port);
  EXPECT_TRUE(conn->write_all(request_line + "\r\n\r\n"));
  std::string response;
  // The admin server answers one request and closes: read to EOF.
  while (const auto line = conn->read_line(1 << 20)) {
    response += *line;
    response += "\n";
  }
  return response;
}

TEST(SvcServer, AdminEndpointServesPrometheusAndJson) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.threads = 1;
  options.admin_port = 0;  // ephemeral
  ServerFixture f(std::move(options));
  ASSERT_GE(f.server.admin_port(), 0);
  svc::SvcClient client = f.client();
  ASSERT_TRUE(client.solve(small_instance(), "lcf", 1).ok);
  // FIFO barrier: once this metrics round trip returns, the solve's event
  // is recorded and the admin snapshots below see it.
  ASSERT_TRUE(client.metrics().ok);

  const std::string metrics =
      admin_get(f.server.admin_port(), "GET /metrics HTTP/1.0");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("mecsc_requests_total{type=\"solve\"} 1"),
            std::string::npos);

  const std::string stats =
      admin_get(f.server.admin_port(), "GET /stats HTTP/1.0");
  EXPECT_EQ(stats.rfind("HTTP/1.0 200 OK", 0), 0u);
  const std::size_t body_start = stats.find("\n{");
  ASSERT_NE(body_start, std::string::npos) << stats;
  const JsonValue doc = util::parse_json(stats.substr(body_start + 1));
  EXPECT_EQ(doc.at("red").at("solve").number_at("requests"), 1.0);

  EXPECT_EQ(admin_get(f.server.admin_port(), "GET /nope HTTP/1.0")
                .rfind("HTTP/1.0 404", 0),
            0u);
  EXPECT_EQ(admin_get(f.server.admin_port(), "POST /metrics HTTP/1.0")
                .rfind("HTTP/1.0 405", 0),
            0u);
}

// Scrape-under-load: solves, NDJSON metrics requests, and admin HTTP
// scrapes all running concurrently. TSan (ctest -L concurrency) proves the
// sharded record path, the snapshot merge, and the admin thread share no
// unsynchronized state; the final snapshot must account for every solve.
TEST(SvcServer, ConcurrentScrapesUnderLoadStayConsistent) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.threads = 4;
  options.admin_port = 0;
  ServerFixture f(std::move(options));
  const JsonValue instance = small_instance();
  constexpr std::size_t kSolvers = 4;
  constexpr int kPerSolver = 10;

  std::atomic<bool> done{false};
  std::thread ndjson_scraper([&] {
    svc::SvcClient client = f.client();
    while (!done.load()) {
      const svc::SvcResponse r = client.metrics();
      ASSERT_TRUE(r.ok);
      ASSERT_TRUE(r.body.contains("telemetry"));
    }
  });
  std::thread http_scraper([&] {
    while (!done.load()) {
      const std::string text =
          admin_get(f.server.admin_port(), "GET /metrics HTTP/1.0");
      ASSERT_EQ(text.rfind("HTTP/1.0 200 OK", 0), 0u);
    }
  });
  std::vector<std::thread> solvers;
  for (std::size_t c = 0; c < kSolvers; ++c) {
    solvers.emplace_back([&, c] {
      svc::SvcClient client = f.client();
      for (int i = 0; i < kPerSolver; ++i) {
        const svc::SvcResponse r =
            client.solve(instance, "lcf", c * 1000 + i, 0.3,
                         /*cache=*/(i % 2 == 0));
        ASSERT_TRUE(r.ok) << r.raw;
      }
    });
  }
  for (std::thread& t : solvers) t.join();
  done.store(true);
  ndjson_scraper.join();
  http_scraper.join();

  // Events are recorded just after each response hits the wire, so the
  // last few may still be landing: poll until the totals converge.
  svc::SvcClient client = f.client();
  constexpr double kExpected =
      static_cast<double>(kSolvers) * static_cast<double>(kPerSolver);
  double requests = 0.0;
  double errors = -1.0;
  for (int spin = 0; spin < 100000 && requests < kExpected; ++spin) {
    const svc::SvcResponse r = client.metrics();
    ASSERT_TRUE(r.ok);
    const JsonValue& solve = r.body.at("telemetry").at("red").at("solve");
    requests = solve.number_at("requests");
    errors = solve.number_at("errors");
    std::this_thread::yield();
  }
  EXPECT_EQ(requests, kExpected);
  EXPECT_EQ(errors, 0.0);
}

// --- Causal tracing through the server (obs/tracing.h) ----------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

/// Collects every span name in a trace summary's tree.
void collect_span_names(const JsonValue& span, std::vector<std::string>* out) {
  out->push_back(span.string_at("name"));
  if (!span.contains("children")) return;
  for (const JsonValue& child : span.at("children").as_array())
    collect_span_names(child, out);
}

TEST(SvcServer, TraceparentPropagatesWireToSolverSpans) {
  const std::string trace_path = testing::TempDir() + "mecsc_svc_trace.json";
  const obs::TraceContext client_ctx =
      obs::TraceContext::derive("svc-trace-test", true);
  {
    svc::ServerOptions options = ServerFixture::make_default();
    options.threads = 1;
    options.trace_out = trace_path;
    options.trace_sample_rate = 0.0;  // the 01 flag alone must keep it
    ServerFixture f(std::move(options));
    svc::SvcClient client = f.client();
    const svc::SvcResponse r =
        client.solve(small_instance(), "lcf", 1, 0.3, true, -1.0, "tp-1",
                     client_ctx.to_traceparent());
    ASSERT_TRUE(r.ok) << r.raw;
  }  // drain closes the trace writer

  const JsonValue doc = util::parse_json(read_file(trace_path));
  ASSERT_GE(doc.number_at("kept_traces"), 1.0);
  const util::JsonArray& summaries = doc.at("traces").as_array();
  const JsonValue* ours = nullptr;
  for (const JsonValue& s : summaries) {
    if (s.string_at("request_id") == "tp-1") ours = &s;
  }
  ASSERT_NE(ours, nullptr);
  // The server continued the client's trace and parented its root span on
  // the client's span.
  EXPECT_EQ(ours->string_at("trace_id"), client_ctx.trace_id);
  EXPECT_EQ(ours->string_at("parent_span_id"), client_ctx.span_id);
  EXPECT_EQ(ours->string_at("keep_reason"), "sampled");
  // One tree from the wire down into the solver internals.
  std::vector<std::string> names;
  collect_span_names(ours->at("root"), &names);
  for (const char* expected :
       {"svc.request", "svc.queue", "svc.parse", "svc.solve", "solver.run",
        "lcf", "svc.respond"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing span " << expected;
  }
  // Timeline events reference only span ids that exist in this trace.
  std::set<std::string> ids;
  for (const JsonValue& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("args").string_at("trace_id") == client_ctx.trace_id)
      ids.insert(ev.at("args").string_at("span_id"));
  }
  for (const JsonValue& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("args").string_at("trace_id") != client_ctx.trace_id) continue;
    const std::string parent = ev.at("args").string_at("parent_span_id");
    if (parent == client_ctx.span_id) continue;  // the root's upstream edge
    EXPECT_TRUE(ids.count(parent)) << "dangling parent " << parent;
  }
}

TEST(SvcServer, ErrorRequestsAreTailKeptAtSampleRateZero) {
  const std::string trace_path = testing::TempDir() + "mecsc_svc_errtrace.json";
  {
    svc::ServerOptions options = ServerFixture::make_default();
    options.threads = 1;
    options.trace_out = trace_path;
    options.trace_sample_rate = 0.0;
    ServerFixture f(std::move(options));
    svc::SvcClient client = f.client();
    // A successful solve at rate 0 must NOT be kept...
    ASSERT_TRUE(client.solve(small_instance(), "lcf", 1).ok);
    // ...but an error response must be, regardless of sampling.
    JsonObject bad;
    bad["id"] = JsonValue(static_cast<std::uint64_t>(2));
    bad["type"] = JsonValue("solve");
    bad["algorithm"] = JsonValue("no-such-algorithm");
    bad["instance"] = small_instance();
    bad["request_id"] = JsonValue("err-1");
    const svc::SvcResponse r = client.call(JsonValue(std::move(bad)));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "bad_request");
  }
  const JsonValue doc = util::parse_json(read_file(trace_path));
  const util::JsonArray& summaries = doc.at("traces").as_array();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].string_at("request_id"), "err-1");
  EXPECT_EQ(summaries[0].string_at("keep_reason"), "error");
}

TEST(SvcServer, SlowRequestsAreTailKeptAtSampleRateZero) {
  const std::string trace_path =
      testing::TempDir() + "mecsc_svc_slowtrace.json";
  {
    svc::ServerOptions options = ServerFixture::make_default();
    options.threads = 1;
    options.trace_out = trace_path;
    options.trace_sample_rate = 0.0;
    options.slow_request_ms = 0.0;  // every request is "slow"
    ServerFixture f(std::move(options));
    svc::SvcClient client = f.client();
    ASSERT_TRUE(
        client.solve(small_instance(), "lcf", 1, 0.3, true, -1.0, "slow-1")
            .ok);
  }
  const JsonValue doc = util::parse_json(read_file(trace_path));
  const util::JsonArray& summaries = doc.at("traces").as_array();
  ASSERT_GE(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].string_at("request_id"), "slow-1");
  EXPECT_EQ(summaries[0].string_at("keep_reason"), "slow");
}

// The client chooses the "type" string, so RED state must not grow with
// it: every unserved type shares the "unknown" key, while the error
// message still quotes what the client sent.
TEST(SvcServer, UnknownTypesShareOneRedKey) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.threads = 1;  // FIFO: every event is recorded before "metrics"
  ServerFixture f(std::move(options));
  svc::SvcClient client = f.client();
  constexpr int kTypes = 50;
  for (int i = 0; i < kTypes; ++i) {
    const std::string type = "no-such-type-" + std::to_string(i);
    JsonObject request;
    request["type"] = JsonValue(type);
    const svc::SvcResponse r = client.call(JsonValue(std::move(request)));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, "bad_request");
    EXPECT_NE(r.error_message.find(type), std::string::npos)
        << r.error_message;
  }
  const svc::SvcResponse m = client.metrics();
  ASSERT_TRUE(m.ok);
  const JsonValue& red = m.body.at("telemetry").at("red");
  EXPECT_EQ(red.as_object().size(), 1u) << red.dump();
  EXPECT_EQ(red.at("unknown").number_at("requests"),
            static_cast<double>(kTypes));
}

TEST(SvcServer, DebugFlightEndpointServesTheRing) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.threads = 1;
  options.admin_port = 0;
  options.flight_recorder_capacity = 4;
  ServerFixture f(std::move(options));
  svc::SvcClient client = f.client();
  ASSERT_TRUE(
      client.solve(small_instance(), "lcf", 1, 0.3, true, -1.0, "fl-1").ok);
  // FIFO barrier: the flight entry lands before this response returns.
  ASSERT_TRUE(client.metrics().ok);

  const std::string response =
      admin_get(f.server.admin_port(), "GET /debug/flight HTTP/1.0");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::size_t body_start = response.find("\n{");
  ASSERT_NE(body_start, std::string::npos) << response;
  const JsonValue doc = util::parse_json(response.substr(body_start + 1));
  EXPECT_EQ(doc.number_at("capacity"), 4.0);
  const util::JsonArray& entries = doc.at("entries").as_array();
  ASSERT_GE(entries.size(), 1u);
  bool found = false;
  for (const JsonValue& entry : entries) {
    if (entry.at("event").string_at("request_id") != "fl-1") continue;
    found = true;
    // Tracing ran (the flight ring is always on), so the entry carries the
    // span tree even with no trace writer configured.
    ASSERT_TRUE(entry.contains("trace"));
    EXPECT_EQ(entry.at("trace").at("root").string_at("name"), "svc.request");
  }
  EXPECT_TRUE(found);
}

// --- Admin HTTP robustness --------------------------------------------------

TEST(SvcAdmin, ByteAtATimeRequestIsServed) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.admin_port = 0;
  ServerFixture f(std::move(options));
  svc::ConnectionPtr conn =
      svc::connect_tcp("127.0.0.1", f.server.admin_port());
  const std::string request = "GET /stats HTTP/1.0\r\n\r\n";
  for (const char c : request)
    ASSERT_TRUE(conn->write_all(std::string(1, c)));
  std::string response;
  while (const auto line = conn->read_line(1 << 20)) {
    response += *line;
    response += "\n";
  }
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
}

TEST(SvcAdmin, OversizedRequestLineGets400) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.admin_port = 0;
  ServerFixture f(std::move(options));
  svc::ConnectionPtr conn =
      svc::connect_tcp("127.0.0.1", f.server.admin_port());
  ASSERT_TRUE(conn->write_all(std::string(10000, 'A')));
  std::string response;
  while (const auto line = conn->read_line(1 << 20)) {
    response += *line;
    response += "\n";
  }
  EXPECT_EQ(response.rfind("HTTP/1.0 400 Bad Request", 0), 0u) << response;
}

// Flight-recorder scrapes racing live solves: TSan (ctest -L concurrency)
// proves the ring's lock discipline against the worker epilogues, and
// every dump must be complete, parseable JSON.
TEST(SvcServer, ConcurrentFlightScrapesDuringSolvesStayParseable) {
  svc::ServerOptions options = ServerFixture::make_default();
  options.threads = 4;
  options.admin_port = 0;
  options.flight_recorder_capacity = 8;
  ServerFixture f(std::move(options));
  const JsonValue instance = small_instance();

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string response =
          admin_get(f.server.admin_port(), "GET /debug/flight HTTP/1.0");
      ASSERT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
      const std::size_t body_start = response.find("\n{");
      ASSERT_NE(body_start, std::string::npos);
      const JsonValue doc = util::parse_json(response.substr(body_start + 1));
      ASSERT_LE(doc.at("entries").as_array().size(), 8u);
    }
  });
  std::vector<std::thread> solvers;
  for (int c = 0; c < 3; ++c) {
    solvers.emplace_back([&, c] {
      svc::SvcClient client = f.client();
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(client
                        .solve(instance, "lcf", c * 100 + i, 0.3,
                               /*cache=*/(i % 2 == 0))
                        .ok);
      }
    });
  }
  for (std::thread& t : solvers) t.join();
  done.store(true);
  scraper.join();
  // The worker epilogue records the flight entry *after* writing the
  // response (the client must not wait on bookkeeping), so the last
  // solve's record can trail the join by a beat — poll briefly.
  double recorded = 0.0;
  for (int i = 0; i < 200; ++i) {
    recorded = f.server.flight_json().number_at("recorded_total");
    if (recorded >= 24.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(recorded, 24.0);
}

// --- Client reconnect -------------------------------------------------------

// The reconnect path the router's backend pools and long-lived loadgen
// connections depend on: a server restart mid-stream (ECONNRESET/EPIPE
// territory) is absorbed by SvcClient::call — reconnect with backoff,
// retransmit, same response contract. Unix socket so the endpoint
// survives the restart verbatim (an ephemeral TCP port would move).
TEST(SvcClientReconnect, SurvivesServerRestartMidStream) {
  const std::string sock = testing::TempDir() + "svc_reconnect.sock";
  auto make_server = [&] {
    svc::ServerOptions options;
    options.unix_socket_path = sock;
    options.threads = 2;
    auto server = std::make_unique<svc::SolverServer>(std::move(options));
    server->start();
    return server;
  };
  auto server = make_server();
  svc::SvcClient client = svc::SvcClient::connect("unix:" + sock);
  const JsonValue instance = small_instance();
  ASSERT_TRUE(client.solve(instance, "lcf", 1).ok);
  EXPECT_EQ(client.reconnects(), 0u);

  // Kill the server under the live connection, then bring a fresh one up
  // on the same path (listen_unix unlinks the stale socket file). The old
  // server must be *destroyed* before the new one binds — its listener
  // unlinks the socket path on destruction, which would otherwise delete
  // the replacement's freshly bound file.
  server->request_shutdown();
  server->wait();
  server.reset();
  server = make_server();

  const svc::SvcResponse r = client.solve(instance, "lcf", 2);
  ASSERT_TRUE(r.ok) << r.error_code << ": " << r.error_message;
  EXPECT_GE(client.reconnects(), 1u);
  // The restarted server is a cold process: its cache never saw id 1's
  // solve, so this was a genuine re-execution, not a stale byte replay.
  EXPECT_FALSE(r.body.at("cached").as_bool());

  server->request_shutdown();
  server->wait();
}

TEST(SvcClientReconnect, ZeroAttemptsKeepsTheHardErrorContract) {
  const std::string sock = testing::TempDir() + "svc_noreconnect.sock";
  svc::ServerOptions options;
  options.unix_socket_path = sock;
  options.threads = 1;
  auto server = std::make_unique<svc::SolverServer>(std::move(options));
  server->start();
  svc::ReconnectOptions reconnect;
  reconnect.attempts = 0;
  svc::SvcClient client = svc::SvcClient::connect("unix:" + sock, reconnect);
  ASSERT_TRUE(client.health().ok);
  server->request_shutdown();
  server->wait();
  server.reset();
  EXPECT_THROW(client.health(), std::runtime_error);
}

TEST(SvcClientReconnect, ExhaustedRetriesThrowWhenNothingListens) {
  const std::string sock = testing::TempDir() + "svc_gone.sock";
  auto server = [&] {
    svc::ServerOptions options;
    options.unix_socket_path = sock;
    options.threads = 1;
    auto s = std::make_unique<svc::SolverServer>(std::move(options));
    s->start();
    return s;
  }();
  svc::ReconnectOptions reconnect;
  reconnect.attempts = 2;
  reconnect.backoff_initial_ms = 1.0;  // keep the test fast
  reconnect.backoff_max_ms = 2.0;
  svc::SvcClient client = svc::SvcClient::connect("unix:" + sock, reconnect);
  ASSERT_TRUE(client.health().ok);
  server->request_shutdown();
  server->wait();
  server.reset();
  EXPECT_THROW(client.health(), std::runtime_error);
}

// A shutdown *request* acknowledges on the wire before draining.
TEST(SvcServer, ShutdownRequestAcknowledgesThenDrains) {
  svc::ServerOptions options = ServerFixture::make_default();
  svc::SolverServer server(std::move(options));
  server.start();
  {
    svc::SvcClient client = svc::SvcClient::connect(
        "tcp:127.0.0.1:" + std::to_string(server.port()));
    const svc::SvcResponse r = client.shutdown();
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.body.at("draining").as_bool());
  }
  server.wait();  // the request triggered the drain; wait() must return
  EXPECT_TRUE(server.draining());
}

}  // namespace
