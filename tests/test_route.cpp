// Routing-tier tests: digest affinity over real backends, health
// aggregation, drain + spillover, router-answered request types, and
// cross-process trace parenting. Suite names start with "Route" so the
// TSan job's concurrency filter picks them up — every test here runs a
// router and several solver servers worth of threads.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/io.h"
#include "obs/run_info.h"
#include "obs/tracing.h"
#include "route/router.h"
#include "route/shard_map.h"
#include "svc/client.h"
#include "svc/server.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace mecsc;
using util::JsonObject;
using util::JsonValue;

util::JsonValue route_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  core::InstanceParams params;
  params.network_size = 20;
  params.provider_count = 10;
  return core::instance_to_json(core::generate_instance(params, rng));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// N solver backends plus one router in front, torn down router-first so
/// in-flight forwards never race a dying backend.
struct RouterFixture {
  std::vector<std::unique_ptr<svc::SolverServer>> backends;
  std::unique_ptr<route::Router> router;

  explicit RouterFixture(std::size_t backend_count,
                         route::RouterOptions options = {},
                         svc::ServerOptions backend_options = {}) {
    for (std::size_t i = 0; i < backend_count; ++i) {
      svc::ServerOptions server_options = backend_options;
      server_options.tcp_port = 0;
      if (server_options.threads == 0) server_options.threads = 2;
      backends.push_back(
          std::make_unique<svc::SolverServer>(std::move(server_options)));
      backends.back()->start();
      route::BackendSpec spec;
      spec.name = "b" + std::to_string(i + 1);
      spec.endpoint =
          "tcp:127.0.0.1:" + std::to_string(backends.back()->port());
      options.backends.push_back(std::move(spec));
    }
    options.tcp_port = 0;
    router = std::make_unique<route::Router>(std::move(options));
    router->start();
  }

  ~RouterFixture() {
    if (router) {
      router->request_shutdown();
      router->wait();
    }
    for (auto& backend : backends) {
      backend->request_shutdown();
      backend->wait();
    }
  }

  svc::SvcClient client() {
    return svc::SvcClient::connect("tcp:127.0.0.1:" +
                                   std::to_string(router->port()));
  }
};

route::RouterOptions no_probe_options() {
  route::RouterOptions options;
  options.health_interval_ms = 0.0;  // deterministic: no probe traffic
  return options;
}

// --- Routing ---------------------------------------------------------------

TEST(RouteAffinity, RepeatDigestsLandOnTheSameBackend) {
  RouterFixture f(3, no_probe_options());
  svc::SvcClient client = f.client();

  // First pass pins each instance's backend; the repeat passes (and a
  // second connection) must agree — that is the cache-affinity contract.
  std::map<std::uint64_t, std::string> first_seen;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const svc::SvcResponse r =
          client.solve(route_instance(seed), "lcf", seed);
      ASSERT_TRUE(r.ok) << r.error_code << ": " << r.error_message;
      ASSERT_TRUE(r.body.contains("route_backend"));
      const std::string backend = r.body.at("route_backend").as_string();
      if (pass == 0) {
        first_seen[seed] = backend;
        EXPECT_FALSE(r.body.contains("route_spilled"));
      } else {
        EXPECT_EQ(first_seen[seed], backend) << "seed " << seed;
      }
    }
  }
  svc::SvcClient other = f.client();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const svc::SvcResponse r = other.solve(route_instance(seed), "lcf", seed);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(first_seen[seed], r.body.at("route_backend").as_string());
  }
  // 6 digests over 3 backends: overwhelmingly likely to touch >= 2, and
  // the router's own counters must agree with what clients observed.
  std::set<std::string> used;
  for (const auto& [seed, backend] : first_seen) used.insert(backend);
  EXPECT_GE(used.size(), 2u);
  const route::RouterStats stats = f.router->stats();
  EXPECT_EQ(stats.forwarded, 24u);
  EXPECT_EQ(stats.spilled, 0u);
  EXPECT_EQ(stats.backend_failures, 0u);
}

TEST(RouteAffinity, AffinityWarmsTheOwnersCache) {
  RouterFixture f(2, no_probe_options());
  svc::SvcClient client = f.client();
  const util::JsonValue instance = route_instance(42);
  const svc::SvcResponse first = client.solve(instance, "lcf", 1);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.body.at("cached").as_bool());
  const svc::SvcResponse second = client.solve(instance, "lcf", 2);
  ASSERT_TRUE(second.ok);
  // Same digest -> same backend -> its single-flight cache answers.
  EXPECT_TRUE(second.body.at("cached").as_bool());
  EXPECT_EQ(first.body.at("route_backend").as_string(),
            second.body.at("route_backend").as_string());
}

TEST(RouteAffinity, RequestIdsAreMintedByTheRouterWhenAbsent) {
  RouterFixture f(2, no_probe_options());
  svc::SvcClient client = f.client();
  const svc::SvcResponse r = client.solve(route_instance(1), "lcf", 9);
  ASSERT_TRUE(r.ok);
  // The router splices "r-<n>" in before forwarding, so the backend never
  // mints its own "s-<n>" for routed traffic (determinism contract).
  EXPECT_EQ(r.request_id.rfind("r-", 0), 0u) << r.request_id;

  const svc::SvcResponse tagged =
      client.solve(route_instance(1), "lcf", 10, 0.3, true, -1.0, "mine-1");
  ASSERT_TRUE(tagged.ok);
  EXPECT_EQ(tagged.request_id, "mine-1");  // client ids pass through
}

// A wrongly typed request field is reported as `field "<name>" must be a
// <type>` by both daemons: the router rejects type and request_id itself,
// and relays the backend's rejection of algorithm. Either way a client
// sees the same error object as from the backend directly.
TEST(RouteErrors, WronglyTypedFieldsGetTheBackendsErrorObject) {
  RouterFixture f(1, no_probe_options());
  svc::SvcClient routed = f.client();
  svc::SvcClient direct = svc::SvcClient::connect(
      "tcp:127.0.0.1:" + std::to_string(f.backends[0]->port()));
  const std::pair<JsonValue, std::string> cases[] = {
      {JsonValue(JsonObject{{"id", JsonValue(1)}, {"type", JsonValue(5)}}),
       "type"},
      {JsonValue(JsonObject{{"id", JsonValue(2)},
                            {"type", JsonValue("solve")},
                            {"algorithm", JsonValue(7)},
                            {"instance", route_instance(1)}}),
       "algorithm"},
      {JsonValue(JsonObject{{"id", JsonValue(3)},
                            {"type", JsonValue("health")},
                            {"request_id", JsonValue(9)}}),
       "request_id"},
  };
  for (const auto& [request, field] : cases) {
    const svc::SvcResponse from_backend = direct.call(request);
    const svc::SvcResponse from_router = routed.call(request);
    ASSERT_FALSE(from_backend.ok) << from_backend.raw;
    ASSERT_FALSE(from_router.ok) << from_router.raw;
    EXPECT_EQ(from_backend.error_code, "bad_request") << from_backend.raw;
    EXPECT_EQ(from_backend.error_message,
              "field \"" + field + "\" must be a string")
        << from_backend.raw;
    EXPECT_EQ(from_router.body.at("error"), from_backend.body.at("error"))
        << "router: " << from_router.raw
        << "\nbackend: " << from_backend.raw;
  }
}

// --- Router-answered request types -----------------------------------------

TEST(RouteHealth, AggregatesBackendsAndProbeData) {
  route::RouterOptions options;
  options.health_interval_ms = 20.0;
  RouterFixture f(2, std::move(options));
  svc::SvcClient client = f.client();

  const svc::SvcResponse first = client.health();
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.body.string_at("role"), "router");
  ASSERT_EQ(first.body.at("backends").as_array().size(), 2u);

  // Wait (bounded) for a probe sweep to land load data on every backend.
  bool all_probed = false;
  for (int i = 0; i < 200 && !all_probed; ++i) {
    const svc::SvcResponse h = client.health();
    ASSERT_TRUE(h.ok);
    all_probed = true;
    for (const JsonValue& b : h.body.at("backends").as_array()) {
      EXPECT_TRUE(b.at("healthy").as_bool());
      EXPECT_FALSE(b.at("draining").as_bool());
      if (!b.contains("queue_capacity")) all_probed = false;
    }
    if (!all_probed)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(all_probed) << "probe data never arrived";
  const svc::SvcResponse h = client.health();
  for (const JsonValue& b : h.body.at("backends").as_array()) {
    EXPECT_GT(b.number_at("queue_capacity"), 0.0);
    EXPECT_GT(b.number_at("workers"), 0.0);
    EXPECT_TRUE(b.contains("wall_queue_depth"));
    EXPECT_TRUE(b.contains("wall_inflight"));
    EXPECT_TRUE(b.contains("wall_service_time_ms"));
  }
}

TEST(RouteMetrics, CarriesRouterTelemetryAndPerBackendCounters) {
  RouterFixture f(2, no_probe_options());
  svc::SvcClient client = f.client();
  ASSERT_TRUE(client.solve(route_instance(3), "lcf", 1).ok);
  const svc::SvcResponse m = client.metrics();
  ASSERT_TRUE(m.ok);
  const JsonValue& telemetry = m.body.at("telemetry");
  ASSERT_TRUE(telemetry.contains("route"));
  const JsonValue& route = telemetry.at("route");
  EXPECT_EQ(route.number_at("forwarded"), 1.0);
  ASSERT_EQ(route.at("backends").as_array().size(), 2u);
  // Router RED telemetry sees the routed request under its type.
  EXPECT_TRUE(telemetry.at("red").contains("solve"));
}

// --- Drain + spillover ------------------------------------------------------

TEST(RouteDrain, DrainedBackendSpillsItsKeysAndKeepsServing) {
  RouterFixture f(3, no_probe_options());
  svc::SvcClient client = f.client();

  // Pin each seed's owner, then drain the backend owning seed 1.
  const svc::SvcResponse before = client.solve(route_instance(1), "lcf", 1);
  ASSERT_TRUE(before.ok);
  const std::string owner = before.body.at("route_backend").as_string();

  JsonObject drain;
  drain["type"] = JsonValue("drain_backend");
  drain["id"] = JsonValue(std::uint64_t{100});
  drain["backend"] = JsonValue(owner);
  const svc::SvcResponse drained = client.call(JsonValue(std::move(drain)));
  ASSERT_TRUE(drained.ok) << drained.error_message;
  EXPECT_EQ(drained.body.string_at("draining_backend"), owner);
  EXPECT_EQ(drained.body.number_at("active_backends"), 2.0);

  // The same digest now lands elsewhere, flagged as spilled, still ok.
  const svc::SvcResponse after = client.solve(route_instance(1), "lcf", 2);
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.body.at("route_backend").as_string(), owner);
  ASSERT_TRUE(after.body.contains("route_spilled"));
  EXPECT_TRUE(after.body.at("route_spilled").as_bool());
  EXPECT_GE(f.router->stats().spilled, 1u);

  // Health marks the drained backend; the other two still accept keys.
  const svc::SvcResponse h = client.health();
  ASSERT_TRUE(h.ok);
  for (const JsonValue& b : h.body.at("backends").as_array())
    EXPECT_EQ(b.at("draining").as_bool(), b.string_at("name") == owner);
}

TEST(RouteDrain, RefusesUnknownAndLastBackend) {
  RouterFixture f(2, no_probe_options());
  svc::SvcClient client = f.client();

  JsonObject unknown;
  unknown["type"] = JsonValue("drain_backend");
  unknown["id"] = JsonValue(std::uint64_t{1});
  unknown["backend"] = JsonValue("nope");
  const svc::SvcResponse bad = client.call(JsonValue(std::move(unknown)));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_code, "bad_request");

  JsonObject first;
  first["type"] = JsonValue("drain_backend");
  first["id"] = JsonValue(std::uint64_t{2});
  first["backend"] = JsonValue("b1");
  ASSERT_TRUE(client.call(JsonValue(std::move(first))).ok);

  // b2 is the last backend accepting keys: draining it must fail, and
  // routed traffic must still be served (by the draining-but-alive b1
  // only as a last resort — b2 remains the universe here).
  JsonObject last;
  last["type"] = JsonValue("drain_backend");
  last["id"] = JsonValue(std::uint64_t{3});
  last["backend"] = JsonValue("b2");
  const svc::SvcResponse refused = client.call(JsonValue(std::move(last)));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, "bad_request");
  EXPECT_TRUE(client.solve(route_instance(5), "lcf", 4).ok);
}

TEST(RouteDrain, DeadBackendIsRoutedAroundAfterOneFailure) {
  // Kill a backend outright (no drain): the first forward that hits it
  // fails at the transport level, marks it unhealthy, and the request
  // finishes on another backend in the same call — the client sees one
  // ok response, never an error.
  RouterFixture f(2, no_probe_options());
  svc::SvcClient client = f.client();

  // Find seeds owned by each backend so we can kill a backend that owns
  // live traffic.
  std::map<std::string, std::uint64_t> seed_by_backend;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const svc::SvcResponse r = client.solve(route_instance(seed), "lcf", seed);
    ASSERT_TRUE(r.ok);
    seed_by_backend.emplace(r.body.at("route_backend").as_string(), seed);
  }
  ASSERT_EQ(seed_by_backend.size(), 2u) << "need both backends owning keys";

  // Kill b1's process-equivalent (the in-process server) hard.
  f.backends[0]->request_shutdown();
  f.backends[0]->wait();

  const std::uint64_t orphan = seed_by_backend.at("b1");
  const svc::SvcResponse r =
      client.solve(route_instance(orphan), "lcf", 99);
  ASSERT_TRUE(r.ok) << r.error_code << ": " << r.error_message;
  EXPECT_EQ(r.body.at("route_backend").as_string(), "b2");
  EXPECT_TRUE(r.body.at("route_spilled").as_bool());
  const route::RouterStats stats = f.router->stats();
  EXPECT_GE(stats.backend_failures, 1u);
  EXPECT_EQ(stats.responses_error, 0u);
}

// --- Cross-process trace parenting -----------------------------------------

TEST(RouteTracing, BackendSpansParentOnTheRoutersForwardSpan) {
  const std::string router_trace =
      testing::TempDir() + "route_trace_router.json";
  const std::string backend_trace =
      testing::TempDir() + "route_trace_backend.json";

  {
    route::RouterOptions options = no_probe_options();
    options.trace_out = router_trace;
    svc::ServerOptions backend_options;
    backend_options.trace_out = backend_trace;
    RouterFixture f(1, std::move(options), std::move(backend_options));
    svc::SvcClient client = f.client();

    // A sampled client traceparent: both hops keep the trace.
    const obs::TraceContext ctx = obs::TraceContext::derive("rt-1", true);
    const svc::SvcResponse r =
        client.solve(route_instance(2), "lcf", 1, 0.3, true, -1.0, "rt-1",
                     ctx.to_traceparent());
    ASSERT_TRUE(r.ok);
    // Fixture teardown closes both trace writers.
  }

  const JsonValue router_doc = util::parse_json(read_file(router_trace));
  const JsonValue backend_doc = util::parse_json(read_file(backend_trace));

  // The router's events: a route.request root and its children, all on
  // the client's trace id.
  const std::string trace_id =
      obs::TraceContext::derive("rt-1", true).trace_id;
  std::string forward_span;
  std::string route_root_span;
  for (const JsonValue& ev : router_doc.at("traceEvents").as_array()) {
    const JsonValue& args = ev.at("args");
    EXPECT_EQ(args.string_at("trace_id"), trace_id);
    if (ev.string_at("name") == "route.forward")
      forward_span = args.string_at("span_id");
    if (ev.string_at("name") == "route.request")
      route_root_span = args.string_at("span_id");
  }
  ASSERT_FALSE(forward_span.empty()) << "router kept no route.forward span";
  ASSERT_FALSE(route_root_span.empty());

  // The backend's svc.request root continues the same trace and parents
  // on the router's forward span — one causal tree across two processes.
  bool found_backend_root = false;
  for (const JsonValue& ev : backend_doc.at("traceEvents").as_array()) {
    const JsonValue& args = ev.at("args");
    EXPECT_EQ(args.string_at("trace_id"), trace_id);
    if (ev.string_at("name") == "svc.request") {
      found_backend_root = true;
      EXPECT_EQ(args.string_at("parent_span_id"), forward_span);
      EXPECT_NE(args.string_at("span_id"), route_root_span);
    }
  }
  EXPECT_TRUE(found_backend_root) << "backend kept no svc.request span";
}

// --- Lifecycle --------------------------------------------------------------

TEST(RouteShutdown, ShutdownRequestDrainsTheRouterNotTheBackends) {
  RouterFixture f(2, no_probe_options());
  {
    svc::SvcClient client = f.client();
    const svc::SvcResponse r = client.shutdown();
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.body.at("draining").as_bool());
  }
  f.router->wait();
  EXPECT_TRUE(f.router->draining());
  // Backends are untouched: direct connections still solve.
  svc::SvcClient direct = svc::SvcClient::connect(
      "tcp:127.0.0.1:" + std::to_string(f.backends[0]->port()));
  EXPECT_TRUE(direct.solve(route_instance(1), "lcf", 1).ok);
}

TEST(RouteOptions, EmptyTopologyIsAConstructionError) {
  // Surfaces before any socket exists — a router with nowhere to send
  // traffic refuses to come up at all.
  route::RouterOptions options;
  options.tcp_port = 0;
  EXPECT_THROW(route::Router{std::move(options)}, std::invalid_argument);
}

}  // namespace
