#include "workload.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "core/instance.h"
#include "core/io.h"
#include "core/solver_api.h"
#include "obs/run_info.h"
#include "obs/tracing.h"
#include "route/shard_map.h"
#include "util/json.h"
#include "util/rng.h"

namespace svcbench {
namespace {

using namespace mecsc;

/// 1 - xi of every LCF request (the paper's default selfish share).
constexpr const char* kOneMinusXi = "0.3";

core::Instance generate(const WorkloadSpec& spec, std::uint64_t seed,
                        std::size_t k) {
  util::Rng rng(seed * 1000003ULL + 977ULL * k + 1);
  core::InstanceParams params;
  params.network_size = spec.network_size;
  params.provider_count = spec.providers;
  return core::generate_instance(params, rng);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"solve_miss", "hit_large",
                                                 "routed_small"};
  return names;
}

WorkloadSpec workload_spec(const std::string& name, bool tiny) {
  WorkloadSpec w;
  w.name = name;
  if (name == "solve_miss") {
    // 32 keys against a 2-entry cache: each connection cycles through 16
    // of them, so LRU has evicted a key before its connection asks again
    // and every request solves. Solve time differs from instance to
    // instance, and the median round trip lies between the middle keys'
    // times; 16 instances keep those close together whatever the seed
    // (README.md, "Noise floor").
    w.algorithms = {"lcf", "appro"};
    w.network_size = tiny ? 60 : 400;
    w.providers = tiny ? 30 : 250;
    w.instances = 16;
    w.cache_capacity = 2;
    w.all_miss = true;
    w.max_rps = tiny ? 5000 : 200;
  } else if (name == "hit_large") {
    // Size-400 bodies, not smaller: a hit's round trip takes one of a few
    // values set by how fast the host wakes the threads it hands off
    // between, a step of 0.3-0.7 ms whatever the body size. On a ~1 ms
    // round trip (size 200) the p50 jumped by up to 45% between runs as
    // the host's state changed; on ~2.5 ms it moves far less.
    w.algorithms = {"lcf", "appro", "jo", "offload"};
    w.network_size = tiny ? 40 : 400;
    w.providers = tiny ? 20 : 250;
    w.instances = 2;
    w.max_rps = tiny ? 20000 : 3000;
  } else if (name == "routed_small") {
    // The router shards by instance digest alone, so both backends own
    // keys only when the instances split between them; make_inputs draws
    // instances until each backend owns the same number.
    w.routed = true;
    w.backends = 2;
    w.server_threads = 1;
    w.algorithms = {"lcf", "appro", "jo", "offload"};
    w.network_size = tiny ? 30 : 50;
    w.providers = tiny ? 15 : 40;
    w.instances = tiny ? 1 : 2;
    w.max_rps = tiny ? 20000 : 5000;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (solve_miss | hit_large | routed_small)");
  }
  return w;
}

std::vector<std::string> backend_names(std::size_t backends) {
  std::vector<std::string> names;
  for (std::size_t b = 0; b < backends; ++b)
    names.push_back("b" + std::to_string(b + 1));
  return names;
}

std::string request_id(std::size_t i) { return "sb-" + std::to_string(i); }

std::size_t request_index(std::string_view id) {
  if (id.size() < 4 || id.substr(0, 3) != "sb-")
    return std::numeric_limits<std::size_t>::max();
  std::size_t i = 0;
  const auto [end, ec] = std::from_chars(id.data() + 3, id.data() + id.size(), i);
  if (ec != std::errc() || end != id.data() + id.size())
    return std::numeric_limits<std::size_t>::max();
  return i;
}

std::string result_bytes(const std::string& instance_json,
                         const std::string& algorithm) {
  const core::Instance inst = core::instance_from_json_text(instance_json);
  core::SolveSpec spec;
  spec.algorithm = algorithm;
  spec.one_minus_xi = util::parse_json(kOneMinusXi).as_number();
  const core::SolveOutcome outcome = core::run_solver(inst, spec);
  util::JsonObject result =
      core::assignment_to_json(outcome.assignment).as_object();
  result["algorithm"] = util::JsonValue(algorithm);
  result["proven_optimal"] = util::JsonValue(outcome.proven_optimal);
  return util::JsonValue(std::move(result)).dump();
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t capacity) {
  Inputs in;
  if (!spec.routed) {
    for (std::size_t k = 0; k < spec.instances; ++k) {
      in.instance_json.push_back(
          core::instance_to_json(generate(spec, seed, k)).dump());
      in.instance_digest.push_back(obs::fnv1a64_hex(in.instance_json.back()));
    }
  } else {
    // Draw instances until every backend owns `instances` of them, then
    // order their owners b1 b2 b2 b1 ...: each connection of the closed
    // loop takes every other key, and this way both connections still
    // alternate between the backends.
    std::vector<route::BackendSpec> ring_specs;
    for (const std::string& name : backend_names(spec.backends))
      ring_specs.push_back({name, "unused", 1});
    const route::ShardMap ring(ring_specs);
    std::vector<std::vector<std::pair<std::string, std::string>>> owned(
        spec.backends);
    std::size_t filled = 0;
    for (std::size_t k = 0; filled < spec.backends; ++k) {
      if (k > 64 * spec.instances * spec.backends)
        throw std::runtime_error("routed instances do not cover every backend");
      std::string json = core::instance_to_json(generate(spec, seed, k)).dump();
      std::string digest = obs::fnv1a64_hex(json);
      const std::size_t owner = ring.owner(digest);
      if (owned[owner].size() == spec.instances) continue;
      owned[owner].emplace_back(std::move(json), std::move(digest));
      if (owned[owner].size() == spec.instances) ++filled;
    }
    for (std::size_t r = 0; r < spec.instances; ++r) {
      for (std::size_t k = 0; k < spec.backends; ++k) {
        const std::size_t b = r % 2 == 0 ? k : spec.backends - 1 - k;
        in.instance_json.push_back(std::move(owned[b][r].first));
        in.instance_digest.push_back(std::move(owned[b][r].second));
        in.instance_owner.push_back(b);
      }
    }
  }

  for (const std::string& algorithm : spec.algorithms) {
    for (std::size_t k = 0; k < in.instance_json.size(); ++k) {
      Key key;
      key.instance = k;
      key.algorithm = algorithm;
      key.expected_result = result_bytes(in.instance_json[k], algorithm);
      key.body = "\"type\":\"solve\",\"algorithm\":\"" + algorithm +
                 "\",\"one_minus_xi\":" + kOneMinusXi +
                 ",\"cache\":true,\"instance\":" + in.instance_json[k] + "}\n";
      in.keys.push_back(std::move(key));
    }
  }

  // Request heads carry what varies per request: the echoed id, the
  // wide-event request_id and a traceparent derived from it, as
  // mecsc_loadgen mints them (unsampled).
  in.head_offsets.reserve(capacity + 1);
  in.head_offsets.push_back(0);
  in.head_bytes.reserve(capacity * 120);
  for (std::size_t i = 0; i < capacity; ++i) {
    const std::string rid = request_id(i);
    const std::string traceparent =
        obs::TraceContext::derive(rid, false).to_traceparent();
    in.head_bytes += "{\"id\":" + std::to_string(i) + ",\"request_id\":\"" + rid +
                 "\",\"traceparent\":\"" + traceparent + "\",";
    in.head_offsets.push_back(in.head_bytes.size());
  }
  return in;
}

}  // namespace svcbench
