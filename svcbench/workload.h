// Workload definitions and seed-derived inputs for the service benchmark.
//
// Everything a run sends is generated here, before any daemon starts: the
// instances, their canonical bytes and digests, the request cycle, the
// pre-encoded request lines, and the oracle — each key's expected result
// bytes, computed in process with the same public functions the server
// calls (core::run_solver + core::assignment_to_json).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace svcbench {

/// One benchmark workload: the daemons' shape and the request mix.
struct WorkloadSpec {
  std::string name;
  /// Driver -> mecsc_route -> `backends` mecsc_serve processes; otherwise
  /// the driver talks to one mecsc_serve directly.
  bool routed = false;
  std::size_t backends = 1;
  std::size_t server_threads = 2;  ///< --threads of each mecsc_serve
  std::size_t cache_capacity = 128;
  std::vector<std::string> algorithms;
  std::size_t network_size = 50;
  std::size_t providers = 40;
  /// Distinct instances; for a routed workload, per backend (instances
  /// are drawn until every backend owns exactly this many).
  std::size_t instances = 1;
  /// True when the key cycle is longer than the cache, so every request
  /// misses; false when every timed request must hit.
  bool all_miss = false;
  /// Upper bound on requests per second, used only to size the pool of
  /// pre-encoded request heads.
  double max_rps = 1000.0;
};

/// The named workload; `tiny` shrinks it for the self-test. Throws
/// std::invalid_argument on an unknown name.
WorkloadSpec workload_spec(const std::string& name, bool tiny);

/// The three workload names, in the order the self-test runs them.
const std::vector<std::string>& workload_names();

/// One (instance, algorithm) request key and its oracle.
struct Key {
  std::size_t instance = 0;
  std::string algorithm;
  /// Canonical bytes of the result object the server must return.
  std::string expected_result;
  /// Every request line for this key ends with this: the type, algorithm,
  /// options and instance, then "}\n".
  std::string body;
};

/// A run's inputs. Request i of a fleet uses key i % keys.size(); its
/// line is head(i) + keys[i % keys.size()].body.
struct Inputs {
  std::vector<std::string> instance_json;    ///< canonical instance bytes
  std::vector<std::string> instance_digest;  ///< fnv1a64_hex of the above
  /// Routed workloads: the backend index (into backend_names()) that owns
  /// each instance's digest on the router's hash ring.
  std::vector<std::size_t> instance_owner;
  std::vector<Key> keys;

  /// `{"id":i,"request_id":"sb-i","traceparent":"...",` for request i.
  std::string_view head(std::size_t i) const {
    return std::string_view(head_bytes).substr(
        head_offsets[i], head_offsets[i + 1] - head_offsets[i]);
  }
  /// Requests with a pre-encoded head; a fleet never sends more.
  std::size_t capacity() const { return head_offsets.size() - 1; }

  std::string head_bytes;
  std::vector<std::size_t> head_offsets;
};

/// Backend names the routed workloads give mecsc_route ("b1", "b2", ...).
std::vector<std::string> backend_names(std::size_t backends);

/// The request_id carried by request i.
std::string request_id(std::size_t i);

/// Request index of a request_id this driver minted; SIZE_MAX otherwise.
std::size_t request_index(std::string_view request_id);

/// Generates the inputs of `spec` from `seed`, with heads for at most
/// `capacity` requests per fleet.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t capacity);

/// The server's result object for one solve, as canonical bytes: the
/// assignment document plus "algorithm" and "proven_optimal". Used by the
/// oracle and by the traced replay's serialize step.
std::string result_bytes(const std::string& instance_json,
                         const std::string& algorithm);

}  // namespace svcbench
