#include "loop.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <optional>
#include <stdexcept>
#include <thread>

#include "util/json_arena.h"

namespace svcbench {
namespace {

using namespace mecsc;

constexpr std::size_t kFailuresShown = 10;

double self_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double fleet_cpu_ms(const Fleet& fleet) {
  double total = 0.0;
  for (const pid_t pid : fleet.pids()) total += process_cpu_ms(pid);
  return total;
}

std::string snippet(const std::string& text) {
  return text.size() <= 200 ? text : text.substr(0, 200) + "...";
}

/// One arena parse of the response line; true when it is an ok response
/// to request `i` whose result bytes equal the oracle's.
bool check_response(const WorkloadSpec& spec, const Inputs& in, std::size_t i,
                    const std::string& expected, const std::string& backend,
                    const std::string& response, std::string& why) {
  util::JsonArena arena;
  try {
    arena = util::parse_json_arena(response);
  } catch (const std::exception& e) {
    why = std::string("unparseable response: ") + e.what();
    return false;
  }
  const util::JsonArena::View root = arena.root();
  if (!root.is_object() || !root.contains("ok") || !root.at("ok").is_bool()) {
    why = "malformed response: " + snippet(response);
    return false;
  }
  if (!root.at("ok").as_bool()) {
    why = "error response: " + snippet(response);
    return false;
  }
  if (!root.contains("request_id") || !root.at("request_id").is_string() ||
      request_index(root.at("request_id").as_string()) != i) {
    why = "request_id is not " + request_id(i);
    return false;
  }
  if (!root.contains("result") || root.at("result").dump() != expected) {
    const Key& key = in.keys[i % in.keys.size()];
    why = "result differs from the oracle (" + key.algorithm + " on instance " +
          std::to_string(key.instance) + ")";
    return false;
  }
  if (spec.routed) {
    if (!root.contains("route_backend") ||
        root.at("route_backend").as_string() != backend) {
      why = "instance " + std::to_string(in.keys[i % in.keys.size()].instance) +
            " answered by a backend other than its owner " + backend;
      return false;
    }
  }
  return true;
}

double number_at(const util::JsonArena::View& v, const char* section,
                 const char* key) {
  return v.at(section).at(key).as_number();
}

}  // namespace

LoopResult run_loop(const std::vector<svc::ConnectionPtr>& conns,
                    const WorkloadSpec& spec,
                    const Inputs& in, const Fleet& fleet, std::size_t first,
                    std::size_t last, double seconds, std::size_t slices,
                    Clock::time_point epoch, long corrupt_key) {
  if (last > in.capacity()) last = in.capacity();
  std::vector<std::string> expected;
  for (const Key& k : in.keys) expected.push_back(k.expected_result);
  if (corrupt_key >= 0) {
    std::string& e = expected[static_cast<std::size_t>(corrupt_key) % expected.size()];
    e[e.size() / 2] ^= 1;
  }
  std::vector<std::string> owner_name;
  if (spec.routed) {
    const std::vector<std::string> names = backend_names(spec.backends);
    for (const Key& k : in.keys) owner_name.push_back(names[in.instance_owner[k.instance]]);
  } else {
    owner_name.assign(in.keys.size(), std::string());
  }

  struct PerConn {
    std::vector<Sample> samples;
    std::uint64_t ok = 0, failed = 0;
    std::vector<std::string> failures;
    Clock::time_point last_done{};
  };
  std::vector<PerConn> per(conns.size());
  std::latch go(1);
  Clock::time_point t0{};
  Clock::time_point deadline = Clock::time_point::max();
  const std::size_t expected_requests =
      seconds > 0 ? static_cast<std::size_t>(spec.max_rps * seconds) : last - first;

  std::vector<std::thread> threads;
  threads.reserve(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      PerConn& me = per[c];
      me.samples.reserve(std::min(expected_requests, last - first) / conns.size() + 16);
      svc::Connection& conn = *conns[c];
      std::string line;
      std::optional<std::string> response;
      auto fail = [&](std::string why) {
        ++me.failed;
        if (me.failures.size() < kFailuresShown) me.failures.push_back(std::move(why));
      };
      go.wait();
      me.last_done = t0;
      for (std::size_t i = first + c; i < last && Clock::now() < deadline;
           i += conns.size()) {
        const std::size_t k = i % in.keys.size();
        line.assign(in.head(i));
        line.append(in.keys[k].body);
        const Clock::time_point s = Clock::now();
        const bool got =
            conn.write_all(line) && (response = conn.read_line(kMaxLine)).has_value();
        const Clock::time_point e = Clock::now();
        me.last_done = e;
        me.samples.push_back(
            {i, std::chrono::duration<double, std::micro>(s - epoch).count(),
             std::chrono::duration<double, std::milli>(e - s).count(),
             static_cast<int>(c)});
        if (!got) {
          fail(request_id(i) + ": connection dropped");
          break;
        }
        std::string why;
        if (check_response(spec, in, i, expected[k], owner_name[k], *response, why)) {
          ++me.ok;
          me.samples.back().ok = true;
        } else {
          fail(request_id(i) + ": " + why);
        }
      }
    });
  }

  LoopResult out;
  double driver_cpu0 = 0.0, service_cpu0 = 0.0;
  bool released = false;
  try {
    driver_cpu0 = self_cpu_ms();
    service_cpu0 = fleet_cpu_ms(fleet);
    t0 = Clock::now();
    if (seconds > 0)
      deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    go.count_down();
    released = true;
    out.start_us = std::chrono::duration<double, std::micro>(t0 - epoch).count();
    if (seconds > 0) {
      out.slice_steal_ms.push_back(steal_ms());
      for (std::size_t j = 1; j <= slices; ++j) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                     seconds * static_cast<double>(j) / static_cast<double>(slices))));
        out.slice_steal_ms.push_back(steal_ms());
      }
    }
  } catch (...) {
    // A daemon vanished from /proc: let the clients stop, then report.
    if (!released) {
      deadline = Clock::time_point::min();
      go.count_down();
    }
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  out.service_cpu_ms = fleet_cpu_ms(fleet) - service_cpu0;
  out.driver_cpu_ms = self_cpu_ms() - driver_cpu0;

  Clock::time_point end = t0;
  for (PerConn& p : per) {
    end = std::max(end, p.last_done);
    out.ok += p.ok;
    out.failed += p.failed;
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    for (std::string& f : p.failures)
      if (out.failures.size() < kFailuresShown) out.failures.push_back(std::move(f));
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  out.window_s = std::chrono::duration<double>(end - t0).count();
  return out;
}

Counters read_counters(const Fleet& fleet) {
  auto stats_of = [](const Daemon& d) {
    return util::parse_json_arena(
        call(*svc::connect_unix(d.socket), "{\"type\":\"stats\"}"));
  };
  Counters c;
  for (const Daemon* d : fleet.servers()) {
    const util::JsonArena stats = stats_of(*d);
    c.hits += number_at(stats.root(), "cache", "hits");
    c.misses += number_at(stats.root(), "cache", "misses");
    c.coalesced += number_at(stats.root(), "cache", "coalesced");
  }
  if (const Daemon* r = fleet.router()) {
    const util::JsonArena stats = stats_of(*r);
    c.forwarded = number_at(stats.root(), "router", "forwarded");
    c.spilled = number_at(stats.root(), "router", "spilled");
  }
  return c;
}

std::vector<std::string> check_counters(const WorkloadSpec& spec,
                                        const Inputs& in,
                                        const Counters& before,
                                        const Counters& after,
                                        std::size_t timed) {
  std::vector<std::string> bad;
  auto expect = [&](const char* what, double got, double want) {
    if (got != want)
      bad.push_back(std::string("stats: ") + what + " = " +
                    std::to_string(static_cast<long long>(got)) + ", expected " +
                    std::to_string(static_cast<long long>(want)));
  };
  const auto keys = static_cast<double>(in.keys.size());
  const auto sent = keys + static_cast<double>(timed);
  expect("coalesced", after.coalesced, 0);
  if (spec.all_miss) {
    expect("cache hits", after.hits, 0);
    expect("cache misses", after.misses, sent);
  } else {
    expect("cache misses (warm-up only)", after.misses, keys);
    expect("timed-window cache hits", after.hits - before.hits,
           static_cast<double>(timed));
  }
  if (spec.routed) {
    expect("router spills", after.spilled, 0);
    expect("router forwards", after.forwarded, sent);
  }
  return bad;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double calibration_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  keep(x);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace svcbench
