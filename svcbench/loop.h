// The closed loop: `conns.size()` client connections, each with one request
// outstanding. Connection c sends requests first + c, first + c + C, ...
// (C connections), so it cycles through its own subset of the keys: no
// stall of one connection can bring another's key back before the LRU has
// evicted it, and no two requests for one key are ever in flight at once.
// Every response is checked against the oracle with one arena parse.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet.h"
#include "workload.h"

namespace svcbench {

using Clock = std::chrono::steady_clock;

/// One request's round trip: from writing its line to reading the
/// response line.
struct Sample {
  std::size_t index = 0;
  double start_us = 0.0;  ///< since the driver's epoch
  double rtt_ms = 0.0;
  int conn = 0;
  bool ok = false;
};

struct LoopResult {
  std::vector<Sample> samples;  ///< every request sent, ok or not
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the report
  double window_s = 0.0;    ///< first send to last response
  double driver_cpu_ms = 0.0;  ///< this process's CPU over the loop
  double service_cpu_ms = 0.0;  ///< the fleet's CPU over the loop
  double start_us = 0.0;       ///< first send, since the driver's epoch
  /// Machine-wide steal time (ms) sampled at the start of each of `slices`
  /// equal time slices of a timed loop, and at its deadline.
  std::vector<double> slice_steal_ms;
};

/// Sends requests from `first` until index `last` (exclusive) is reached
/// or, when `seconds` > 0, the deadline passes; requests in flight at the
/// deadline complete and count. A timed loop samples the machine's steal
/// time at the start of each of `slices` equal slices.
/// `corrupt_key` >= 0 flips one byte of that key's oracle entry for the
/// loop (self-test of the checker). A connection that drops fails its
/// request and stops sending.
LoopResult run_loop(const std::vector<mecsc::svc::ConnectionPtr>& conns,
                    const WorkloadSpec& spec,
                    const Inputs& in, const Fleet& fleet, std::size_t first,
                    std::size_t last, double seconds, std::size_t slices,
                    Clock::time_point epoch, long corrupt_key = -1);

/// Cache and routing counters summed over a fleet, from "stats" requests.
struct Counters {
  double hits = 0, misses = 0, coalesced = 0;
  double forwarded = 0, spilled = 0;  ///< router only
};
Counters read_counters(const Fleet& fleet);

/// Checks the counters at the end of a fleet's life against the workload's
/// design (see the README); one line per mismatch.
std::vector<std::string> check_counters(const WorkloadSpec& spec,
                                        const Inputs& in,
                                        const Counters& before_window,
                                        const Counters& after_window,
                                        std::size_t timed_requests);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Keeps `v` (and the work that computed it) from being optimized away.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// A fixed single-thread CPU loop, in ms: the host-speed calibration
/// printed beside each run.
double calibration_ms();

}  // namespace svcbench
