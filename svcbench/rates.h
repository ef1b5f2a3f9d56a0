// The timed window's rate and latency figures.
//
// Each figure is a measurement of the window: the completed ok requests
// over its length, the p50 of its round trips, the lower quartile of the
// p99s of its blocks of at least kP99Samples consecutive round trips, and
// the service processes' CPU time over its requests. The report adds host
// diagnostics per one-second slice: the steal rate (time this VM's vCPUs
// waited for a physical CPU held by another tenant of the host), the
// throughput and the p50, and the slope of ln(throughput) against steal.
// They are printed beside the metrics, so that a set of runs that
// disagrees can be traced to the host rather than to the code, and never
// change a figure.
#pragma once

#include <cstddef>
#include <string>

#include "loop.h"

namespace svcbench {

/// p99 needs at least this many requests for 10 samples beyond it.
inline constexpr std::size_t kP99Samples = 1000;

struct Rates {
  double throughput_rps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double cpu_ms_per_req = 0.0;
  /// The p99's block count, median and whole-window figure, and the host
  /// diagnostics: mean steal and its slope, and each slice's steal,
  /// throughput and p50.
  std::string report;
};

/// Figures of a timed loop of `seconds` (run with one slice per second).
Rates window_rates(const LoopResult& loop, double seconds);

}  // namespace svcbench
