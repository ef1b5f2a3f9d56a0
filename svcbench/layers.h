// The traced run's per-layer measurement: one obs::RequestTrace span tree
// per request line the driver replays through each layer's public
// functions, the daemons' request-log wide events joined to the driver's
// round trips, and the round trips themselves as traces. The trees stay
// in memory and are written at exit through obs::TraceWriter as Chrome
// trace-event JSON.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "loop.h"
#include "obs/tracing.h"
#include "workload.h"

namespace svcbench {

/// One request's wide event from a daemon's --request-log.
struct WideEvent {
  bool present = false;
  bool miss = false;  ///< cache outcome "miss"
  double queue_ms = 0, parse_ms = 0, decode_ms = 0, solve_ms = 0,
         serialize_ms = 0, total_ms = 0;
};

/// Reads a request log into `events`, indexed by request index; events
/// whose request_id this driver did not mint (control requests) are
/// skipped.
void read_request_log(const std::string& path, std::vector<WideEvent>& events);

/// One printed metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Replays every request line in `sent` (indices, warm-up first) in
/// process through each layer's public functions, following the cache
/// outcome the server logged for each. Appends one span tree per line to
/// `traces` and the replay's metrics to `out`.
void replay_layers(const Inputs& in,
                   const std::vector<WideEvent>& server_events,
                   const std::vector<std::size_t>& sent, Clock::time_point epoch,
                   std::vector<mecsc::obs::FinishedTrace>& traces,
                   std::vector<Metric>& out);

/// Appends one trace per round trip of `loop`, on one track per
/// connection.
void add_round_trips(const LoopResult& loop,
                     std::vector<mecsc::obs::FinishedTrace>& traces);

/// Writes `traces` to `path` as Chrome trace-event JSON (loads in
/// Perfetto); returns how many were written.
std::size_t write_traces(std::vector<mecsc::obs::FinishedTrace> traces,
                         const std::string& path);

}  // namespace svcbench
