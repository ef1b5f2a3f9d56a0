#include "rates.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

namespace svcbench {
namespace {

/// Least-squares slope of ln(y) against x; 0 when x does not vary or a y
/// is not positive. A diagnostic only (see rates.h).
double log_slope(const std::vector<double>& x, const std::vector<double>& y) {
  const auto n = static_cast<double>(x.size());
  if (x.size() < 2) return 0.0;
  double mean_x = 0.0, mean_y = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (!(y[j] > 0.0)) return 0.0;
    mean_x += x[j] / n;
    mean_y += std::log(y[j]) / n;
  }
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    sxx += (x[j] - mean_x) * (x[j] - mean_x);
    sxy += (x[j] - mean_x) * (std::log(y[j]) - mean_y);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

}  // namespace

Rates window_rates(const LoopResult& loop, double seconds) {
  std::vector<Sample> sent = loop.samples;
  std::sort(sent.begin(), sent.end(),
            [](const Sample& a, const Sample& b) { return a.start_us < b.start_us; });
  std::vector<double> all_rtt;
  double all_ok = 0.0;
  for (const Sample& s : sent) {
    all_rtt.push_back(s.rtt_ms);
    all_ok += s.ok ? 1.0 : 0.0;
  }

  // One-second slices by completion time: the p50's sub-windows and the
  // host diagnostics' resolution.
  const std::size_t n = loop.slice_steal_ms.size() - 1;
  const double slice_s = seconds / static_cast<double>(n);
  std::vector<std::vector<double>> rtt(n);
  std::vector<double> steal(n), rps(n, 0.0);
  for (const Sample& s : sent) {
    const double done_s = (s.start_us + s.rtt_ms * 1e3 - loop.start_us) / 1e6;
    const auto j = static_cast<std::size_t>(done_s / slice_s);
    if (j >= n) continue;  // completed after the deadline
    if (s.ok) rps[j] += 1.0 / slice_s;
    rtt[j].push_back(s.rtt_ms);
  }
  std::vector<double> slice_p50;
  for (const std::vector<double>& v : rtt)
    if (!v.empty()) slice_p50.push_back(quantile(v, 0.5));

  Rates r;
  const double window_s = loop.window_s > 0 ? loop.window_s : seconds;
  r.throughput_rps = all_ok / window_s;
  r.cpu_ms_per_req = loop.service_cpu_ms / static_cast<double>(all_rtt.size());
  // p50: the mean, over the slices, of the slice's p50. The host switches
  // between a quick and a slow state that each last seconds; the whole
  // window's p50 (or any quantile of the slices') lands on whichever state
  // held the larger share, and jumps by the whole step between runs, while
  // this mean moves with the share as throughput does (README.md, "Noise
  // floor").
  r.latency_p50_ms =
      std::accumulate(slice_p50.begin(), slice_p50.end(), 0.0) /
      static_cast<double>(std::max<std::size_t>(1, slice_p50.size()));
  // p99: the lower quartile, over blocks of consecutive round trips that
  // each hold at least kP99Samples, of the block's p99. Steal comes in
  // episodes that raise the p99 of every block they touch; a tail cost the
  // code pays throughout the run raises every block's (README.md, "Noise
  // floor").
  const std::size_t blocks = std::max<std::size_t>(1, all_rtt.size() / kP99Samples);
  std::vector<double> p99;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first =
        all_rtt.begin() + static_cast<std::ptrdiff_t>(b * all_rtt.size() / blocks);
    const auto last =
        all_rtt.begin() + static_cast<std::ptrdiff_t>((b + 1) * all_rtt.size() / blocks);
    p99.push_back(quantile(std::vector<double>(first, last), 0.99));
  }
  r.latency_p99_ms = quantile(p99, 0.25);

  double mean_steal = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    steal[j] = (loop.slice_steal_ms[j + 1] - loop.slice_steal_ms[j]) / 1e3 / slice_s;
    mean_steal += steal[j] / static_cast<double>(n);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "svcbench: host steal %.3f vCPU-s/s over the window (%zu slices "
                "of %.2f s); ln(throughput) slope %.3f per vCPU-s/s of steal\n",
                mean_steal, n, slice_s, log_slope(steal, rps));
  r.report = line;
  std::snprintf(line, sizeof line,
                "svcbench: latency_p50_ms is the mean of the p50s of %zu one-second "
                "slices (their median %.6g ms, the whole window's p50 %.6g ms)\n",
                slice_p50.size(), median(slice_p50), quantile(all_rtt, 0.5));
  r.report += line;
  std::snprintf(line, sizeof line,
                "svcbench: latency_p99_ms is the lower quartile of the p99s of %zu "
                "blocks of at least %zu round trips (their median %.6g ms, the whole "
                "window's p99 %.6g ms)\n",
                blocks, kP99Samples, median(p99), quantile(all_rtt, 0.99));
  r.report += line;
  r.report += "svcbench: slices steal:rps:p50";
  for (std::size_t j = 0; j < n; ++j) {
    std::snprintf(line, sizeof line, " %.2f:%.0f:%.3f", steal[j], rps[j],
                  quantile(rtt[j], 0.5));
    r.report += line;
  }
  r.report += "\n";
  return r;
}

}  // namespace svcbench
