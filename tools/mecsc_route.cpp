// mecsc_route — digest-sharded front router for a fleet of mecsc_serve
// backends.
//
// Terminates client NDJSON connections and consistent-hashes each
// request's instance digest onto the backend that owns it (src/route/),
// so every backend's result cache stays hot for its shard:
//
//   mecsc_route --tcp-port 0 --port-file /tmp/route.port
//       --backend b1=tcp:127.0.0.1:7001
//       --backend b2=tcp:127.0.0.1:7002@2
//       --backend b3=unix:/tmp/mecsc3.sock
//
// "@2" gives a backend twice the keyspace share. Clients speak the exact
// mecsc_serve protocol to the router; responses additionally carry
// "route_backend" (and "route_spilled" when the owner was skipped). A
// {"type": "drain_backend", "backend": "b2"} request rehashes new keys
// away from b2 while its in-flight requests finish.
#include <csignal>
#include <cstring>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/io.h"
#include "obs/metrics.h"
#include "obs/run_info.h"
#include "obs/trace.h"
#include "route/router.h"
#include "util/json.h"
#include "util/log.h"

namespace {

using namespace mecsc;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      R"(mecsc_route — digest-sharded front router (NDJSON over a socket)

usage:
  mecsc_route (--unix-socket PATH | --tcp-port PORT)
              --backend [NAME=]ENDPOINT[@WEIGHT]   (repeatable, >= 1)
                                     NAME defaults to b1, b2, ...; WEIGHT
                                     (default 1) scales the keyspace share
              [--health-interval-ms MS]  backend probe period (default
                                     1000; 0 disables probing — forward
                                     failures still mark backends down)
              [--probe-failures N]   consecutive probe failures before a
                                     backend is skipped (default 2)
              [--spill-queue-fraction F]  pre-spill when a probed backend's
                                     queue is >= F full (default 0.9;
                                     >= 1 disables pre-spill)
              [--port-file FILE]     write the bound TCP port
              [--request-log FILE]   wide-event JSON-lines log (one record
                                     per routed request)
              [--request-log-max-mb MB] [--slow-request-ms MS]
              [--trace-out FILE]     kept causal traces (Chrome trace-event
                                     JSON; spans are route.request ->
                                     route.forward, parenting the backend's
                                     svc.request across the hop)
              [--trace-sample-rate R] [--flight-recorder N]
              [--flight-dump FILE]   where SIGQUIT dumps the flight recorder
              [--admin-port PORT]    read-only loopback HTTP endpoint
              [--admin-port-file FILE] [--telemetry-window-ms MS]
              [--log-level LEVEL] [--metrics-out FILE] [--manifest-out FILE]

Stop with SIGTERM/SIGINT or a {"type": "shutdown"} request; in-flight
requests finish before exit. SIGQUIT dumps the flight recorder and keeps
routing.
)";
  std::exit(error.empty() ? 0 : 2);
}

/// Every flag main() reads. Anything else is a usage error, so a typo
/// fails the start instead of silently running with a default.
const std::set<std::string> kFlags = {
    "--unix-socket", "--tcp-port", "--backend", "--health-interval-ms",
    "--probe-failures", "--spill-queue-fraction", "--port-file",
    "--request-log", "--request-log-max-mb", "--slow-request-ms", "--trace-out",
    "--trace-sample-rate", "--flight-recorder", "--flight-dump", "--admin-port",
    "--admin-port-file", "--telemetry-window-ms", "--log-level",
    "--metrics-out", "--manifest-out"};

/// Flag parser allowing repeated keys (--backend is given once per
/// backend; everything else behaves last-wins like the other tools).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--help" || key == "-h") usage();
      if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
      if (kFlags.count(key) == 0) usage("unknown flag '" + key + "'");
      if (i + 1 >= argc) usage("flag '" + key + "' needs a value");
      values_.emplace_back(key, argv[++i]);
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    std::optional<std::string> found;
    for (const auto& [k, v] : values_)
      if (k == key) found = v;
    return found;
  }

  std::vector<std::string> get_all(const std::string& key) const {
    std::vector<std::string> found;
    for (const auto& [k, v] : values_)
      if (k == key) found.push_back(v);
    return found;
  }

  double number_or(const std::string& key, double dflt) const {
    const auto v = get(key);
    return v ? std::stod(*v) : dflt;
  }

  const std::vector<std::pair<std::string, std::string>>& all() const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

/// Parses "[NAME=]ENDPOINT[@WEIGHT]". '@' never appears in the endpoint
/// grammar ("unix:<path>" / "tcp:<host>:<port>" / bare path), and the
/// NAME is cut at the first '=' only when one precedes the endpoint's
/// scheme prefix.
route::BackendSpec parse_backend(const std::string& text, std::size_t index) {
  route::BackendSpec spec;
  std::string rest = text;
  const std::size_t at = rest.rfind('@');
  if (at != std::string::npos) {
    const std::string weight_text = rest.substr(at + 1);
    try {
      const int weight = std::stoi(weight_text);
      if (weight < 1) usage("backend weight must be >= 1 in '" + text + "'");
      spec.weight = static_cast<std::size_t>(weight);
    } catch (const std::exception&) {
      usage("bad backend weight in '" + text + "'");
    }
    rest = rest.substr(0, at);
  }
  const std::size_t eq = rest.find('=');
  if (eq != std::string::npos) {
    spec.name = rest.substr(0, eq);
    spec.endpoint = rest.substr(eq + 1);
  } else {
    spec.name = "b" + std::to_string(index + 1);
    spec.endpoint = rest;
  }
  if (spec.name.empty() || spec.endpoint.empty())
    usage("bad --backend '" + text + "' (want [NAME=]ENDPOINT[@WEIGHT])");
  return spec;
}

/// Self-pipe signal bridge — same pattern as mecsc_serve.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int sig) {
  const char byte = sig == SIGQUIT ? 2 : 1;
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  try {
    if (const auto level = args.get("--log-level")) {
      if (*level == "debug") {
        util::set_log_level(util::LogLevel::Debug);
      } else if (*level == "info") {
        util::set_log_level(util::LogLevel::Info);
      } else if (*level == "warn") {
        util::set_log_level(util::LogLevel::Warn);
      } else if (*level == "error") {
        util::set_log_level(util::LogLevel::Error);
      } else if (*level == "off") {
        util::set_log_level(util::LogLevel::Off);
      } else {
        usage("unknown log level '" + *level + "'");
      }
    }
    obs::install_log_bridge();
    obs::MetricsRegistry::global().reset();
    const auto metrics_out = args.get("--metrics-out");
    const auto manifest_out = args.get("--manifest-out");

    route::RouterOptions options;
    options.unix_socket_path = args.get("--unix-socket").value_or("");
    if (const auto port = args.get("--tcp-port")) {
      options.tcp_port = static_cast<int>(std::stod(*port));
      if (options.tcp_port < 0 || options.tcp_port > 65535)
        usage("--tcp-port must be in [0, 65535]");
    }
    if (options.unix_socket_path.empty() && options.tcp_port < 0)
      usage("need --unix-socket PATH or --tcp-port PORT");
    if (!options.unix_socket_path.empty() && options.tcp_port >= 0)
      usage("--unix-socket and --tcp-port are mutually exclusive");
    const std::vector<std::string> backend_args = args.get_all("--backend");
    if (backend_args.empty()) usage("need at least one --backend");
    for (std::size_t i = 0; i < backend_args.size(); ++i)
      options.backends.push_back(parse_backend(backend_args[i], i));
    options.health_interval_ms =
        args.number_or("--health-interval-ms", 1000.0);
    options.probe_failure_threshold =
        static_cast<std::size_t>(args.number_or("--probe-failures", 2));
    if (options.probe_failure_threshold == 0)
      usage("--probe-failures must be >= 1");
    options.spill_queue_fraction =
        args.number_or("--spill-queue-fraction", 0.9);
    if (options.spill_queue_fraction <= 0.0)
      usage("--spill-queue-fraction must be > 0");
    options.request_log_path = args.get("--request-log").value_or("");
    options.request_log_max_mb = args.number_or("--request-log-max-mb", 0.0);
    options.slow_request_ms = args.number_or("--slow-request-ms", -1.0);
    options.trace_out = args.get("--trace-out").value_or("");
    options.trace_sample_rate = args.number_or("--trace-sample-rate", 0.0);
    if (options.trace_sample_rate < 0.0 || options.trace_sample_rate > 1.0)
      usage("--trace-sample-rate must be in [0, 1]");
    options.flight_recorder_capacity =
        static_cast<std::size_t>(args.number_or("--flight-recorder", 256));
    if (const auto admin = args.get("--admin-port")) {
      options.admin_port = static_cast<int>(std::stod(*admin));
      if (options.admin_port < 0 || options.admin_port > 65535)
        usage("--admin-port must be in [0, 65535]");
    }
    options.telemetry_window_ms =
        args.number_or("--telemetry-window-ms", 60000.0);
    if (options.telemetry_window_ms <= 0.0)
      usage("--telemetry-window-ms must be > 0");
    if (args.get("--admin-port-file") && options.admin_port < 0)
      usage("--admin-port-file needs --admin-port");

    route::Router router(std::move(options));
    router.start();
    std::cerr << "routing on " << router.endpoint() << " ("
              << backend_args.size() << " backends)\n";
    if (router.admin_port() >= 0)
      std::cerr << "admin endpoint on tcp:127.0.0.1:" << router.admin_port()
                << " (/metrics, /stats, /debug/flight)\n";
    if (const auto port_file = args.get("--port-file")) {
      core::write_text_file(*port_file,
                            std::to_string(router.port()) + "\n");
    }
    if (const auto admin_port_file = args.get("--admin-port-file")) {
      core::write_text_file(*admin_port_file,
                            std::to_string(router.admin_port()) + "\n");
    }

    if (pipe(g_signal_pipe) != 0) {
      std::cerr << "error: cannot create signal pipe: " << std::strerror(errno)
                << "\n";
      return 1;
    }
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGQUIT, on_signal);
    std::signal(SIGPIPE, SIG_IGN);
    const std::string flight_dump_path =
        args.get("--flight-dump").value_or("");
    std::thread signal_watcher([&router, &flight_dump_path] {
      char byte = 0;
      while (true) {
        const ssize_t n = read(g_signal_pipe[0], &byte, 1);
        if (n == 1 && byte == 2) {
          const std::string dump = router.flight_json().dump(2);
          if (flight_dump_path.empty()) {
            std::cerr << "flight recorder dump (SIGQUIT):\n" << dump << "\n";
          } else {
            try {
              core::write_text_file(flight_dump_path, dump + "\n");
              std::cerr << "wrote " << flight_dump_path << "\n";
            } catch (const std::exception& e) {
              std::cerr << "error: flight dump failed: " << e.what() << "\n";
            }
          }
          continue;
        }
        if (n == 1) {
          router.request_shutdown();
          return;
        }
        if (n == 0) return;
        if (errno != EINTR) return;
      }
    });

    router.wait();
    close(g_signal_pipe[1]);
    signal_watcher.join();
    close(g_signal_pipe[0]);

    const route::RouterStats stats = router.stats();
    std::cerr << "drained: " << stats.requests_total << " requests ("
              << stats.responses_ok << " ok, " << stats.responses_error
              << " errors), " << stats.forwarded << " forwarded, "
              << stats.spilled << " spilled, " << stats.backend_failures
              << " backend failures\n";

    if (metrics_out) {
      core::write_text_file(
          *metrics_out,
          obs::MetricsRegistry::global().snapshot().to_json().dump(2));
      std::cerr << "wrote " << *metrics_out << "\n";
    }
    std::optional<std::string> manifest_path = manifest_out;
    if (!manifest_path && metrics_out)
      manifest_path = *metrics_out + ".manifest.json";
    if (manifest_path) {
      obs::RunManifest manifest;
      manifest.tool = "mecsc_route";
      manifest.command = "route";
      for (const auto& [key, value] : args.all()) {
        // Repeated --backend flags fold into one comma-joined config value
        // (manifest config is a flat object).
        if (manifest.config.count(key)) {
          manifest.config[key] = util::JsonValue(
              manifest.config[key].as_string() + "," + value);
        } else {
          manifest.config[key] = util::JsonValue(value);
        }
      }
      obs::write_manifest(*manifest_path, manifest);
      std::cerr << "wrote " << *manifest_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
