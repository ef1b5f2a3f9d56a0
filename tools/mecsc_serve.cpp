// mecsc_serve — long-running solver daemon.
//
// Speaks newline-delimited JSON over a Unix-domain socket or loopback TCP
// (protocol reference: DESIGN.md "Serving" and src/svc/server.h):
//
//   mecsc_serve --unix-socket /tmp/mecsc.sock --threads 4
//   mecsc_serve --tcp-port 0 --cache-capacity 256 --queue-capacity 64
//
// With --tcp-port 0 the kernel picks an ephemeral port; the daemon prints
// "listening on tcp:127.0.0.1:<port>" to stderr and, with --port-file,
// writes the bare port number to a file so scripts can discover it without
// parsing logs. Runs until SIGTERM/SIGINT or a {"type": "shutdown"}
// request, then drains: every admitted request is answered before exit.
//
// Observability mirrors the mecsc CLI: --metrics-out/--profile-out/
// --manifest-out write their artifacts after the drain completes.
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/io.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_info.h"
#include "obs/trace.h"
#include "svc/server.h"
#include "util/json.h"
#include "util/log.h"

namespace {

using namespace mecsc;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      R"(mecsc_serve — solver service daemon (NDJSON over a socket)

usage:
  mecsc_serve (--unix-socket PATH | --tcp-port PORT)
              [--threads N]          worker pool size (default 4)
              [--queue-capacity N]   admitted-request queue (default 64)
              [--cache-capacity N]   resident solve results (default 128)
              [--default-deadline-ms MS]  applied when requests carry none
              [--port-file FILE]     write the bound TCP port (ephemeral
                                     binds resolve before the file appears)
              [--request-log FILE]   wide-event JSON-lines log: one record
                                     per request (request_id, phase times,
                                     cache outcome; obs/telemetry.h)
              [--request-log-max-mb MB]  rotate the request log to FILE.1
                                     when it would exceed MB (single-level
                                     rollover; 0 = never, the default)
              [--slow-request-ms MS] mirror requests slower than MS to
                                     stderr as they complete, and always
                                     keep their causal trace (tail sampling)
              [--trace-out FILE]     kept causal traces as Chrome
                                     trace-event JSON (load in Perfetto /
                                     chrome://tracing; obs/tracing.h)
              [--trace-sample-rate R]  head-sampling rate in [0, 1]: the
                                     fraction of traces kept regardless of
                                     outcome (errors and slow requests are
                                     always kept). Default 0
              [--flight-recorder N]  in-memory ring of the last N completed
                                     requests with span trees (default 256)
              [--flight-dump FILE]   where SIGQUIT dumps the flight
                                     recorder (default: stderr)
              [--admin-port PORT]    read-only loopback HTTP endpoint:
                                     GET /metrics (Prometheus text),
                                     GET /stats (JSON), GET /debug/flight
                                     (flight-recorder dump); 0 = ephemeral
              [--admin-port-file FILE]  write the bound admin port
              [--telemetry-window-ms MS]  sliding RED window (default 60000)
              [--log-level LEVEL] [--metrics-out FILE] [--profile-out FILE]
              [--manifest-out FILE]

--tcp-port 0 binds an ephemeral loopback port. Stop with SIGTERM/SIGINT or
a {"type": "shutdown"} request; either way the daemon answers everything it
admitted before exiting. SIGQUIT does not stop the daemon: it dumps the
flight recorder (last N requests + span trees) for incident debugging.
)";
  std::exit(error.empty() ? 0 : 2);
}

/// Every flag main() reads. Anything else is a usage error, so a typo
/// fails the start instead of silently running with a default.
const std::set<std::string> kFlags = {
    "--unix-socket", "--tcp-port", "--threads", "--queue-capacity",
    "--cache-capacity", "--default-deadline-ms", "--port-file", "--request-log",
    "--request-log-max-mb", "--slow-request-ms", "--trace-out",
    "--trace-sample-rate", "--flight-recorder", "--flight-dump", "--admin-port",
    "--admin-port-file", "--telemetry-window-ms", "--log-level",
    "--metrics-out", "--profile-out", "--manifest-out"};

/// Tiny flag parser: --key value pairs (same shape as the mecsc CLI's).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--help" || key == "-h") usage();
      if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
      if (kFlags.count(key) == 0) usage("unknown flag '" + key + "'");
      if (i + 1 >= argc) usage("flag '" + key + "' needs a value");
      values_[key] = argv[++i];
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  double number_or(const std::string& key, double dflt) const {
    const auto v = get(key);
    return v ? std::stod(*v) : dflt;
  }

  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// Self-pipe bridging POSIX signals to the drain sequence: the handler
/// writes one byte (async-signal-safe), a watcher thread blocks on the
/// read end and calls request_shutdown(). main() closes the write end
/// after wait() so the watcher always exits.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int sig) {
  // One byte per signal, tagged so the watcher can tell "drain" (SIGTERM /
  // SIGINT) from "dump the flight recorder, keep serving" (SIGQUIT).
  const char byte = sig == SIGQUIT ? 2 : 1;
  // Result ignored deliberately: if the pipe is full, a wakeup is already
  // pending and the drain will run.
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
    const auto profile_out = args.get("--profile-out");
    const auto manifest_out = args.get("--manifest-out");
    if (profile_out) obs::Profiler::global().enable();

    svc::ServerOptions options;
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
    options.threads = static_cast<std::size_t>(args.number_or("--threads", 4));
    options.queue_capacity =
        static_cast<std::size_t>(args.number_or("--queue-capacity", 64));
    options.cache_capacity =
        static_cast<std::size_t>(args.number_or("--cache-capacity", 128));
    options.default_deadline_ms = args.number_or("--default-deadline-ms", 0.0);
    if (options.threads == 0) usage("--threads must be >= 1");
    if (options.queue_capacity == 0) usage("--queue-capacity must be >= 1");
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

    svc::SolverServer server(std::move(options));
    server.start();
    std::cerr << "listening on " << server.endpoint() << "\n";
    if (server.admin_port() >= 0)
      std::cerr << "admin endpoint on tcp:127.0.0.1:" << server.admin_port()
                << " (/metrics, /stats, /debug/flight)\n";
    if (const auto port_file = args.get("--port-file")) {
      core::write_text_file(*port_file,
                            std::to_string(server.port()) + "\n");
    }
    if (const auto admin_port_file = args.get("--admin-port-file")) {
      core::write_text_file(*admin_port_file,
                            std::to_string(server.admin_port()) + "\n");
    }

    if (pipe(g_signal_pipe) != 0) {
      std::cerr << "error: cannot create signal pipe: " << std::strerror(errno)
                << "\n";
      return 1;
    }
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGQUIT, on_signal);  // flight-recorder dump, not a stop
    std::signal(SIGPIPE, SIG_IGN);  // belt-and-braces next to MSG_NOSIGNAL
    const std::string flight_dump_path =
        args.get("--flight-dump").value_or("");
    std::thread signal_watcher([&server, &flight_dump_path] {
      char byte = 0;
      while (true) {
        const ssize_t n = read(g_signal_pipe[0], &byte, 1);
        if (n == 1 && byte == 2) {
          // SIGQUIT: dump the last N requests (wide events + span trees)
          // and keep serving — the incident-debugging snapshot.
          const std::string dump = server.flight_json().dump(2);
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
          server.request_shutdown();
          return;
        }
        if (n == 0) return;               // write end closed: normal exit
        if (errno != EINTR) return;       // unexpected; don't spin
      }
    });

    server.wait();
    // Wake the watcher if the drain came from a shutdown request rather
    // than a signal.
    close(g_signal_pipe[1]);
    signal_watcher.join();
    close(g_signal_pipe[0]);

    const svc::ServerStats stats = server.stats();
    std::cerr << "drained: " << stats.requests_total << " requests ("
              << stats.responses_ok << " ok, " << stats.responses_error
              << " errors, " << stats.overloaded << " overloaded), "
              << stats.solves_executed << " solves, cache "
              << stats.cache.hits << " hits / " << stats.cache.misses
              << " misses / " << stats.cache.evictions << " evictions\n";

    if (metrics_out) {
      core::write_text_file(
          *metrics_out,
          obs::MetricsRegistry::global().snapshot().to_json().dump(2));
      std::cerr << "wrote " << *metrics_out << "\n";
    }
    if (profile_out) {
      core::write_text_file(*profile_out,
                            obs::Profiler::global().report().to_json().dump(2));
      obs::Profiler::global().disable();
      std::cerr << "wrote " << *profile_out << "\n";
    }
    std::optional<std::string> manifest_path = manifest_out;
    if (!manifest_path && metrics_out)
      manifest_path = *metrics_out + ".manifest.json";
    if (manifest_path) {
      obs::RunManifest manifest;
      manifest.tool = "mecsc_serve";
      manifest.command = "serve";
      for (const auto& [key, value] : args.all())
        manifest.config[key] = util::JsonValue(value);
      obs::write_manifest(*manifest_path, manifest);
      std::cerr << "wrote " << *manifest_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
