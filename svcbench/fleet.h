// The system under test as the benchmark sees it: real mecsc_serve /
// mecsc_route processes spawned from the build, reached over Unix-domain
// sockets in a per-run directory, and read back through /proc.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "svc/socket.h"
#include "workload.h"

namespace svcbench {

/// Longest response line the driver reads.
inline constexpr std::size_t kMaxLine = std::size_t{64} << 20;

/// Sends one control request line (without its '\n') on `conn` and
/// returns the response line; throws std::runtime_error when the
/// connection drops.
std::string call(mecsc::svc::Connection& conn, const std::string& request);

/// One spawned daemon.
struct Daemon {
  std::string name;         ///< "server", "router", or a backend name
  std::string socket;       ///< Unix socket path, relative to the cwd
  std::string stderr_path;  ///< the daemon's stdout + stderr
  std::string log_path;     ///< --request-log file; empty when off
  pid_t pid = -1;
};

/// The daemons of one workload: one mecsc_serve, or mecsc_route in front
/// of `spec.backends` mecsc_serve processes. The destructor SIGKILLs and
/// reaps whatever stop() did not.
class Fleet {
 public:
  /// `prefix` names this fleet's files (sockets, logs, stderr) and must
  /// be unique within the run directory.
  Fleet(const WorkloadSpec& spec, std::string prefix, bool request_log);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawns every daemon and returns once each accepts connections
  /// (backends before the router). Throws std::runtime_error, quoting the
  /// daemon's stderr, when one exits or does not come up.
  void start();

  /// Graceful stop: a "shutdown" request to the router, then to each
  /// backend, and a reap; SIGKILL after a timeout. Returns one line per
  /// daemon that did not exit cleanly.
  std::vector<std::string> stop();

  /// The socket the driver sends requests to.
  const std::string& front() const;
  /// The mecsc_serve daemons (one, or the router's backends).
  std::vector<const Daemon*> servers() const;
  /// The router, or nullptr on a direct workload.
  const Daemon* router() const;
  /// Every service process: the cpu_ms_per_req and peak_rss_mb set.
  std::vector<pid_t> pids() const;

 private:
  void spawn(Daemon& d, const std::vector<std::string>& args);
  void wait_ready(Daemon& d);

  WorkloadSpec spec_;
  std::vector<Daemon> daemons_;  ///< backends first, router (if any) last
};

/// Spawned executables; set once from the build at startup.
void set_binaries(std::string serve, std::string route);

/// utime + stime of a process, in ms, from /proc/<pid>/stat.
double process_cpu_ms(pid_t pid);
/// VmHWM of a process, in MB, from /proc/<pid>/status.
double process_peak_rss_mb(pid_t pid);
/// The first line of /proc/loadavg.
std::string loadavg();
/// CPU time this machine's vCPUs waited for a physical CPU (steal), in
/// ms summed over vCPUs, from /proc/stat: how much other tenants of the
/// host took.
double steal_ms();

}  // namespace svcbench
