#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace svcbench {
namespace {

std::string g_serve_bin;
std::string g_route_bin;

/// Readiness poll period; routed_small sets up in tens of ms, so a coarse
/// period would show in setup_s.
constexpr auto kReadyPoll = std::chrono::microseconds(100);
constexpr double kReadyTimeoutS = 30.0;
constexpr double kStopTimeoutS = 10.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Reaps `pid` if it has exited; returns true and the wait status then.
bool reaped(pid_t pid, int* status) {
  while (true) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
}

/// The last `max_bytes` of a daemon's output, for error reports.
std::string file_tail(const std::string& path, std::size_t max_bytes = 2000) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.size() > max_bytes) text = "..." + text.substr(text.size() - max_bytes);
  return text;
}

std::string describe_status(int status) {
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

}  // namespace

std::string call(mecsc::svc::Connection& conn, const std::string& request) {
  std::optional<std::string> response;
  if (!conn.write_line(request) || !(response = conn.read_line(kMaxLine)))
    throw std::runtime_error("control request dropped: " + request);
  return *response;
}

// ---------------------------------------------------------------------------
// Fleet

void set_binaries(std::string serve, std::string route) {
  g_serve_bin = std::move(serve);
  g_route_bin = std::move(route);
}

Fleet::Fleet(const WorkloadSpec& spec, std::string prefix, bool request_log)
    : spec_(spec) {
  auto add = [&](const std::string& name) {
    Daemon d;
    d.name = name;
    d.socket = prefix + "-" + name + ".sock";
    d.stderr_path = prefix + "-" + name + ".err";
    if (request_log) d.log_path = prefix + "-" + name + ".log";
    daemons_.push_back(std::move(d));
  };
  if (spec_.routed) {
    for (const std::string& name : backend_names(spec_.backends)) add(name);
    add("router");
  } else {
    add("server");
  }
}

Fleet::~Fleet() {
  for (Daemon& d : daemons_) {
    if (d.pid <= 0) continue;
    ::kill(d.pid, SIGKILL);
    int status = 0;
    while (::waitpid(d.pid, &status, 0) < 0 && errno == EINTR) {
    }
    d.pid = -1;
  }
}

void Fleet::spawn(Daemon& d, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int err_fd =
      ::open(d.stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (err_fd < 0)
    throw std::runtime_error("cannot create " + d.stderr_path + ": " +
                             std::strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(err_fd);
    throw std::runtime_error(std::string("fork(): ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: die with the driver, whatever way it exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(err_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(err_fd);
  d.pid = pid;
}

void Fleet::wait_ready(Daemon& d) {
  const auto t0 = std::chrono::steady_clock::now();
  while (true) {
    try {
      mecsc::svc::connect_unix(d.socket);
      return;
    } catch (const std::runtime_error&) {
      // Not accepting yet.
    }
    int status = 0;
    if (reaped(d.pid, &status)) {
      d.pid = -1;
      throw std::runtime_error(d.name + " exited during start-up (" +
                               describe_status(status) + "); its output:\n" +
                               file_tail(d.stderr_path));
    }
    if (seconds_since(t0) > kReadyTimeoutS)
      throw std::runtime_error(d.name + " did not accept connections within " +
                               std::to_string(kReadyTimeoutS) +
                               " s; its output:\n" + file_tail(d.stderr_path));
    std::this_thread::sleep_for(kReadyPoll);
  }
}

void Fleet::start() {
  std::vector<std::string> backend_flags;
  for (Daemon& d : daemons_) {
    if (d.name == "router") continue;
    std::vector<std::string> args = {
        g_serve_bin, "--unix-socket", d.socket, "--threads",
        std::to_string(spec_.server_threads), "--cache-capacity",
        std::to_string(spec_.cache_capacity)};
    if (!d.log_path.empty()) {
      args.push_back("--request-log");
      args.push_back(d.log_path);
    }
    spawn(d, args);
    backend_flags.push_back("--backend");
    backend_flags.push_back(d.name + "=unix:" + d.socket);
  }
  for (Daemon& d : daemons_)
    if (d.name != "router") wait_ready(d);
  if (spec_.routed) {
    Daemon& r = daemons_.back();
    std::vector<std::string> args = {g_route_bin, "--unix-socket", r.socket};
    args.insert(args.end(), backend_flags.begin(), backend_flags.end());
    if (!r.log_path.empty()) {
      args.push_back("--request-log");
      args.push_back(r.log_path);
    }
    spawn(r, args);
    wait_ready(r);
  }
}

std::vector<std::string> Fleet::stop() {
  std::vector<std::string> problems;
  // The router first, so nothing forwards to a backend that is going.
  for (auto it = daemons_.rbegin(); it != daemons_.rend(); ++it) {
    Daemon& d = *it;
    if (d.pid <= 0) continue;
    try {
      call(*mecsc::svc::connect_unix(d.socket), "{\"type\":\"shutdown\"}");
    } catch (const std::exception& e) {
      problems.push_back(d.name + ": shutdown request failed: " + e.what());
    }
    const auto t0 = std::chrono::steady_clock::now();
    int status = 0;
    bool gone = reaped(d.pid, &status);
    while (!gone && seconds_since(t0) < kStopTimeoutS) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      gone = reaped(d.pid, &status);
    }
    if (!gone) {
      ::kill(d.pid, SIGKILL);
      while (::waitpid(d.pid, &status, 0) < 0 && errno == EINTR) {
      }
      problems.push_back(d.name + ": did not exit after shutdown; killed");
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      problems.push_back(d.name + ": " + describe_status(status) +
                         "; its output:\n" + file_tail(d.stderr_path));
    }
    d.pid = -1;
  }
  return problems;
}

const std::string& Fleet::front() const { return daemons_.back().socket; }

std::vector<const Daemon*> Fleet::servers() const {
  std::vector<const Daemon*> out;
  for (const Daemon& d : daemons_)
    if (d.name != "router") out.push_back(&d);
  return out;
}

const Daemon* Fleet::router() const {
  return spec_.routed ? &daemons_.back() : nullptr;
}

std::vector<pid_t> Fleet::pids() const {
  std::vector<pid_t> out;
  for (const Daemon& d : daemons_) out.push_back(d.pid);
  return out;
}

// ---------------------------------------------------------------------------
// /proc readers

double process_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after it.
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos)
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) + "/stat");
  std::istringstream fields(text.substr(paren + 2));
  std::string skip;
  for (int i = 0; i < 11; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  std::getline(in, line);
  return line;
}

double steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (unsigned long long& x : v) in >> x;
  return static_cast<double>(v[7]) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace svcbench
