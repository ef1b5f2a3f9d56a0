// The session threads of one daemon: one thread per accepted connection,
// shared by the solver server and the router.
//
// A session marks itself done as its last step, and each spawn() first
// joins the sessions that have finished. So a daemon that serves a stream
// of short connections holds threads (and stacks) only for the
// connections still open, not for every connection it ever accepted.
// close() refuses new sessions and wakes every live reader; join_all()
// then joins them at shutdown.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <thread>

#include "svc/socket.h"
#include "util/sync.h"

namespace mecsc::svc {

class SessionSet {
 public:
  using Body = std::function<void(ConnectionPtr)>;

  SessionSet() = default;
  /// Closes and joins whatever is still running (the daemons close and
  /// join explicitly during their drain; this is the safety net).
  ~SessionSet();
  SessionSet(const SessionSet&) = delete;
  SessionSet& operator=(const SessionSet&) = delete;

  /// Joins the sessions that have finished, then runs `body(conn)` on a
  /// new thread. Returns false, starting nothing, once close() has run;
  /// the caller still owns `conn` and may answer it. Joins happen outside
  /// the set's lock.
  bool spawn(const ConnectionPtr& conn, Body body);

  /// Refuses further spawns and shuts down the read side of every live
  /// session's connection, so blocked readers see EOF. Idempotent.
  void close();

  /// Joins every session. Call after close(), once nothing spawns any
  /// more (the acceptor has exited).
  void join_all();

  /// Sessions started and not yet joined.
  std::size_t size() const;

 private:
  struct Session {
    std::weak_ptr<Connection> conn;
    std::thread thread;
    /// The thread's last write; a session showing it joins at once.
    std::atomic<bool> done{false};
  };

  mutable util::Mutex mutex_;
  /// std::list: each thread holds a reference to its own node's `done`,
  /// so nodes must not move.
  std::list<Session> sessions_ MECSC_GUARDED_BY(mutex_);
  bool closed_ MECSC_GUARDED_BY(mutex_) = false;
};

}  // namespace mecsc::svc
