#include "svc/sessions.h"

#include <iterator>
#include <utility>

namespace mecsc::svc {

SessionSet::~SessionSet() {
  close();
  join_all();
}

bool SessionSet::spawn(const ConnectionPtr& conn, Body body) {
  std::list<Session> finished;
  bool started = false;
  {
    const util::MutexLock lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto next = std::next(it);
      if (it->done.load(std::memory_order_acquire))
        finished.splice(finished.end(), sessions_, it);
      it = next;
    }
    if (!closed_) {
      Session& session = sessions_.emplace_back();
      session.conn = conn;
      session.thread = std::thread(
          [body = std::move(body), conn, &done = session.done]() mutable {
            body(std::move(conn));
            done.store(true, std::memory_order_release);
          });
      started = true;
    }
  }
  for (Session& session : finished) session.thread.join();
  return started;
}

void SessionSet::close() {
  const util::MutexLock lock(mutex_);
  closed_ = true;
  for (const Session& session : sessions_)
    if (ConnectionPtr conn = session.conn.lock()) conn->shutdown_read();
}

void SessionSet::join_all() {
  std::list<Session> all;
  {
    const util::MutexLock lock(mutex_);
    all.swap(sessions_);
  }
  for (Session& session : all)
    if (session.thread.joinable()) session.thread.join();
}

std::size_t SessionSet::size() const {
  const util::MutexLock lock(mutex_);
  return sessions_.size();
}

}  // namespace mecsc::svc
