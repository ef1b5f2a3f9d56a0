// Session-thread lifecycle (svc/sessions.h): finished sessions are joined
// as new ones start, close() wakes blocked readers and refuses new
// sessions, and join_all() returns once every reader has seen EOF. The
// SvcSessions suite carries the ctest `concurrency` label
// (tests/CMakeLists.txt), so it runs under TSan in CI.
#include "svc/sessions.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace mecsc::svc {
namespace {

/// Both ends of a connected Unix stream pair: a session reads `server`,
/// the test holds `client`.
struct Pair {
  ConnectionPtr server;
  ConnectionPtr client;
};

Pair connected_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_shared<Connection>(fds[0]),
          std::make_shared<Connection>(fds[1])};
}

/// Session body: reads lines until EOF, then counts itself finished.
SessionSet::Body reader(std::atomic<int>& finished) {
  return [&finished](ConnectionPtr conn) {
    while (conn->read_line(1024)) {
    }
    finished.fetch_add(1);
  };
}

TEST(SvcSessions, FinishedSessionsAreJoinedAsNewOnesStart) {
  SessionSet sessions;
  std::atomic<int> finished{0};
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    Pair pair = connected_pair();
    ASSERT_TRUE(sessions.spawn(pair.server, reader(finished)));
    pair.client.reset();  // EOF: the session ends
    pair.server.reset();
    while (finished.load() < i + 1) std::this_thread::yield();
  }
  // Without reaping all 200 would still be held. Each spawn joins every
  // session already marked done, so only the last few, which may not have
  // taken their last step before the next spawn, can remain.
  EXPECT_LT(sessions.size(), 10u);
  sessions.close();
  sessions.join_all();
  EXPECT_EQ(sessions.size(), 0u);
}

TEST(SvcSessions, CloseWakesReadersAndRefusesNewSessions) {
  SessionSet sessions;
  std::atomic<int> finished{0};
  std::vector<Pair> pairs;
  for (int i = 0; i < 3; ++i) {
    pairs.push_back(connected_pair());
    ASSERT_TRUE(sessions.spawn(pairs.back().server, reader(finished)));
  }
  // Every client is still open: only close() can end these reads.
  sessions.close();
  sessions.join_all();
  EXPECT_EQ(finished.load(), 3);
  const Pair late = connected_pair();
  EXPECT_FALSE(sessions.spawn(late.server, reader(finished)));
  EXPECT_EQ(sessions.size(), 0u);
}

}  // namespace
}  // namespace mecsc::svc
