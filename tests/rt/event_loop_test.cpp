#include "rt/event_loop.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "rt/transport.hpp"

namespace iofwd::rt {
namespace {

std::vector<std::uint64_t> keys_of(const std::vector<Event>& ready) {
  std::vector<std::uint64_t> keys;
  keys.reserve(ready.size());
  for (const Event& ev : ready) keys.push_back(ev.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(EventLoop, ConstructsValid) {
  EventLoop loop;
  EXPECT_TRUE(loop.valid());
}

TEST(EventLoop, WakeReturnsWithNoKeys) {
  EventLoop loop;
  std::vector<Event> ready;
  std::thread waker([&] { loop.wake(); });
  EXPECT_TRUE(loop.wait(ready));
  waker.join();
  EXPECT_TRUE(ready.empty());
}

TEST(EventLoop, CloseMakesWaitReturnFalse) {
  EventLoop loop;
  std::vector<Event> ready;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    loop.close();
  });
  EXPECT_FALSE(loop.wait(ready));
  closer.join();
  // Closed stays closed: an immediate re-wait must not block.
  EXPECT_FALSE(loop.wait(ready));
}

TEST(EventLoop, ReportsRegisteredKeyOnReadiness) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(loop.add(fds[0], 0x1234).is_ok());

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  std::vector<Event> ready;
  ASSERT_TRUE(loop.wait(ready));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key, 0x1234u);
  EXPECT_TRUE(ready[0].readable);
  EXPECT_FALSE(ready[0].writable);  // read-only registration

  loop.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, EdgeTriggeredFiresOncePerEdge) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(loop.add(fds[0], 7).is_ok());

  ASSERT_EQ(::write(fds[1], "a", 1), 1);
  std::vector<Event> ready;
  ASSERT_TRUE(loop.wait(ready));
  ASSERT_EQ(ready.size(), 1u);

  // Without draining fds[0], no *new* edge exists: a bare wake() must come
  // back with no ready keys (this is the ET contract lanes rely on — they
  // drain to would_block before waiting again).
  ready.clear();
  loop.wake();
  ASSERT_TRUE(loop.wait(ready));
  EXPECT_TRUE(ready.empty());

  // A fresh write is a fresh edge.
  ASSERT_EQ(::write(fds[1], "b", 1), 1);
  ready.clear();
  ASSERT_TRUE(loop.wait(ready));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key, 7u);

  loop.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, MultipleFdsReportDistinctKeys) {
  EventLoop loop;
  int p1[2], p2[2];
  ASSERT_EQ(::pipe(p1), 0);
  ASSERT_EQ(::pipe(p2), 0);
  ASSERT_TRUE(loop.add(p1[0], 1).is_ok());
  ASSERT_TRUE(loop.add(p2[0], 2).is_ok());

  ASSERT_EQ(::write(p1[1], "x", 1), 1);
  ASSERT_EQ(::write(p2[1], "y", 1), 1);
  std::vector<Event> ready;
  while (ready.size() < 2) {
    ASSERT_TRUE(loop.wait(ready));
  }
  const auto keys = keys_of(ready);
  EXPECT_EQ(keys[0], 1u);
  EXPECT_EQ(keys[1], 2u);

  for (int* p : {p1, p2}) {
    loop.remove(p[0]);
    ::close(p[0]);
    ::close(p[1]);
  }
}

TEST(EventLoop, WatchesSocketReadinessFd) {
  // The fd a lane actually registers: a connected socket's readiness fd.
  EventLoop loop;
  auto pair = SocketTransport::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  auto [a, b] = std::move(pair).value();
  ASSERT_TRUE(loop.add(b->readiness_fd(), 42).is_ok());

  ASSERT_TRUE(a->write_all("ping", 4).is_ok());
  std::vector<Event> ready;
  ASSERT_TRUE(loop.wait(ready));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key, 42u);

  // Drain to would_block, then a peer close must produce another edge.
  char buf[8];
  ASSERT_TRUE(b->read_some(buf, sizeof buf).is_ok());
  ASSERT_EQ(b->read_some(buf, sizeof buf).code(), Errc::would_block);
  a->close();
  ready.clear();
  ASSERT_TRUE(loop.wait(ready));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key, 42u);
  EXPECT_EQ(b->read_some(buf, sizeof buf).code(), Errc::shutdown);
}

// Write interest (DESIGN.md §15): a writable pipe registered read_write
// reports writable immediately — EPOLL_CTL_MOD/ADD re-evaluate readiness, so
// arming after a would_block cannot lose the edge.
TEST(EventLoop, WriteInterestReportsWritable) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(loop.add(fds[1], 9, Interest::write).is_ok());

  std::vector<Event> ready;
  ASSERT_TRUE(loop.wait(ready));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key, 9u);
  EXPECT_TRUE(ready[0].writable);
  EXPECT_FALSE(ready[0].readable);

  loop.remove(fds[1]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// The send-path arming sequence: start read-only, hit would_block, widen to
// read_write with modify(), get EPOLLOUT once the reader drains, then narrow
// back to read-only without churn.
TEST(EventLoop, ModifyArmsAndDisarmsWriteInterest) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::fcntl(fds[1], F_SETFL, O_NONBLOCK), 0);
  ASSERT_TRUE(loop.add(fds[1], 5).is_ok());  // read interest: never fires

  // Fill the pipe to force the writer to park.
  std::vector<char> chunk(64 * 1024, 'x');
  while (::write(fds[1], chunk.data(), chunk.size()) > 0) {
  }

  ASSERT_TRUE(loop.modify(fds[1], 5, Interest::read_write).is_ok());
  // Not writable yet: a bare wake returns empty (no spurious EPOLLOUT while
  // the pipe is full).
  std::vector<Event> ready;
  loop.wake();
  ASSERT_TRUE(loop.wait(ready));
  bool writable = false;
  for (const Event& ev : ready) writable = writable || ev.writable;

  // Drain the pipe: the kernel's buffer gains space -> EPOLLOUT edge.
  std::vector<char> sink(1 << 20);
  while (::read(fds[0], sink.data(), sink.size()) == static_cast<ssize_t>(sink.size())) {
  }
  while (!writable) {
    ready.clear();
    ASSERT_TRUE(loop.wait(ready));
    for (const Event& ev : ready) {
      if (ev.key == 5u && ev.writable) writable = true;
    }
  }

  // Narrow back to read interest; a bare wake must not report writable again.
  ASSERT_TRUE(loop.modify(fds[1], 5, Interest::read).is_ok());
  ready.clear();
  loop.wake();
  ASSERT_TRUE(loop.wait(ready));
  for (const Event& ev : ready) EXPECT_FALSE(ev.writable);

  loop.remove(fds[1]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, AddBadFdFails) {
  EventLoop loop;
  EXPECT_FALSE(loop.add(-1, 9).is_ok());
}

}  // namespace
}  // namespace iofwd::rt
