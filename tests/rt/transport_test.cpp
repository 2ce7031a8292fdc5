#include "rt/transport.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

std::pair<std::unique_ptr<SocketTransport>, std::unique_ptr<SocketTransport>> make_sockets() {
  auto r = SocketTransport::make_socketpair();
  EXPECT_TRUE(r.is_ok());
  return std::move(r).value();
}

TEST(SocketTransport, RoundTrip) {
  auto [a, b] = make_sockets();
  const char msg[] = "hello forwarding";
  ASSERT_TRUE(a->write_all(msg, sizeof msg).is_ok());
  char got[sizeof msg];
  ASSERT_TRUE(b->read_exact(got, sizeof got).is_ok());
  EXPECT_STREQ(got, msg);
  // Reverse direction.
  ASSERT_TRUE(b->write_all("pong", 4).is_ok());
  char pong[4];
  ASSERT_TRUE(a->read_exact(pong, 4).is_ok());
  EXPECT_EQ(std::memcmp(pong, "pong", 4), 0);
}

TEST(SocketTransport, LargeTransfer) {
  auto [a, b] = make_sockets();
  // Bigger than the socket's send buffer: write_all must block and resume.
  std::vector<std::byte> data(3 * (1 << 20));
  Rng rng(42);
  for (auto& x : data) x = static_cast<std::byte>(rng.next());
  std::thread writer([&] { ASSERT_TRUE(a->write_all(data.data(), data.size()).is_ok()); });
  std::vector<std::byte> got(data.size());
  ASSERT_TRUE(b->read_exact(got.data(), got.size()).is_ok());
  writer.join();
  EXPECT_EQ(got, data);
}

TEST(SocketTransport, CloseUnblocksReader) {
  auto [a, b] = make_sockets();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->close();
  });
  char buf[16];
  const Status st = b->read_exact(buf, sizeof buf);
  closer.join();
  EXPECT_EQ(st.code(), Errc::shutdown);
}

TEST(SocketTransport, WriteAllToClosedPeerReturnsShutdownWithoutSigpipe) {
  // Run with SIGPIPE at its default action (terminate), so a raised SIGPIPE
  // would kill the test binary.
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGPIPE, &dfl, &saved), 0);
  auto [a, b] = make_sockets();
  b.reset();  // the peer's fd is closed
  const std::vector<std::byte> buf(64 * 1024);
  EXPECT_EQ(a->write_all(buf.data(), buf.size()).code(), Errc::shutdown);
  EXPECT_EQ(a->write_all(buf.data(), buf.size()).code(), Errc::shutdown);
  // Survived, and not because a handler was installed behind our back.
  struct sigaction now {};
  ASSERT_EQ(::sigaction(SIGPIPE, &saved, &now), 0);
  EXPECT_EQ(now.sa_handler, SIG_DFL);
}

TEST(SocketTransport, ManySmallMessagesInterleaved) {
  auto [a, b] = make_sockets();
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < 10000; ++i) {
      ASSERT_TRUE(a->write_all(&i, sizeof i).is_ok());
    }
  });
  for (std::uint32_t i = 0; i < 10000; ++i) {
    std::uint32_t v = 0;
    ASSERT_TRUE(b->read_exact(&v, sizeof v).is_ok());
    ASSERT_EQ(v, i);
  }
  producer.join();
}

// --------------------------------------------------------------------------
// Readiness API (epoll receiver lanes, DESIGN.md §13): readiness_fd +
// read_some.
// --------------------------------------------------------------------------

TEST(SocketTransport, ReadSomeDrainsThenWouldBlocks) {
  auto [a, b] = make_sockets();
  ASSERT_TRUE(a->write_all("abcdef", 6).is_ok());
  char buf[16];
  // A ready stream hands over what it has, without blocking.
  auto r = b->read_some(buf, sizeof buf);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r.value(), 6u);
  EXPECT_EQ(std::memcmp(buf, "abcdef", 6), 0);
  // Drained: the next read must report would_block, never block.
  r = b->read_some(buf, sizeof buf);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::would_block);
  // Peer close turns would_block into shutdown.
  a->close();
  r = b->read_some(buf, sizeof buf);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::shutdown);
}

TEST(SocketTransport, ReadinessFdIsTheSocket) {
  auto [a, b] = make_sockets();
  // Sockets are full-duplex on one fd: a lane registers it once for
  // EPOLLIN and widens the same registration with EPOLLOUT on would_block.
  EXPECT_GE(a->readiness_fd(), 0);
  EXPECT_EQ(a->readiness_fd(), a->fd());
  EXPECT_EQ(b->readiness_fd(), b->fd());
}

// --------------------------------------------------------------------------
// Write-side API (async send path, DESIGN.md §15): write_some/writev_some.
// --------------------------------------------------------------------------

TEST(SocketTransport, WritevSomeGathersSpans) {
  auto [a, b] = make_sockets();
  const std::array<std::byte, 4> h1{std::byte{'a'}, std::byte{'b'}, std::byte{'c'},
                                    std::byte{'d'}};
  const std::array<std::byte, 3> h2{std::byte{'e'}, std::byte{'f'}, std::byte{'g'}};
  const std::array<std::span<const std::byte>, 3> iov{
      std::span<const std::byte>(h1), std::span<const std::byte>{},  // empty span skipped
      std::span<const std::byte>(h2)};
  std::size_t sent = 0;
  while (sent < 7) {
    auto r = a->writev_some(std::span<const std::span<const std::byte>>(iov));
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    // This test's spans always fit in one call.
    sent += r.value();
    ASSERT_EQ(sent, 7u);
  }
  char got[7];
  ASSERT_TRUE(b->read_exact(got, 7).is_ok());
  EXPECT_EQ(std::memcmp(got, "abcdefg", 7), 0);
}

TEST(SocketTransport, WriteSomeNeverBlocks) {
  auto [a, b] = make_sockets();
  // Stuff the socket until the kernel buffer is full: the call must report
  // would_block, not wedge the thread (sends use MSG_DONTWAIT even though
  // the fd stays blocking for write_all compatibility).
  std::vector<std::byte> chunk(256 * 1024, std::byte{7});
  while (true) {
    auto r = a->write_some(chunk.data(), chunk.size());
    if (!r.is_ok()) {
      EXPECT_EQ(r.code(), Errc::would_block);
      break;
    }
  }
  // Drain on the peer side until the sender recovers (unix sockets free
  // sender budget only as the receiver consumes skbs, so keep reading).
  std::vector<std::byte> sink(1 << 16);
  bool wrote = false;
  for (int i = 0; i < 1000 && !wrote; ++i) {
    ASSERT_TRUE(b->read_exact(sink.data(), 4096).is_ok());
    auto r = a->write_some(chunk.data(), 1);
    if (r.is_ok()) {
      wrote = true;
    } else {
      ASSERT_EQ(r.code(), Errc::would_block);
    }
  }
  EXPECT_TRUE(wrote);
}

TEST(UnixListener, AcceptAndEcho) {
  const std::string path = "/tmp/iofwd_test_" + std::to_string(::getpid()) + ".sock";
  auto listener = UnixListener::bind(path);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();

  std::thread server([&] {
    auto conn = listener.value()->accept();
    ASSERT_TRUE(conn.is_ok());
    char buf[5];
    ASSERT_TRUE(conn.value()->read_exact(buf, 5).is_ok());
    ASSERT_TRUE(conn.value()->write_all(buf, 5).is_ok());
  });

  auto client = SocketTransport::connect_unix(path);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_TRUE(client.value()->write_all("abcde", 5).is_ok());
  char got[5];
  ASSERT_TRUE(client.value()->read_exact(got, 5).is_ok());
  EXPECT_EQ(std::memcmp(got, "abcde", 5), 0);
  server.join();
}

int send_buffer_bytes(ByteStream& s) {
  int v = 0;
  socklen_t len = sizeof v;
  EXPECT_EQ(::getsockopt(s.readiness_fd(), SOL_SOCKET, SO_SNDBUF, &v, &len), 0);
  return v;
}

// Every AF_UNIX socket the transport creates asks for 2 MiB, which the
// kernel doubles: a whole 1 MiB reply or 256 KiB request fits in one send.
TEST(UnixListener, EverySocketGetsAFrameSizedSendBuffer) {
  if (!testsupport::unix_send_buffers_unclamped()) GTEST_SKIP() << "net.core.wmem_max < 2 MiB";
  constexpr int kWant = 4 << 20;
  auto [a, b] = make_sockets();
  EXPECT_GE(send_buffer_bytes(*a), kWant);
  EXPECT_GE(send_buffer_bytes(*b), kWant);

  const std::string path = "/tmp/iofwd_sndbuf_" + std::to_string(::getpid()) + ".sock";
  auto listener = UnixListener::bind(path);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto client = SocketTransport::connect_unix(path);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto accepted = listener.value()->accept();
  ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
  EXPECT_GE(send_buffer_bytes(*client.value()), kWant);
  EXPECT_GE(send_buffer_bytes(*accepted.value()), kWant);
}

TEST(SocketTransport, OneWritevCarriesAHeaderAndAMiBPayload) {
  if (!testsupport::unix_send_buffers_unclamped()) GTEST_SKIP() << "net.core.wmem_max < 2 MiB";
  auto [a, b] = make_sockets();
  const std::vector<std::byte> hdr(FrameHeader::kWireSize, std::byte{0xab});
  const auto payload = testsupport::pattern(1 << 20, 77);
  const std::array<std::span<const std::byte>, 2> iov{std::span<const std::byte>(hdr),
                                                      std::span<const std::byte>(payload)};
  auto r = a->writev_some(std::span<const std::span<const std::byte>>(iov));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r.value(), hdr.size() + payload.size());
  std::vector<std::byte> got(hdr.size() + payload.size());
  ASSERT_TRUE(b->read_exact(got.data(), got.size()).is_ok());
  EXPECT_TRUE(std::equal(hdr.begin(), hdr.end(), got.begin()));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), got.begin() + hdr.size()));
}

TEST(UnixListener, ConnectToMissingPathFails) {
  auto r = SocketTransport::connect_unix("/tmp/iofwd_definitely_missing.sock");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::not_connected);
}

TEST(UnixListener, PathTooLongRejected) {
  const std::string long_path(300, 'x');
  EXPECT_FALSE(UnixListener::bind(long_path).is_ok());
  EXPECT_FALSE(SocketTransport::connect_unix(long_path).is_ok());
}

TEST(TcpListener, AcceptAndEchoOverLoopback) {
  auto listener = TcpListener::bind(0);  // ephemeral port
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  const std::uint16_t port = listener.value()->port();
  ASSERT_GT(port, 0);

  std::thread server([&] {
    auto conn = listener.value()->accept();
    ASSERT_TRUE(conn.is_ok());
    char buf[7];
    ASSERT_TRUE(conn.value()->read_exact(buf, 7).is_ok());
    ASSERT_TRUE(conn.value()->write_all(buf, 7).is_ok());
  });

  auto client = SocketTransport::connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_TRUE(client.value()->write_all("forward", 7).is_ok());
  char got[7];
  ASSERT_TRUE(client.value()->read_exact(got, 7).is_ok());
  EXPECT_EQ(std::memcmp(got, "forward", 7), 0);
  server.join();
}

TEST(TcpListener, ConnectToClosedPortFails) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  const auto port = listener.value()->port();
  listener.value()->close();
  auto c = SocketTransport::connect_tcp("127.0.0.1", port);
  EXPECT_FALSE(c.is_ok());
}

TEST(TcpListener, BadBindAddressRejected) {
  EXPECT_FALSE(TcpListener::bind(0, "not-an-ip").is_ok());
}

TEST(TcpListener, ServerClientOverTcp) {
  // Full runtime stack over real TCP loopback.
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  const auto port = listener.value()->port();

  IonServer server(std::make_unique<MemBackend>(), {});
  server.serve_listener(std::move(listener).value());

  auto stream = SocketTransport::connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(stream.is_ok());
  Client client(std::move(stream).value());
  ASSERT_TRUE(client.open(1, "tcp_file").is_ok());
  std::vector<std::byte> data(256 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i * 7);
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());
  auto r = client.read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  ASSERT_TRUE(client.close(1).is_ok());
  server.stop();
}

}  // namespace
}  // namespace iofwd::rt
