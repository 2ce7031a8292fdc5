// End-to-end tests of the real forwarding runtime: IonServer + Client over
// socketpairs and listeners, across all three execution models.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::claiming_server;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TestCluster cluster(ExecModel exec, ServerConfig cfg = {}) {
  ClusterOptions o;
  o.server = cfg;
  o.server.exec = exec;
  return TestCluster(o);
}

class AllModels : public ::testing::TestWithParam<ExecModel> {};

TEST_P(AllModels, OpenWriteReadCloseRoundTrip) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(1, "file").is_ok());
  const auto data = pattern(1_MiB, 7);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  ASSERT_TRUE(tc.client().fsync(1).is_ok());  // barrier so async lands
  auto r = tc.client().read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST_P(AllModels, OffsetWritesAssembleCorrectly) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(3, "f").is_ok());
  const auto a = pattern(64_KiB, 1);
  const auto b = pattern(64_KiB, 2);
  ASSERT_TRUE(tc.client().write(3, 64_KiB, b).is_ok());
  ASSERT_TRUE(tc.client().write(3, 0, a).is_ok());
  auto r = tc.client().read(3, 0, 128_KiB);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), r.value().begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), r.value().begin() + 64_KiB));
  EXPECT_TRUE(tc.client().close(3).is_ok());
}

TEST_P(AllModels, WriteToUnopenedFdFails) {
  TestCluster tc = cluster(GetParam());
  const auto data = pattern(4096, 3);
  Status st = tc.client().write(9, 0, data);
  if (GetParam() == ExecModel::work_queue_async) {
    // Staging is acknowledged; the failure is deferred to the next op.
    st = tc.client().fsync(9);
  }
  EXPECT_EQ(st.code(), Errc::bad_descriptor);
}

TEST_P(AllModels, ManySequentialOps) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(1, "big").is_ok());
  const auto chunk = pattern(16_KiB, 9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tc.client().write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(tc.client().fsync(1).is_ok());
  auto r = tc.client().read(1, 99 * chunk.size(), chunk.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), chunk);
  EXPECT_TRUE(tc.client().close(1).is_ok());
  const auto s = tc.server().metrics();
  EXPECT_GE(s.counter("server.ops"), 103u);
  EXPECT_GE(s.counter("server.bytes_in"), 100 * chunk.size());
}

TEST_P(AllModels, ConcurrentClientsIntegrity) {
  constexpr int kClients = 8;
  ClusterOptions o;
  o.server.exec = GetParam();
  o.clients = kClients;
  TestCluster tc(o);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto& c = tc.client(static_cast<std::size_t>(i));
      const int fd = 10 + i;
      const auto data = pattern(256_KiB, static_cast<std::uint64_t>(i));
      if (!c.open(fd, "client_" + std::to_string(i)).is_ok()) ++failures;
      for (int op = 0; op < 20; ++op) {
        if (!c.write(fd, static_cast<std::uint64_t>(op) * data.size(), data).is_ok()) {
          ++failures;
        }
      }
      if (!c.fsync(fd).is_ok()) ++failures;
      auto r = c.read(fd, 19 * data.size(), data.size());
      if (!r.is_ok() || r.value() != data) ++failures;
      if (!c.close(fd).is_ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
}

TEST_P(AllModels, FstatReportsSize) {
  TestCluster tc = cluster(GetParam());
  ASSERT_TRUE(tc.client().open(1, "sized").is_ok());
  auto empty = tc.client().fstat_size(1);
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value(), 0u);
  const auto data = pattern(192_KiB, 21);
  ASSERT_TRUE(tc.client().write(1, 64_KiB, data).is_ok());
  // fstat drains in-flight async writes, so the size is exact.
  auto sz = tc.client().fstat_size(1);
  ASSERT_TRUE(sz.is_ok());
  EXPECT_EQ(sz.value(), 256_KiB);
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST_P(AllModels, FstatUnknownFdFails) {
  TestCluster tc = cluster(GetParam());
  EXPECT_EQ(tc.client().fstat_size(77).code(), Errc::bad_descriptor);
}

TEST_P(AllModels, ShutdownOpcodeDisconnects) {
  TestCluster tc = cluster(GetParam());
  EXPECT_TRUE(tc.client().shutdown().is_ok());
}

INSTANTIATE_TEST_SUITE_P(Models, AllModels,
                         ::testing::Values(ExecModel::thread_per_client, ExecModel::work_queue,
                                           ExecModel::work_queue_async),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

// ---------------------------------------------------------------------------
// Async-staging semantics
// ---------------------------------------------------------------------------

TEST(AsyncRt, WriteIsAcknowledgedAsStaged) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 4);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_TRUE(tc.client().last_write_was_staged());
  ASSERT_TRUE(tc.client().close(1).is_ok());
}

TEST(SyncRt, WriteIsNotStaged) {
  TestCluster tc = cluster(ExecModel::work_queue);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(4096, 4);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_FALSE(tc.client().last_write_was_staged());
}

TEST(AsyncRt, DeferredErrorReportedExactlyOnce) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  // Transient single-shot fault: the next backend write fails, then clears.
  tc.backend_plan().add({.op = fault::OpKind::write, .nth = 1, .error = Errc::io_error});
  const auto data = pattern(4096, 5);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  // fsync drains and must report the deferred failure.
  EXPECT_EQ(tc.client().fsync(1).code(), Errc::io_error);
  // Consumed: everything after is clean.
  EXPECT_TRUE(tc.client().fsync(1).is_ok());
  EXPECT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST(AsyncRt, CloseReportsDeferredError) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  tc.backend_plan().fail_always(fault::OpKind::write, Errc::io_error);
  const auto data = pattern(4096, 6);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  EXPECT_EQ(tc.client().close(1).code(), Errc::io_error);
  const auto s = tc.server().metrics();
  EXPECT_GE(s.counter("server.deferred_errors"), 1u);
}

TEST(AsyncRt, ReadAfterWriteIsConsistent) {
  // The read barrier: a read observes all previously staged writes.
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(1_MiB, 8);
  ASSERT_TRUE(tc.client().write(1, 0, data).is_ok());
  auto r = tc.client().read(1, 0, data.size());  // no fsync in between
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(tc.client().close(1).is_ok());
}

TEST(AsyncRt, BmlBackpressureStillDeliversEverything) {
  ServerConfig cfg;
  cfg.bml_bytes = 256 * 1024;  // tiny pool forces staging to block
  TestCluster tc = cluster(ExecModel::work_queue_async, cfg);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 9);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(tc.client().write(1, static_cast<std::uint64_t>(i) * data.size(), data).is_ok());
  }
  ASSERT_TRUE(tc.client().fsync(1).is_ok());
  auto r = tc.client().read(1, 63 * data.size(), data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(tc.client().close(1).is_ok());
  EXPECT_LE(tc.server().metrics().gauge("server.bml_high_watermark"), 256 * 1024);
}

TEST(Rt, OversizeWriteBouncesCleanly) {
  ServerConfig cfg;
  cfg.bml_bytes = 64 * 1024;
  TestCluster tc = cluster(ExecModel::work_queue, cfg);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(1_MiB, 10);  // exceeds the whole pool
  EXPECT_EQ(tc.client().write(1, 0, data).code(), Errc::no_memory);
  // The connection remains usable afterwards.
  const auto small = pattern(4096, 11);
  EXPECT_TRUE(tc.client().write(1, 0, small).is_ok());
}

// The smallest wiring, hand-built without TestCluster: one socketpair, one
// server, one client.
TEST(Rt, WorksOverSocketpair) {
  auto pair = SocketTransport::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  auto backend = std::make_unique<MemBackend>();
  IonServer server(std::move(backend), {});
  server.serve(std::move(pair.value().first));
  Client client(std::move(pair.value().second));
  ASSERT_TRUE(client.open(1, "sock").is_ok());
  const auto data = pattern(512_KiB, 12);
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());
  auto r = client.read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_TRUE(client.close(1).is_ok());
}

struct ClaimingPair {
  std::jthread server;
  Client client;
};

ClaimingPair claiming_pair(std::uint64_t claimed, std::size_t sent) {
  auto pair = SocketTransport::make_socketpair();
  EXPECT_TRUE(pair.is_ok());
  ClientConfig cfg;
  cfg.max_wire_version = 0;  // no hello: the first frame is the op under test
  return {claiming_server(std::move(pair.value().first), claimed, sent),
          Client(std::move(pair.value().second), cfg)};
}

TEST(Rt, ClientRejectsReplyLongerThanTheOpAllows) {
  {
    auto [server, client] = claiming_pair(4097, 0);
    auto r = client.read(1, 0, 4096);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.code(), Errc::protocol_error) << r.status().to_string();
  }
  {
    // The largest claim decode accepts must not be allocated for a 4 KiB read.
    auto [server, client] = claiming_pair(kMaxPayload, 0);
    auto r = client.read(1, 0, 4096);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.code(), Errc::protocol_error) << r.status().to_string();
  }
  {
    auto [server, client] = claiming_pair(9, 0);
    auto r = client.fstat_size(1);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.code(), Errc::protocol_error) << r.status().to_string();
  }
  {
    const auto data = pattern(4096, 15);
    auto [server, client] = claiming_pair(1, 0);
    EXPECT_EQ(client.write(1, 0, data).code(), Errc::protocol_error);
  }
  {
    auto [server, client] = claiming_pair(1, 0);
    EXPECT_EQ(client.fsync(1).code(), Errc::protocol_error);
  }
}

TEST(Rt, ClientAcceptsRepliesWithinTheOpBound) {
  {
    auto [server, client] = claiming_pair(4096, 4096);
    auto r = client.read(1, 0, 4096);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().size(), 4096u);
  }
  {
    auto [server, client] = claiming_pair(100, 100);  // short read at EOF
    auto r = client.read(1, 0, 4096);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().size(), 100u);
  }
  {
    auto [server, client] = claiming_pair(8, 8);
    auto r = client.fstat_size(1);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), 0x5a5a5a5a5a5a5a5aull);
  }
}

TEST(Rt, StatsAccumulate) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 13);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(tc.client().write(1, static_cast<std::uint64_t>(i) * data.size(), data).is_ok());
  }
  ASSERT_TRUE(tc.client().fsync(1).is_ok());
  const auto s = tc.server().metrics();
  EXPECT_EQ(s.counter("server.bytes_in"), 32 * data.size());
  EXPECT_GE(s.gauge("server.queue_batches"), 1);
  EXPECT_GE(s.gauge("server.queue_max_depth"), 1);
}

std::size_t open_fds() {
  return static_cast<std::size_t>(std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                                                std::filesystem::directory_iterator{}));
}

std::int64_t open_connections(const IonServer& server) {
  std::int64_t n = 0;
  for (const auto& [name, v] : server.metrics().gauges) {
    if (name.starts_with("server.rt.lane.") && name.ends_with(".open_connections")) n += v;
  }
  return n;
}

// A connection its lane dropped (here on peer EOF) is owned by nothing else:
// its stream and socket fd go away while the server keeps running.
TEST(Rt, DroppedConnectionsReleaseTheirFds) {
  IonServer server(std::make_unique<MemBackend>(), {});
  const auto wait_for = [](auto pred) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  };
  // The first connection spawns the lanes (an epoll fd and a wake fd
  // each), so the baseline is taken after it is served and gone.
  auto first = SocketTransport::make_socketpair().value();
  server.serve(std::move(first.first));
  first.second.reset();
  ASSERT_TRUE(wait_for([&] { return open_connections(server) == 0; }));
  const std::size_t baseline = open_fds();

  for (int i = 0; i < 200; ++i) {
    auto [s, c] = SocketTransport::make_socketpair().value();
    server.serve(std::move(s));
    c.reset();  // peer EOF: the lane drops the connection
  }
  ASSERT_TRUE(wait_for([&] { return open_connections(server) == 0; }));
  EXPECT_TRUE(wait_for([&] { return open_fds() <= baseline + 2; }))
      << open_fds() << " fds open, " << baseline << " before serving 200 connections";
  EXPECT_EQ(server.metrics().counter("server.conns_refused"), 0u);
}

TEST(Rt, StopIsIdempotentAndJoinsThreads) {
  TestCluster tc = cluster(ExecModel::work_queue_async);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  tc.stop();
  tc.stop();
  // Client calls now fail cleanly instead of hanging.
  const auto data = pattern(4096, 14);
  EXPECT_FALSE(tc.client().write(1, 0, data).is_ok());
}

// --------------------------------------------------------------------------
// Direct receive (DESIGN.md §13): write payloads are read straight into
// their BML lease. A 1 MiB write, a 4 KiB write and a read go out back to
// back, without waiting for replies, so frame boundaries fall wherever the
// socket splits them.
// --------------------------------------------------------------------------

constexpr std::uint64_t kBigWrite = 1_MiB;
constexpr std::uint64_t kSmallWrite = 4_KiB;

void append_frame(std::vector<std::byte>& wire, OpCode op, std::uint64_t seq,
                  std::uint64_t offset, std::span<const std::byte> payload,
                  std::uint64_t payload_len) {
  FrameHeader h;
  h.type = MsgType::request;
  h.op = op;
  h.version = 1;
  h.fd = op == OpCode::hello ? -1 : 1;
  h.seq = seq;
  h.offset = offset;
  h.payload_len = payload_len;
  if (!payload.empty()) h.stamp_payload_crc(payload);
  const std::size_t at = wire.size();
  wire.resize(at + FrameHeader::kWireSize);
  h.encode(std::span<std::byte, FrameHeader::kWireSize>(wire.data() + at,
                                                         FrameHeader::kWireSize));
  wire.insert(wire.end(), payload.begin(), payload.end());
}

// hello (v1, so payload CRCs are checked), open "f" as fd 1, the two writes,
// then a read of both: seqs 1..5.
std::vector<std::byte> back_to_back_requests(std::span<const std::byte> big,
                                             std::span<const std::byte> small) {
  std::vector<std::byte> wire;
  const auto path = std::as_bytes(std::span("f", 1));
  append_frame(wire, OpCode::hello, 1, 0, {}, 0);
  append_frame(wire, OpCode::open, 2, 0, path, path.size());
  append_frame(wire, OpCode::write, 3, 0, big, big.size());
  append_frame(wire, OpCode::write, 4, kBigWrite, small, small.size());
  append_frame(wire, OpCode::read, 5, 0, {}, kBigWrite + kSmallWrite);
  return wire;
}

class DirectReceiveOverSocket : public ::testing::TestWithParam<bool> {};

TEST_P(DirectReceiveOverSocket, BackToBackWritesAndReadOverSocketpairAreByteExact) {
  auto pair = SocketTransport::make_socketpair();
  ASSERT_TRUE(pair.is_ok());
  auto [server_end, client_end] = std::move(pair).value();
  MemBackend mem;
  IonServer server(std::make_unique<testsupport::BorrowedBackend>(mem), {});
  server.serve(std::move(server_end));

  const auto big = pattern(kBigWrite, 21);
  const auto small = pattern(kSmallWrite, 22);
  const auto wire = back_to_back_requests(big, small);
  // The requests outgrow the socket buffer, so send them from a second
  // thread while this one collects replies. The server keeps reading while
  // its replies queue, so the sender finishes even if an assertion below
  // returns early.
  std::jthread sender(
      [&] { EXPECT_TRUE(client_end->write_all(wire.data(), wire.size()).is_ok()); });
  std::map<std::uint64_t, std::pair<FrameHeader, std::vector<std::byte>>> replies;
  while (replies.size() < 5) {
    std::array<std::byte, FrameHeader::kWireSize> hdr{};
    ASSERT_TRUE(client_end->read_exact(hdr.data(), hdr.size()).is_ok());
    auto h = FrameHeader::decode(std::span<const std::byte, FrameHeader::kWireSize>(hdr));
    ASSERT_TRUE(h.is_ok()) << h.status().to_string();
    std::vector<std::byte> payload(h.value().payload_len);
    ASSERT_TRUE(client_end->read_exact(payload.data(), payload.size()).is_ok());
    EXPECT_TRUE(h.value().payload_crc_ok(payload));
    replies.emplace(h.value().seq, std::make_pair(h.value(), std::move(payload)));
  }
  sender.join();
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_EQ(replies.count(seq), 1u) << "seq " << seq;
    EXPECT_EQ(replies[seq].first.status, 0) << "seq " << seq;
  }
  std::vector<std::byte> expect = big;
  expect.insert(expect.end(), small.begin(), small.end());
  EXPECT_EQ(replies[5].second, expect);
  EXPECT_EQ(server.metrics().counter("server.integrity.payload_crc_errors"), 0u);
  client_end->close();
  server.stop();
  EXPECT_EQ(mem.snapshot("f"), expect);
}

INSTANTIATE_TEST_SUITE_P(Receivers, DirectReceiveOverSocket, ::testing::Values(true),
                         [](const auto&) { return "Lane"; });

TEST(DirectReceive, FeedBytesLandsBackToBackWritesByteExact) {
  // feed_bytes pumps the same byte stream through a receive lane over a
  // socketpair; its replies are discarded, so check the backend.
  MemBackend mem;
  IonServer server(std::make_unique<testsupport::BorrowedBackend>(mem), {});
  const auto big = pattern(kBigWrite, 23);
  const auto small = pattern(kSmallWrite, 24);
  const auto wire = back_to_back_requests(big, small);
  server.feed_bytes(wire);
  server.stop();
  std::vector<std::byte> expect = big;
  expect.insert(expect.end(), small.begin(), small.end());
  EXPECT_EQ(mem.snapshot("f"), expect);
  EXPECT_EQ(server.metrics().counter("server.integrity.payload_crc_errors"), 0u);
  EXPECT_EQ(server.metrics().counter("server.bytes_in"), kBigWrite + kSmallWrite);
}

}  // namespace
}  // namespace iofwd::rt
