#include "rt/async_client.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

struct Harness {
  MemBackend* mem = nullptr;
  std::shared_ptr<fault::FaultPlan> plan = std::make_shared<fault::FaultPlan>();
  std::unique_ptr<IonServer> server;
  std::unique_ptr<AsyncClient> client;

  explicit Harness(ExecModel exec, int window = 16) {
    ServerConfig cfg;
    cfg.exec = exec;
    auto inner = std::make_unique<MemBackend>();
    mem = inner.get();
    auto backend = std::make_unique<fault::FaultyBackend>(std::move(inner), plan);
    server = std::make_unique<IonServer>(std::move(backend), cfg);
    auto [a, b] = SocketTransport::make_socketpair().value();
    server->serve(std::move(a));
    client = std::make_unique<AsyncClient>(std::move(b), window);
  }
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

class AsyncClientModels : public ::testing::TestWithParam<ExecModel> {};

TEST_P(AsyncClientModels, PipelinedWritesAllLand) {
  Harness h(GetParam());
  ASSERT_TRUE(h.client->open(1, "p").get().is_ok());
  const auto data = pattern(64_KiB, 1);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(h.client->write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().is_ok());
  ASSERT_TRUE(h.client->fsync(1).get().is_ok());
  EXPECT_EQ(h.mem->snapshot("p").size(), 64 * data.size());
  EXPECT_TRUE(h.client->close_fd(1).get().is_ok());
}

TEST_P(AsyncClientModels, InterleavedReadsAndWritesMatch) {
  Harness h(GetParam());
  ASSERT_TRUE(h.client->open(1, "rw").get().is_ok());
  const auto a = pattern(32_KiB, 2);
  const auto b = pattern(32_KiB, 3);
  auto w1 = h.client->write(1, 0, a);
  auto w2 = h.client->write(1, a.size(), b);
  ASSERT_TRUE(w1.get().is_ok());
  ASSERT_TRUE(w2.get().is_ok());
  ASSERT_TRUE(h.client->fsync(1).get().is_ok());
  auto r1 = h.client->read(1, 0, a.size());
  auto r2 = h.client->read(1, a.size(), b.size());
  auto v1 = r1.get();
  auto v2 = r2.get();
  ASSERT_TRUE(v1.is_ok());
  ASSERT_TRUE(v2.is_ok());
  EXPECT_EQ(v1.value(), a);
  EXPECT_EQ(v2.value(), b);
}

TEST_P(AsyncClientModels, WindowLimitsOutstanding) {
  Harness h(GetParam(), /*window=*/4);
  ASSERT_TRUE(h.client->open(1, "w").get().is_ok());
  const auto data = pattern(16_KiB, 4);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(h.client->write(1, static_cast<std::uint64_t>(i) * data.size(), data));
    EXPECT_LE(h.client->outstanding(), 4u);
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().is_ok());
}

INSTANTIATE_TEST_SUITE_P(Models, AsyncClientModels,
                         ::testing::Values(ExecModel::thread_per_client, ExecModel::work_queue,
                                           ExecModel::work_queue_async),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

TEST(AsyncClient2, DeferredErrorSurfacesOnFsyncFuture) {
  Harness h(ExecModel::work_queue_async);
  ASSERT_TRUE(h.client->open(1, "e").get().is_ok());
  h.plan->fail_always(fault::OpKind::write, Errc::io_error);
  const auto data = pattern(4096, 5);
  EXPECT_TRUE(h.client->write(1, 0, data).get().is_ok()) << "staged ack";
  EXPECT_EQ(h.client->fsync(1).get().code(), Errc::io_error);
}

TEST(AsyncClient2, ShutdownFailsPendingFutures) {
  // A server that never answers: requests pile up, shutdown must fail them.
  auto [a, b] = SocketTransport::make_socketpair().value();
  AsyncClient client(std::move(b), 8);
  auto f = client.open(1, "never");
  client.shutdown();
  EXPECT_EQ(f.get().code(), Errc::shutdown);
  a->close();
}

TEST(AsyncClient2, ServerStopFailsInFlight) {
  auto h = std::make_unique<Harness>(ExecModel::work_queue_async);
  ASSERT_TRUE(h->client->open(1, "s").get().is_ok());
  h->server->stop();
  const auto data = pattern(4096, 6);
  auto f = h->client->write(1, 0, data);
  EXPECT_FALSE(f.get().is_ok());
}

TEST(AsyncClient2, SubmitAfterShutdownFailsFast) {
  Harness h(ExecModel::work_queue);
  h.client->shutdown();
  const auto data = pattern(128, 7);
  EXPECT_EQ(h.client->write(1, 0, data).get().code(), Errc::shutdown);
  EXPECT_EQ(h.client->read(1, 0, 128).get().code(), Errc::shutdown);
}

TEST(AsyncClient2, HighConcurrencyStress) {
  Harness h(ExecModel::work_queue_async, /*window=*/32);
  ASSERT_TRUE(h.client->open(1, "stress").get().is_ok());
  const auto data = pattern(8_KiB, 8);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(h.client->write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  int failures = 0;
  for (auto& f : futures) failures += f.get().is_ok() ? 0 : 1;
  EXPECT_EQ(failures, 0);
  ASSERT_TRUE(h.client->fsync(1).get().is_ok());
  EXPECT_EQ(h.mem->snapshot("stress").size(), 500 * data.size());
}

// An AsyncClient facing testsupport::claiming_server.
struct ClaimingPair {
  std::jthread server;
  std::unique_ptr<AsyncClient> client;
};

ClaimingPair claiming_pair(std::uint64_t claimed, std::size_t sent, std::uint64_t seq_shift = 0) {
  auto pair = SocketTransport::make_socketpair();
  EXPECT_TRUE(pair.is_ok());
  return {testsupport::claiming_server(std::move(pair.value().first), claimed, sent, seq_shift),
          std::make_unique<AsyncClient>(std::move(pair.value().second))};
}

TEST(AsyncClient2, RejectsReplyLongerThanTheOpAllows) {
  {
    auto [server, client] = claiming_pair(4097, 0);
    EXPECT_EQ(client->read(1, 0, 4096).get().code(), Errc::protocol_error);
  }
  {
    // The largest claim decode accepts must not be allocated for a 4 KiB read.
    auto [server, client] = claiming_pair(kMaxPayload, 0);
    EXPECT_EQ(client->read(1, 0, 4096).get().code(), Errc::protocol_error);
  }
  {
    const auto data = pattern(4096, 15);
    auto [server, client] = claiming_pair(1, 0);
    EXPECT_EQ(client->write(1, 0, data).get().code(), Errc::protocol_error);
  }
  {
    auto [server, client] = claiming_pair(1, 0);
    EXPECT_EQ(client->fsync(1).get().code(), Errc::protocol_error);
  }
}

TEST(AsyncClient2, RejectsPayloadOnAnUnknownSeq) {
  auto [server, client] = claiming_pair(16, 0, /*seq_shift=*/100);
  EXPECT_EQ(client->read(1, 0, 4096).get().code(), Errc::protocol_error);
}

TEST(AsyncClient2, AcceptsRepliesWithinTheOpBound) {
  {
    auto [server, client] = claiming_pair(4096, 4096);
    auto r = client->read(1, 0, 4096).get();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().size(), 4096u);
  }
  {
    auto [server, client] = claiming_pair(100, 100);  // short read at EOF
    auto r = client->read(1, 0, 4096).get();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), std::vector<std::byte>(100, std::byte{0x5a}));
  }
  {
    auto [server, client] = claiming_pair(0, 0);
    EXPECT_TRUE(client->fsync(1).get().is_ok());
  }
}

}  // namespace
}  // namespace iofwd::rt
