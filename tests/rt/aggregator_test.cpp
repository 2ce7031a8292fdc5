#include "rt/aggregator.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/rng.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"

namespace iofwd::rt {
namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

struct Fixture {
  MemBackend* mem;
  AggregatingBackend agg;

  explicit Fixture(std::uint64_t window)
      : mem(nullptr), agg(
            [this] {
              auto m = std::make_unique<MemBackend>();
              mem = m.get();
              return m;
            }(),
            window) {}
};

TEST(Aggregator, CoalescesSequentialWrites) {
  Fixture fx(1 << 20);
  ASSERT_TRUE(fx.agg.open(1, "f").is_ok());
  const auto chunk = pattern(4096, 1);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(fx.agg.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  EXPECT_EQ(fx.agg.writes_in(), 16u);
  EXPECT_EQ(fx.agg.writes_out(), 0u) << "all buffered; window not full";
  ASSERT_TRUE(fx.agg.fsync(1).is_ok());
  EXPECT_EQ(fx.agg.writes_out(), 1u) << "one coalesced write";
  EXPECT_EQ(fx.mem->snapshot("f").size(), 16 * 4096u);
}

TEST(Aggregator, FullWindowFlushesAutomatically) {
  Fixture fx(8192);
  ASSERT_TRUE(fx.agg.open(1, "f").is_ok());
  const auto chunk = pattern(4096, 2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.agg.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  EXPECT_EQ(fx.agg.writes_out(), 2u);  // two full 8 KiB windows
}

TEST(Aggregator, NonContiguousWriteFlushes) {
  Fixture fx(1 << 20);
  ASSERT_TRUE(fx.agg.open(1, "f").is_ok());
  const auto a = pattern(4096, 3);
  ASSERT_TRUE(fx.agg.write(1, 0, a).is_ok());
  ASSERT_TRUE(fx.agg.write(1, 1 << 16, a).is_ok());  // gap
  EXPECT_EQ(fx.agg.writes_out(), 1u);
  ASSERT_TRUE(fx.agg.fsync(1).is_ok());
  const auto stored = fx.mem->snapshot("f");
  ASSERT_EQ(stored.size(), (1u << 16) + 4096u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), stored.begin()));
  EXPECT_TRUE(std::equal(a.begin(), a.end(), stored.begin() + (1 << 16)));
}

TEST(Aggregator, ReadFlushesFirst) {
  Fixture fx(1 << 20);
  ASSERT_TRUE(fx.agg.open(1, "f").is_ok());
  const auto a = pattern(4096, 4);
  ASSERT_TRUE(fx.agg.write(1, 0, a).is_ok());
  std::vector<std::byte> out(4096);
  auto r = fx.agg.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 4096u);
  EXPECT_EQ(out, a);
}

TEST(Aggregator, WriteLargerThanWindow) {
  Fixture fx(4096);
  ASSERT_TRUE(fx.agg.open(1, "f").is_ok());
  const auto big = pattern(3 * 4096 + 100, 5);
  ASSERT_TRUE(fx.agg.write(1, 0, big).is_ok());
  ASSERT_TRUE(fx.agg.close(1).is_ok());
  ASSERT_TRUE(fx.agg.open(2, "f").is_ok());
  std::vector<std::byte> out(big.size());
  auto r = fx.agg.read(2, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, big);
}

TEST(Aggregator, CloseFlushes) {
  Fixture fx(1 << 20);
  ASSERT_TRUE(fx.agg.open(1, "f").is_ok());
  const auto a = pattern(1000, 6);
  ASSERT_TRUE(fx.agg.write(1, 0, a).is_ok());
  ASSERT_TRUE(fx.agg.close(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f").size(), 1000u);
}

TEST(Aggregator, PerFdWindowsAreIndependent) {
  Fixture fx(1 << 20);
  ASSERT_TRUE(fx.agg.open(1, "a").is_ok());
  ASSERT_TRUE(fx.agg.open(2, "b").is_ok());
  const auto d = pattern(512, 7);
  ASSERT_TRUE(fx.agg.write(1, 0, d).is_ok());
  ASSERT_TRUE(fx.agg.write(2, 0, d).is_ok());
  ASSERT_TRUE(fx.agg.fsync(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("a").size(), 512u);
  EXPECT_TRUE(fx.mem->snapshot("b").empty()) << "fd 2 still buffered";
  ASSERT_TRUE(fx.agg.close(2).is_ok());
  EXPECT_EQ(fx.mem->snapshot("b").size(), 512u);
}

TEST(Aggregator, ComposesWithServer) {
  // Small client writes aggregate into large backend writes — the
  // write-back-caching optimization of the related work, running under the
  // worker-pool execution model instead of a single aggregation thread.
  auto mem_owned = std::make_unique<MemBackend>();
  auto* mem = mem_owned.get();
  auto agg_owned = std::make_unique<AggregatingBackend>(std::move(mem_owned), 256 * 1024);
  auto* agg = agg_owned.get();
  ServerConfig cfg;
  cfg.workers = 1;  // strict FIFO execution => deterministic coalescing
  IonServer server(std::move(agg_owned), cfg);
  auto [se, ce] = SocketTransport::make_socketpair().value();
  server.serve(std::move(se));
  Client client(std::move(ce));

  ASSERT_TRUE(client.open(1, "ckpt").is_ok());
  const auto chunk = pattern(16 * 1024, 8);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(client.fsync(1).is_ok());
  EXPECT_EQ(agg->writes_in(), 64u);
  EXPECT_LE(agg->writes_out(), 5u) << "64 small writes became a few large ones";
  EXPECT_EQ(mem->snapshot("ckpt").size(), 64 * chunk.size());
  ASSERT_TRUE(client.close(1).is_ok());
}

}  // namespace
}  // namespace iofwd::rt
