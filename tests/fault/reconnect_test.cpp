// Client reconnect with idempotent replay: a connection cut mid-burst is
// redialed through the StreamFactory, descriptors are re-opened, and the
// failed op replays transparently.
#include <gtest/gtest.h>

#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::fault {
namespace {

using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TestCluster cluster() {
  ClusterOptions o;
  o.clients = 0;
  return TestCluster(o);
}

// A reconnectable client whose first connection dies after `cut_after`
// written bytes; redials come up clean.
std::size_t add_cut_client(TestCluster& tc, std::uint64_t cut_after) {
  TestCluster::ClientSpec spec;
  spec.cut_after_write_bytes = cut_after;
  spec.reconnectable = true;
  return tc.add_client(std::move(spec));
}

TEST(Reconnect, MidBurstCutReplaysTransparently) {
  TestCluster tc = cluster();
  // First connection dies once this end has written ~1.5 frames of a
  // 16 KiB-per-write burst; the cut lands mid-payload.
  auto& client =
      tc.client(add_cut_client(tc, rt::FrameHeader::kWireSize * 2 + 16_KiB + 8_KiB));
  ASSERT_TRUE(client.open(1, "burst").is_ok());

  const auto data = pattern(16_KiB, 11);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.write(1, static_cast<std::uint64_t>(i) * data.size(), data).is_ok())
        << "write " << i << " did not survive the cut";
  }
  ASSERT_TRUE(client.fsync(1).is_ok());
  ASSERT_TRUE(client.close(1).is_ok());

  // Every byte of every burst landed, including the cut-then-replayed one.
  const auto all = tc.snapshot("burst");
  ASSERT_EQ(all.size(), 8 * data.size());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(i * data.size())))
        << "burst " << i << " corrupted";
  }
  const auto cs = client.stats();
  EXPECT_GE(cs.reconnects, 1u);
  EXPECT_GE(cs.replays, 1u);
  EXPECT_EQ(cs.giveups, 0u);
}

TEST(Reconnect, ReplayedReadAfterReconnectSeesEarlierWrites) {
  TestCluster tc = cluster();
  // Budget: hello + open + first write survive; the read request later hits
  // the cut (hello 56 B, open 56+2 B, write 56 B + 4 KiB, then 10 B of the
  // read header).
  auto& client =
      tc.client(add_cut_client(tc, rt::FrameHeader::kWireSize * 3 + 4_KiB + 12));

  ASSERT_TRUE(client.open(3, "rr").is_ok());
  const auto data = pattern(4_KiB, 12);
  ASSERT_TRUE(client.write(3, 0, data).is_ok());
  auto r = client.read(3, 0, data.size());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), data);
  EXPECT_GE(client.stats().reconnects, 1u);
}

TEST(Reconnect, WithoutFactoryTheCutSurfaces) {
  TestCluster tc = cluster();
  // hello + open (1-byte path) fit; the write's header hits the cut.
  TestCluster::ClientSpec spec;
  spec.cut_after_write_bytes = rt::FrameHeader::kWireSize * 2 + 10;
  auto& client = tc.client(tc.add_client(std::move(spec)));  // no StreamFactory
  ASSERT_TRUE(client.open(1, "x").is_ok());
  EXPECT_FALSE(client.write(1, 0, pattern(4_KiB, 13)).is_ok());
}

TEST(Reconnect, BoundedAttemptsThenGiveup) {
  // The factory always dials a connection that dies immediately, so every
  // replay fails; the client must stop after its attempt budget. The dead
  // factory is hand-built — TestCluster factories always reach the server.
  TestCluster tc = cluster();
  int dials = 0;
  rt::StreamFactory dead_factory = [&]() -> Result<std::unique_ptr<rt::ByteStream>> {
    ++dials;
    auto [s, c] = rt::SocketTransport::make_socketpair().value();
    s->close();  // server side never serves: instant dead line
    return std::unique_ptr<rt::ByteStream>(std::move(c));
  };
  auto first = tc.factory()();
  ASSERT_TRUE(first.is_ok());
  // hello + open fit; the write's header hits the cut.
  auto cut = std::make_unique<FaultyStream>(std::move(first).value(),
                                            rt::FrameHeader::kWireSize * 2 + 5);

  rt::ClientConfig cfg;
  cfg.reconnect_attempts = 2;
  cfg.reconnect_backoff_ms = 1;  // keep the test fast
  rt::Client client(std::move(cut), cfg, std::move(dead_factory));

  ASSERT_TRUE(client.open(1, "x").is_ok());
  Status st = client.write(1, 0, pattern(4_KiB, 14));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(dials, 2) << "exactly reconnect_attempts dials";
  EXPECT_EQ(client.stats().giveups, 1u);
  EXPECT_EQ(client.stats().replays, 0u);
}

TEST(Reconnect, ShutdownOpcodeNeverReconnects) {
  TestCluster tc = cluster();
  int dials = 0;
  rt::StreamFactory counting = [&]() -> Result<std::unique_ptr<rt::ByteStream>> {
    ++dials;
    return tc.factory()();
  };
  auto first = tc.factory()();
  ASSERT_TRUE(first.is_ok());
  auto cut = std::make_unique<FaultyStream>(std::move(first).value(), 1);  // dies on first frame
  rt::Client client(std::move(cut), {}, std::move(counting));
  EXPECT_FALSE(client.shutdown().is_ok());
  EXPECT_EQ(dials, 0) << "a failed polite shutdown must not redial";
}

}  // namespace
}  // namespace iofwd::fault
