// Transport-level fault injection: connections that die mid-frame,
// mid-payload, or feed garbage. The server must drop the client cleanly —
// no hangs, no leaked BML buffers, no poisoned worker pool — and keep
// serving other clients.
#include <gtest/gtest.h>

#include <atomic>

#include "bb/burst_buffer.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

// A client whose connection dies after a written-byte budget (the old
// test-local CuttingStream, now TestCluster's cut_after_write_bytes spec).
std::size_t add_cut_client(TestCluster& tc, std::uint64_t cut_after) {
  TestCluster::ClientSpec spec;
  spec.cut_after_write_bytes = cut_after;
  return tc.add_client(std::move(spec));
}

class FaultModels : public ::testing::TestWithParam<ExecModel> {};

TEST_P(FaultModels, CutMidHeaderDoesNotWedgeServer) {
  ClusterOptions o;
  o.server.exec = GetParam();
  o.clients = 0;
  TestCluster tc(o);

  // Client cut after 10 bytes: the server sees a truncated frame header.
  auto& bad = tc.client(add_cut_client(tc, 10));
  EXPECT_FALSE(bad.open(1, "x").is_ok());

  // A healthy client connected afterwards is fully served.
  auto& good = tc.client(tc.add_client());
  ASSERT_TRUE(good.open(2, "y").is_ok());
  const auto data = pattern(64_KiB, 1);
  ASSERT_TRUE(good.write(2, 0, data).is_ok());
  ASSERT_TRUE(good.fsync(2).is_ok());
  EXPECT_TRUE(good.close(2).is_ok());
}

TEST_P(FaultModels, CutMidPayloadReleasesStagingBuffer) {
  ClusterOptions o;
  o.server.exec = GetParam();
  o.server.bml_bytes = 1_MiB;
  o.clients = 0;
  TestCluster tc(o);

  // Header (44 B) goes through; the 256 KiB payload is cut at 50 KiB.
  auto& bad = tc.client(add_cut_client(tc, FrameHeader::kWireSize + 50 * 1024));
  (void)bad.open(1, "x");  // open succeeds (small frames)... or dies; both fine
  const auto data = pattern(256_KiB, 2);
  EXPECT_FALSE(bad.write(1, 0, data).is_ok());

  // The staging buffer the server acquired for the half-received payload
  // must be back in the pool: a healthy client can stage the full 1 MiB.
  auto& good = tc.client(tc.add_client());
  ASSERT_TRUE(good.open(2, "y").is_ok());
  const auto big = pattern(1_MiB, 3);
  ASSERT_TRUE(good.write(2, 0, big).is_ok());
  ASSERT_TRUE(good.fsync(2).is_ok());
  EXPECT_LE(static_cast<std::uint64_t>(tc.server().metrics().gauge("server.bml_high_watermark")),
            o.server.bml_bytes);
}

TEST_P(FaultModels, GarbageFrameDropsClientOnly) {
  ClusterOptions o;
  o.server.exec = GetParam();
  o.clients = 0;
  TestCluster tc(o);

  // Feed raw garbage instead of a frame (raw stream, no Client framing).
  auto raw = tc.factory()();
  ASSERT_TRUE(raw.is_ok());
  std::vector<std::byte> junk(FrameHeader::kWireSize, std::byte{0x5a});
  ASSERT_TRUE(raw.value()->write_all(junk.data(), junk.size()).is_ok());

  auto& good = tc.client(tc.add_client());
  ASSERT_TRUE(good.open(7, "z").is_ok());
  EXPECT_TRUE(good.close(7).is_ok());
  raw.value()->close();
}

INSTANTIATE_TEST_SUITE_P(Models, FaultModels,
                         ::testing::Values(ExecModel::thread_per_client, ExecModel::work_queue,
                                           ExecModel::work_queue_async),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

TEST(FaultInjection, RepeatedBadClientsDoNotExhaustServer) {
  ClusterOptions o;
  o.clients = 0;
  TestCluster tc(o);
  for (int i = 0; i < 20; ++i) {
    auto& bad = tc.client(add_cut_client(tc, 5 + static_cast<std::uint64_t>(i)));
    (void)bad.open(1, "x");
  }
  auto& good = tc.client(tc.add_client());
  ASSERT_TRUE(good.open(99, "final").is_ok());
  const auto data = pattern(128_KiB, 9);
  ASSERT_TRUE(good.write(99, 0, data).is_ok());
  ASSERT_TRUE(good.fsync(99).is_ok());
  EXPECT_TRUE(good.close(99).is_ok());
}

// --- Burst-buffer flush faults -------------------------------------------
// With the staging cache enabled, a write is acknowledged before the backend
// sees it; a backend failure at flush time must follow the deferred-error
// contract: surface exactly once on the next op on that descriptor, leave the
// op unexecuted, and leak no cache buffers.

TestCluster bb_cluster() {
  ClusterOptions o;
  o.server.exec = ExecModel::work_queue_async;
  o.server.bb_bytes = 4_MiB;
  o.server.bb_high_watermark = 1.0;  // flush only on explicit drains
  o.server.bb_low_watermark = 1.0;
  return TestCluster(o);
}

TEST(FaultInjection, BurstBufferFlushErrorDefersAndSurfacesOnce) {
  TestCluster tc = bb_cluster();
  auto& client = tc.client();
  ASSERT_TRUE(client.open(1, "x").is_ok());

  // Under the acked-write bypass size, so it stages rather than going
  // straight to the backend.
  const auto data = pattern(32_KiB, 21);
  ASSERT_TRUE(client.write(1, 0, data).is_ok());  // ack'd: staged in the cache
  tc.backend_plan().fail_always(fault::OpKind::write, Errc::io_error);

  // fsync forces the drain; the flush failure surfaces on this very call.
  Status st = client.fsync(1);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::io_error);

  // Exactly once: with the fault cleared the descriptor is healthy again.
  tc.backend_plan().clear();
  EXPECT_TRUE(client.fsync(1).is_ok());

  // The failed extent's lease was dropped, not leaked: a fresh write of the
  // same data lands cleanly end-to-end.
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());
  EXPECT_EQ(tc.snapshot("x"), data);
  ASSERT_TRUE(client.close(1).is_ok());
  ASSERT_NE(tc.server().burst_buffer(), nullptr);
  EXPECT_EQ(tc.server().burst_buffer()->metrics().gauge("bb.cached_bytes"), 0)
      << "cache leaked a lease";
  EXPECT_EQ(tc.server().burst_buffer()->metrics().counter("bb.deferred_errors"), 1u);
}

TEST(FaultInjection, BurstBufferFlushErrorAtCloseIsReported) {
  TestCluster tc = bb_cluster();
  auto& client = tc.client();
  ASSERT_TRUE(client.open(1, "x").is_ok());
  ASSERT_TRUE(client.write(1, 0, pattern(32_KiB, 22)).is_ok());
  tc.backend_plan().fail_always(fault::OpKind::write, Errc::io_error);

  // close() drains; the flush failure must not vanish silently.
  EXPECT_FALSE(client.close(1).is_ok());
  tc.backend_plan().clear();
  EXPECT_EQ(tc.server().burst_buffer()->metrics().gauge("bb.cached_bytes"), 0)
      << "close must release every lease even when the drain fails";

  // The descriptor is gone and the server keeps serving.
  ASSERT_TRUE(client.open(2, "y").is_ok());
  const auto data = pattern(16_KiB, 23);
  ASSERT_TRUE(client.write(2, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(2).is_ok());
  EXPECT_EQ(tc.snapshot("y"), data);
  EXPECT_TRUE(client.close(2).is_ok());
}

}  // namespace
}  // namespace iofwd::rt
