// End-to-end observability: an IonServer wired to an external registry,
// tracer, and flight recorder, driven through a real Client. Pins the API
// contract — metrics() is the registry's snapshot with the queue and pool
// state mirrored into gauges, the same registry serves the burst buffer
// ("bb.*"), and analysis can render the whole thing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/report.hpp"
#include "core/units.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

using testsupport::ClusterOptions;
using testsupport::TestCluster;

TestCluster obs_cluster(ServerConfig cfg = {}) {
  ClusterOptions o;
  o.server = cfg;
  o.server.flight_recorder_ops = 16;
  o.with_tracer = true;
  return TestCluster(o);
}

void run_ops(ForwardingClient& client) {
  ASSERT_TRUE(client.open(1, "f").is_ok());
  const std::vector<std::byte> data(64_KiB, std::byte{0x5a});
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.fsync(1).is_ok());
  auto r = client.read(1, 0, data.size());
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(client.close(1).is_ok());
}

TEST(ServerObs, SharedRegistryRecordsServerNamespace) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const obs::Snapshot snap = tc.server().metrics();
  // open + write + fsync + read + close = 5 ops.
  EXPECT_EQ(snap.counter("server.ops"), 5u);
  EXPECT_EQ(snap.counter("server.bytes_in"), 64_KiB);
  EXPECT_EQ(snap.counter("server.bytes_out"), 64_KiB);
  ASSERT_NE(snap.histogram("server.write_latency_us"), nullptr);
  EXPECT_EQ(snap.histogram("server.write_latency_us")->count, 1u);
  ASSERT_NE(snap.histogram("server.read_latency_us"), nullptr);
  EXPECT_EQ(snap.histogram("server.read_latency_us")->count, 1u);
  // The external registry IS the server's registry (no private copy).
  EXPECT_EQ(&tc.server().registry(), &tc.registry());
  EXPECT_EQ(tc.registry().counter("server.ops").value(), 5u);
}

TEST(ServerObs, MetricsIsTheRegistryPlusMirroredQueueAndPoolGauges) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const obs::Snapshot snap = tc.server().metrics();
  const obs::Snapshot raw = tc.registry().snapshot();
  EXPECT_EQ(snap.counter("server.ops"), raw.counter("server.ops"));
  EXPECT_EQ(snap.counter("server.bytes_in"), raw.counter("server.bytes_in"));
  EXPECT_EQ(snap.counter("server.bytes_out"), raw.counter("server.bytes_out"));
  EXPECT_EQ(snap.counter("server.deferred_errors"), raw.counter("server.deferred_errors"));
  EXPECT_EQ(snap.counter("server.deadline_expired"), raw.counter("server.deadline_expired"));
  // State that lives in the queue and the BML pool, not in the registry.
  EXPECT_GE(snap.gauge("server.queue_batches"), 1) << "the staged write ran as a batch";
  EXPECT_GE(snap.gauge("server.queue_max_depth"), 1);
  EXPECT_GE(snap.gauge("server.bml_high_watermark"), 64 * 1024) << "the write's lease";
}

TEST(ServerObs, BurstBufferSharesTheRegistry) {
  ServerConfig cfg;
  cfg.bb_bytes = 4_MiB;
  TestCluster tc = obs_cluster(cfg);
  run_ops(tc.client());
  const obs::Snapshot snap = tc.server().metrics();
  EXPECT_GT(snap.counter("bb.writes_in"), 0u);
  EXPECT_EQ(snap.counter("bb.bytes_in"), 64_KiB);
}

TEST(ServerObs, CpuTimeByRoleGrowsWhileTheBurstBufferFlushes) {
  // server.cpu_us.{lane,worker,flusher} read each role's thread CPU clocks
  // when the snapshot is taken. Each burst is twice the cache, so the lanes
  // receive it, the workers stage it and the flushers write it back.
  ServerConfig cfg;
  cfg.exec = ExecModel::work_queue_async;
  cfg.bb_bytes = 1_MiB;
  TestCluster tc = obs_cluster(cfg);
  ForwardingClient& client = tc.client();
  ASSERT_TRUE(client.open(1, "f").is_ok());
  // 32 KiB writes always stage: they are under the acked-write bypass size.
  const std::vector<std::byte> data(32_KiB, std::byte{0x3c});
  const auto burst = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(client.write(1, base + i * 2 * data.size(), data).is_ok());
    }
    ASSERT_TRUE(client.fsync(1).is_ok());
  };
  const char* const roles[] = {"server.cpu_us.lane", "server.cpu_us.worker",
                               "server.cpu_us.flusher"};
  burst(0);
  const obs::Snapshot first = tc.server().metrics();
  for (const char* role : roles) EXPECT_GT(first.gauge(role), 0) << role;
  burst(16_MiB);
  const obs::Snapshot second = tc.server().metrics();
  for (const char* role : roles) EXPECT_GT(second.gauge(role), first.gauge(role)) << role;
  EXPECT_GT(second.counter("bb.flushed_bytes"), 0u);
  ASSERT_TRUE(client.close(1).is_ok());
}

TEST(ServerObs, FlightRecorderCapturesCompletedOps) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const obs::FlightRecorder* fr = tc.server().flight_recorder();
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->recorded(), 5u);
  const auto snap = fr->snapshot();
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_STREQ(snap[1].op, "write");
  EXPECT_EQ(snap[1].bytes, 64_KiB);
  EXPECT_EQ(snap[1].status, 0);
}

TEST(ServerObs, TracerReceivesSpansAndCounterTracks) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  EXPECT_GT(tc.tracer().event_count(), 0u);
  const std::string j = tc.tracer().to_json();
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("queue_depth"), std::string::npos);
}

// Hand-built on purpose: pins that a server with NO registry in its config
// self-provisions a private one (TestCluster always injects a registry).
TEST(ServerObs, DefaultConfigOwnsAPrivateRegistry) {
  ServerConfig cfg;  // no registry: the server must self-provision
  auto server = std::make_unique<IonServer>(std::make_unique<MemBackend>(), cfg);
  auto [a, b] = SocketTransport::make_socketpair().value();
  server->serve(std::move(a));
  Client client(std::move(b));
  ASSERT_TRUE(client.open(1, "f").is_ok());
  ASSERT_TRUE(client.close(1).is_ok());
  EXPECT_EQ(server->metrics().counter("server.ops"), 2u);
  EXPECT_EQ(server->metrics().counter("server.ops"), 2u);
}

TEST(ServerObs, MetricsTableRendersEveryKind) {
  TestCluster tc = obs_cluster();
  run_ops(tc.client());
  const std::string out =
      analysis::metrics_table(tc.server().metrics(), "obs test").render();
  EXPECT_NE(out.find("server.ops"), std::string::npos);
  EXPECT_NE(out.find("server.write_latency_us"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
  EXPECT_NE(out.find("gauge"), std::string::npos);
}

}  // namespace
}  // namespace iofwd::rt
