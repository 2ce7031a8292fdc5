// IonCluster + RoutingClient end-to-end: routing across shards, per-shard
// fault isolation (kill+redial touches one shard; drain leaves siblings
// serving), the cluster-wide burst-buffer budget, and the merged
// observability snapshot — the acceptance checklist of DESIGN.md §14.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/ion_cluster.hpp"
#include "cluster/routing_client.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "rt/wire.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::cluster {
namespace {

using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

// One descriptor per shard: fds[s] routes to shard s.
std::vector<int> fds_covering_all_shards(const RoutingClient& rc) {
  std::vector<int> fds(static_cast<std::size_t>(rc.shards()), -1);
  int remaining = rc.shards();
  for (int fd = 1; remaining > 0; ++fd) {
    int& slot = fds[static_cast<std::size_t>(rc.shard_of(fd))];
    if (slot == -1) {
      slot = fd;
      --remaining;
    }
  }
  return fds;
}

TEST(Cluster, RoutesByShardMapAndReadsBack) {
  ClusterOptions o;
  o.shards = 4;
  TestCluster tc(o);
  auto& rc = tc.routing_client();
  ASSERT_EQ(rc.shards(), 4);

  // A file per shard; each lands on — and only on — its mapped shard's
  // backend, and reads route back to the same place.
  const auto fds = fds_covering_all_shards(rc);
  for (int s = 0; s < 4; ++s) {
    const int fd = fds[static_cast<std::size_t>(s)];
    const std::string path = "route" + std::to_string(s);
    ASSERT_TRUE(rc.open(fd, path).is_ok());
    const auto data = pattern(32_KiB, 40 + static_cast<std::uint64_t>(s));
    ASSERT_TRUE(rc.write(fd, 0, data).is_ok());
    auto r = rc.read(fd, 0, data.size());
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), data);
    ASSERT_TRUE(rc.fsync(fd).is_ok());
    ASSERT_TRUE(rc.close(fd).is_ok());
  }
  tc.stop();
  for (int s = 0; s < 4; ++s) {
    const std::string path = "route" + std::to_string(s);
    EXPECT_EQ(tc.mem(s).snapshot(path).size(), 32_KiB)
        << path << " must live on shard " << s;
    for (int other = 0; other < 4; ++other) {
      if (other == s) continue;
      EXPECT_TRUE(tc.mem(other).snapshot(path).empty())
          << path << " leaked onto shard " << other;
    }
  }
}

TEST(Cluster, PerShardKillRedialReplaysOnlyThatShard) {
  ClusterOptions o;
  o.shards = 4;
  o.clients = 0;
  TestCluster tc(o);

  // The victim shard is whichever one fd 10 routes to; only that shard's
  // connection carries a cut budget.
  TestCluster::ClientSpec spec;
  spec.reconnectable = true;
  spec.cut_after_write_bytes = rt::FrameHeader::kWireSize * 2 + 16_KiB + 8_KiB;
  {
    ShardMap probe(4);
    spec.cut_shard = probe.shard_of(10);
  }
  auto& rc = tc.routing_client(tc.add_client(std::move(spec)));
  const int victim = rc.shard_of(10);

  // Burst through the victim fd (trips the cut mid-write) and touch every
  // other shard too.
  ASSERT_TRUE(rc.open(10, "victim").is_ok());
  const auto burst = pattern(16_KiB, 50);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rc.write(10, static_cast<std::uint64_t>(i) * burst.size(), burst).is_ok())
        << "write " << i << " did not survive the cut";
  }
  const auto fds = fds_covering_all_shards(rc);
  const auto side = pattern(8_KiB, 51);
  for (int s = 0; s < 4; ++s) {
    if (s == victim) continue;
    const int fd = fds[static_cast<std::size_t>(s)];
    ASSERT_TRUE(rc.open(fd, "side" + std::to_string(s)).is_ok());
    ASSERT_TRUE(rc.write(fd, 0, side).is_ok());
  }

  // Exactly the victim shard's client reconnected and replayed; its
  // siblings never noticed.
  for (int s = 0; s < 4; ++s) {
    const auto cs = rc.shard_client(s).stats();
    if (s == victim) {
      EXPECT_GE(cs.reconnects, 1u) << "victim shard must have redialed";
      EXPECT_GE(cs.replays, 1u);
    } else {
      EXPECT_EQ(cs.reconnects, 0u) << "shard " << s << " redialed spuriously";
      EXPECT_EQ(cs.replays, 0u);
    }
    EXPECT_EQ(cs.giveups, 0u);
  }

  // Every byte survived, including the cut-then-replayed burst.
  const auto all = tc.drain_and_snapshot("victim");
  ASSERT_EQ(all.size(), 4 * burst.size());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::equal(burst.begin(), burst.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(i) * 16_KiB))
        << "burst " << i << " corrupted";
  }
  for (int s = 0; s < 4; ++s) {
    if (s == victim) continue;
    EXPECT_EQ(tc.snapshot("side" + std::to_string(s)), side);
  }
}

TEST(Cluster, DrainShardLeavesSiblingsServing) {
  ClusterOptions o;
  o.shards = 2;
  o.server.bb_bytes = 1_MiB;  // staging makes the drain observable
  TestCluster tc(o);
  auto& rc = tc.routing_client();
  const auto fds = fds_covering_all_shards(rc);

  const auto data = pattern(64_KiB, 60);
  for (int s = 0; s < 2; ++s) {
    const int fd = fds[static_cast<std::size_t>(s)];
    ASSERT_TRUE(rc.open(fd, "drain" + std::to_string(s)).is_ok());
    ASSERT_TRUE(rc.write(fd, 0, data).is_ok());
  }

  // Quiesce shard 0: its dirty staged bytes must reach the terminal backend
  // (flushed extents stay cached clean for reads — that is the bb contract)
  // while shard 1 keeps serving on its untouched connection — and shard 0's
  // connection stays open too.
  tc.ion_cluster()->drain_shard(0);
  EXPECT_EQ(tc.mem(0).snapshot("drain0").size(), data.size())
      << "drained shard still holds dirty bytes";
  EXPECT_GE(tc.server(0).metrics().counter("bb.flushed_bytes"), data.size());

  for (int s = 0; s < 2; ++s) {
    const int fd = fds[static_cast<std::size_t>(s)];
    ASSERT_TRUE(rc.write(fd, data.size(), data).is_ok())
        << "shard " << s << " stopped serving after a sibling drain";
    auto r = rc.read(fd, 0, data.size());
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), data);
  }
  tc.stop();
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(tc.snapshot("drain" + std::to_string(s)).size(), 2 * data.size());
  }
}

TEST(Cluster, GlobalBudgetCapsAggregateStagingAcrossShards) {
  // Per-shard caches are big (local watermarks never trip) but the cluster
  // budget is tiny, so the global gate is the only thing pushing back:
  // aggregate staging must stop at the budget, denied writes degrade to
  // write-through (bounded stall), and no byte is lost either way.
  ClusterOptions o;
  o.shards = 2;
  o.server.bb_bytes = 4_MiB;
  o.server.stall_ms = 5;  // denied writers fall through fast
  o.cluster_bb_bytes = 100 * 1024;
  o.cluster_bb_high_watermark = 1.0;  // no pressure-flushing: pure admission
  TestCluster tc(o);
  auto& rc = tc.routing_client();
  auto* budget = tc.ion_cluster()->budget();
  ASSERT_NE(budget, nullptr);

  const auto fds = fds_covering_all_shards(rc);
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE(rc.open(fds[static_cast<std::size_t>(s)], "cap" + std::to_string(s)).is_ok());
  }
  // 30 x 8 KiB alternating across shards = 240 KiB of staging demand against
  // a 100 KiB global budget.
  const auto chunk = pattern(8_KiB, 70);
  for (int i = 0; i < 30; ++i) {
    const int s = i % 2;
    ASSERT_TRUE(rc.write(fds[static_cast<std::size_t>(s)],
                         static_cast<std::uint64_t>(i / 2) * chunk.size(), chunk)
                    .is_ok())
        << "a budget-denied write must degrade, not fail";
  }

  // Quiesce before reading counters: write acks race ahead of async staging,
  // and a snapshot taken mid-storm can catch a denial between its global and
  // per-shard increments. fsync drains every in-flight write on the fd.
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE(rc.fsync(fds[static_cast<std::size_t>(s)]).is_ok());
  }

  // The hard cap held at every instant, and the gate actually fired.
  EXPECT_LE(budget->staged_high_water(), budget->capacity());
  EXPECT_GT(budget->denials(), 0u) << "demand never hit the global gate";

  // The merged registry tells the same story (the cluster.* metrics the
  // acceptance criteria pin).
  const auto snap = tc.ion_cluster()->metrics();
  EXPECT_EQ(snap.gauge("cluster.bb.capacity"), static_cast<std::int64_t>(100 * 1024));
  EXPECT_LE(snap.gauge("cluster.bb.staged_high_watermark"),
            snap.gauge("cluster.bb.capacity"));
  EXPECT_EQ(snap.counter("cluster.bb.denials"), budget->denials());
  EXPECT_EQ(snap.counter("cluster.shard.0.bb.budget_denied") +
                snap.counter("cluster.shard.1.bb.budget_denied"),
            budget->denials())
      << "per-shard denial counters must account for every global denial";

  // Closing the descriptors drops their cached extents — clean or dirty —
  // and must hand every reserved byte back to the fleet.
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE(rc.close(fds[static_cast<std::size_t>(s)]).is_ok());
  }
  EXPECT_EQ(budget->staged_bytes(), 0u) << "close must return every staged byte";

  // Degraded or staged, every write landed.
  tc.stop();
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(tc.snapshot("cap" + std::to_string(s)).size(), 15 * chunk.size());
  }
}

TEST(Cluster, MergedSnapshotNamespacesEveryShard) {
  ClusterOptions o;
  o.shards = 4;
  o.cluster_bb_bytes = 1_MiB;
  o.server.bb_bytes = 256_KiB;
  TestCluster tc(o);
  auto& rc = tc.routing_client();
  const auto fds = fds_covering_all_shards(rc);
  const auto data = pattern(4_KiB, 80);
  for (int s = 0; s < 4; ++s) {
    const int fd = fds[static_cast<std::size_t>(s)];
    ASSERT_TRUE(rc.open(fd, "obs" + std::to_string(s)).is_ok());
    ASSERT_TRUE(rc.write(fd, 0, data).is_ok());
    ASSERT_TRUE(rc.fsync(fd).is_ok());
  }

  const auto snap = tc.ion_cluster()->metrics();
  EXPECT_EQ(snap.gauge("cluster.shards"), 4);
  EXPECT_EQ(snap.gauge("cluster.epoch"), 0);
  EXPECT_EQ(snap.gauge("cluster.bb.capacity"), static_cast<std::int64_t>(1_MiB));
  for (int s = 0; s < 4; ++s) {
    const std::string prefix = "cluster.shard." + std::to_string(s) + ".";
    EXPECT_GT(snap.counter(prefix + "server.ops"), 0u)
        << "shard " << s << " missing from the merged snapshot";
    EXPECT_GT(snap.counter(prefix + "server.bytes_in"), 0u);
  }
}

}  // namespace
}  // namespace iofwd::cluster
