// ClusterBbBudget edge cases (DESIGN.md §14/§16): the global reservation
// counter must survive sloppy release patterns — double releases, releases
// racing a crash-discard's bulk return, zero-capacity configs — without
// wrapping to ~2^64 and silently disabling admission control.
#include "bb/bb_budget.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace iofwd::bb {
namespace {

TEST(ClusterBbBudget, DoubleReleaseClampsInsteadOfUnderflowing) {
  ClusterBbBudget b(1000);
  ASSERT_TRUE(b.try_stage(600));
  b.unstage(600);
  EXPECT_EQ(b.staged_bytes(), 0u);
  // The double release: nothing staged, 600 returned again. Without the
  // clamp staged_ would wrap and every later try_stage would "succeed".
  b.unstage(600);
  EXPECT_EQ(b.staged_bytes(), 0u);
  EXPECT_EQ(b.over_releases(), 1u);
  // Admission control still works after the bug was absorbed.
  EXPECT_TRUE(b.try_stage(1000));
  EXPECT_FALSE(b.try_stage(1));
  EXPECT_EQ(b.denials(), 1u);
}

TEST(ClusterBbBudget, PartialOverReleaseReturnsOnlyWhatWasHeld) {
  ClusterBbBudget b(1000);
  ASSERT_TRUE(b.try_stage(100));
  // Release more than is staged (a stale caller racing a crash-discard that
  // already bulk-returned the shard's bytes): only 100 can come back.
  b.unstage(400);
  EXPECT_EQ(b.staged_bytes(), 0u);
  EXPECT_EQ(b.over_releases(), 1u);
}

TEST(ClusterBbBudget, ReleaseAfterDrainIsHarmless) {
  ClusterBbBudget b(4096);
  ASSERT_TRUE(b.try_stage(4096));
  b.unstage(4096);  // the drain returned everything
  EXPECT_EQ(b.staged_bytes(), 0u);
  // Stragglers after the drain (e.g. a flusher that lost the release race).
  b.unstage(1);
  b.unstage(4096);
  EXPECT_EQ(b.staged_bytes(), 0u);
  EXPECT_EQ(b.over_releases(), 2u);
  EXPECT_TRUE(b.try_stage(4096));
}

TEST(ClusterBbBudget, ZeroCapacityDeniesEveryReservation) {
  ClusterBbBudget b(0);
  EXPECT_FALSE(b.try_stage(1));
  EXPECT_TRUE(b.try_stage(0));  // vacuous reservation stays allowed
  EXPECT_EQ(b.staged_bytes(), 0u);
  EXPECT_EQ(b.denials(), 1u);
  b.unstage(10);  // and releasing against an empty budget is absorbed
  EXPECT_EQ(b.staged_bytes(), 0u);
  EXPECT_EQ(b.over_releases(), 1u);
}

TEST(ClusterBbBudget, ConcurrentOverReleasesNeverWrap) {
  ClusterBbBudget b(1 << 20);
  ASSERT_TRUE(b.try_stage(1 << 20));
  // Many threads each return more than remains; the clamp must hold under
  // contention (each CAS takes min(n, cur)).
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i) {
    ts.emplace_back([&b] {
      for (int k = 0; k < 1000; ++k) b.unstage(1 << 12);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(b.staged_bytes(), 0u);
  EXPECT_GT(b.over_releases(), 0u);
  EXPECT_TRUE(b.try_stage(1 << 20));
}

}  // namespace
}  // namespace iofwd::bb
