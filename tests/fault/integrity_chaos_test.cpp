// End-to-end integrity chaos (DESIGN.md §12): a client works through a full
// op mix while a seeded FaultPlan flips bits on 1% of its stream operations,
// in both directions (requests corrupt on write_all, replies corrupt on
// read_exact). The integrity contract under test:
//
//   1. every injected corruption is DETECTED — the CRC counters across
//      client and server sum to exactly the plan's fired() count;
//   2. every op still SUCCEEDS — checksum faults are retryable transport
//      faults, recovered by bounce-and-replay or reconnect-and-replay;
//   3. the stored bytes match the golden model bit-for-bit, and reads
//      return golden data — zero undetected corruptions.
//
// Replay any failure with the seed the run logs: IOFWD_TEST_SEED=0x... .
#include <gtest/gtest.h>

#include <map>

#include "core/rng.hpp"
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

TEST(IntegrityChaos, OnePercentBitFlipsAllDetectedAllRecovered) {
  const std::uint64_t seed =
      testsupport::test_seed("IntegrityChaos.OnePercentBitFlips", 0x1f1d5);

  auto plan = std::make_shared<FaultPlan>(seed);
  plan->add({.op = OpKind::stream_write, .action = FaultAction::bit_flip, .probability = 0.01});
  plan->add({.op = OpKind::stream_read, .action = FaultAction::bit_flip, .probability = 0.01});

  ClusterOptions o;
  o.server.bml_bytes = 16_MiB;
  o.clients = 0;
  TestCluster tc(o);

  // Every stream the client uses — the first dial and every reconnect — goes
  // through the same plan, so plan->fired() is the total injected count.
  TestCluster::ClientSpec spec;
  spec.cfg.reconnect_attempts = 10;   // ~4 corruption chances per roundtrip at 1%
  spec.cfg.reconnect_backoff_ms = 0;  // keep the storm fast
  spec.stream_plan = plan;
  spec.reconnectable = true;
  spec.faulty_redials = true;
  auto& client = tc.client(tc.add_client(std::move(spec)));

  // Golden model: what the file must contain if no corruption slipped by.
  std::map<std::uint64_t, std::vector<std::byte>> golden;
  Rng rng(seed ^ 0xdada);

  ASSERT_TRUE(client.open(1, "chaos").is_ok());
  std::uint64_t next_off = 0;
  for (int i = 0; i < 600; ++i) {
    const std::size_t n = 1_KiB + rng.below(31_KiB);
    const auto data = pattern(n, rng.next());
    ASSERT_TRUE(client.write(1, next_off, data).is_ok()) << "write " << i;
    golden[next_off] = data;
    next_off += n;

    if (i % 10 == 9) {
      // Read back a random earlier extent and check it against the model.
      auto it = golden.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(golden.size())));
      auto r = client.read(1, it->first, it->second.size());
      ASSERT_TRUE(r.is_ok()) << "read @" << it->first << ": " << r.status().to_string();
      ASSERT_EQ(r.value(), it->second) << "read @" << it->first << " returned corrupt data";
    }
    if (i % 50 == 49) {
      ASSERT_TRUE(client.fsync(1).is_ok());
    }
  }
  auto sz = client.fstat_size(1);
  ASSERT_TRUE(sz.is_ok());
  EXPECT_EQ(sz.value(), next_off);
  ASSERT_TRUE(client.close(1).is_ok());

  // --- 1. every corruption detected -------------------------------------
  const auto cs = client.stats();
  const auto ss = tc.server().metrics();
  const std::uint64_t injected = plan->fired();
  const std::uint64_t detected = cs.header_crc_errors + cs.payload_crc_errors +
                                 ss.counter("server.integrity.header_crc_errors") +
                                 ss.counter("server.integrity.payload_crc_errors");
  EXPECT_GT(injected, 10u) << "storm too quiet to prove anything";
  EXPECT_EQ(detected, injected) << "an injected corruption went undetected";
  // A request-payload bounce is the server detecting + the client replaying.
  EXPECT_EQ(cs.request_bounces, ss.counter("server.integrity.payload_crc_errors"));

  // --- 2. every op succeeded via replay ----------------------------------
  EXPECT_EQ(cs.giveups, 0u);
  EXPECT_GE(cs.reconnects + cs.request_bounces, 1u) << "recovery paths never exercised";

  // --- 3. stored bytes match the golden model ----------------------------
  const auto all = tc.snapshot("chaos");
  ASSERT_EQ(all.size(), next_off);
  for (const auto& [off, data] : golden) {
    ASSERT_TRUE(std::equal(data.begin(), data.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(off)))
        << "extent @" << off << " corrupted in storage";
  }
}

TEST(IntegrityChaos, V0PeersStayBlindToCorruption) {
  // Control experiment: with checksums negotiated OFF (v0 client), the same
  // storm corrupts silently — demonstrating the integrity layer is what
  // detects it, not some other mechanism. One flipped write payload lands
  // in storage undetected.
  auto plan = std::make_shared<FaultPlan>(99);
  // Deterministic single flip: 4th stream write = payload of the 2nd write
  // op (hello is suppressed at v0; open is hdr+path, writes are hdr+payload).
  plan->add({.op = OpKind::stream_write, .action = FaultAction::bit_flip, .nth = 6});

  ClusterOptions o;
  o.clients = 0;
  TestCluster tc(o);

  TestCluster::ClientSpec spec;
  spec.cfg.max_wire_version = 0;  // legacy client: no hello, no checksums
  spec.stream_plan = plan;
  spec.reconnectable = true;
  spec.faulty_redials = true;
  auto& client = tc.client(tc.add_client(std::move(spec)));

  ASSERT_TRUE(client.open(1, "blind").is_ok());
  const auto data = pattern(4_KiB, 5);
  ASSERT_TRUE(client.write(1, 0, data).is_ok());
  ASSERT_TRUE(client.write(1, data.size(), data).is_ok());
  ASSERT_TRUE(client.write(1, 2 * data.size(), data).is_ok());
  ASSERT_TRUE(client.close(1).is_ok());

  ASSERT_EQ(plan->fired(), 1u);
  EXPECT_EQ(tc.server().metrics().counter("server.integrity.payload_crc_errors"), 0u);
  EXPECT_EQ(tc.server().metrics().counter("server.integrity.header_crc_errors"), 0u);
  const auto all = tc.snapshot("blind");
  ASSERT_EQ(all.size(), 3 * data.size());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    mismatched += all[i] != data[i % data.size()] ? 1 : 0;
  }
  EXPECT_EQ(mismatched, 1u) << "exactly the flipped bit's byte differs, silently";
}

}  // namespace
}  // namespace iofwd::fault
