// Soak matrix (README "Test harness"): {4, 16, 64} concurrent clients ×
// {no faults, 1% transient faults, 0.5% bit flips, slow readers}, every cell
// asserting the same contract:
//
//   * isolation — every client's ops succeed and its file is intact even
//     while neighbors reconnect, replay, and bounce;
//   * zero undetected corruption — read-backs and the final snapshot match
//     the per-client golden bytes, and in the bit-flip cells the CRC
//     counters account for every single injected flip;
//   * clean drain — after stop(), no BML lease and no burst-buffer byte is
//     still outstanding.
//
// Runs under the "soak" ctest label (ctest -L soak) with a generous
// per-test timeout; the CI soak leg repeats it under TSan. Total write
// volume is held roughly constant across client counts, so the 64-client
// cell stresses multiplexing, not the disk. Replay any failure with the
// logged seed: IOFWD_TEST_SEED=0x... .
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "fault/retry.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::fault {
namespace {

using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

// slow_reader (DESIGN.md §15): tiny socket send buffers plus randomly delayed
// client-side reads, so server replies routinely park in the per-connection
// send queues and resume on EPOLLOUT — the cell proves a merely-slow reader
// is never dropped and every parked reply is eventually delivered.
enum class FaultMode { none, transient, bit_flip, slow_reader };

const char* to_cstr(FaultMode m) {
  switch (m) {
    case FaultMode::none: return "nofault";
    case FaultMode::transient: return "transient";
    case FaultMode::bit_flip: return "bitflip";
    case FaultMode::slow_reader: return "slowreader";
  }
  return "?";
}

struct SoakParam {
  int clients;
  FaultMode mode;
};

class SoakMatrix : public ::testing::TestWithParam<SoakParam> {};

TEST_P(SoakMatrix, EveryClientIsolatedNoSilentCorruptionCleanDrain) {
  const auto [n_clients, mode] = GetParam();
  const std::uint64_t seed =
      testsupport::test_seed("Soak.Matrix", 0x50a4) + static_cast<std::uint64_t>(n_clients);

  // ~constant total volume: more clients -> fewer writes each.
  const int writes_per_client = std::max(40, 2560 / n_clients);

  RetryPolicy rp;
  rp.max_attempts = 8;
  rp.base_backoff = std::chrono::microseconds(50);
  rp.max_backoff = std::chrono::microseconds(2'000);

  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.workers = 4;
  o.server.bml_bytes = 16_MiB;
  o.server.bb_bytes = 4_MiB;
  o.server.stall_ms = 50;
  o.clients = 0;
  if (mode == FaultMode::transient) {
    // 1% transient backend write failures, absorbed by the retry layer.
    o.backend_plan = std::make_shared<FaultPlan>(seed ^ 0xbac);
    o.backend_plan->add({.op = OpKind::write, .probability = 0.01, .error = Errc::io_error});
    o.retry = &rp;
  }
  if (mode == FaultMode::slow_reader) {
    // Send buffers far smaller than a typical read reply: the reply path
    // must park in the send queue on nearly every read-back.
    o.send_buffer_bytes = 8_KiB;
  }
  TestCluster tc(o);

  // Per-client stream plans (kept for the fired() accounting below).
  std::vector<std::shared_ptr<FaultPlan>> stream_plans;
  for (int id = 0; id < n_clients; ++id) {
    TestCluster::ClientSpec spec;
    spec.cfg.roundtrip_timeout_ms = 30'000;
    spec.cfg.reconnect_attempts = 10;
    spec.cfg.reconnect_backoff_ms = 1;
    if (mode != FaultMode::none) {
      auto plan = std::make_shared<FaultPlan>(seed + 100 + static_cast<std::uint64_t>(id));
      if (mode == FaultMode::transient) {
        // 1% of this client's stream writes drop the line mid-op.
        plan->add({.op = OpKind::stream_write, .probability = 0.01, .error = Errc::shutdown});
      } else if (mode == FaultMode::bit_flip) {
        // 0.5% bit flips, both directions.
        plan->add(
            {.op = OpKind::stream_write, .action = FaultAction::bit_flip, .probability = 0.005});
        plan->add(
            {.op = OpKind::stream_read, .action = FaultAction::bit_flip, .probability = 0.005});
      } else {
        // slow_reader: 2% of this client's reply reads stall 300 µs — no
        // errors, just a reader that keeps falling behind the tiny ring.
        plan->add({.op = OpKind::stream_read,
                   .probability = 0.02,
                   .error = Errc::ok,
                   .latency = std::chrono::microseconds(300)});
      }
      stream_plans.push_back(plan);
      spec.stream_plan = std::move(plan);
      if (mode != FaultMode::slow_reader) {
        spec.reconnectable = true;
        spec.faulty_redials = true;  // the whole fabric stays flaky across redials
      }
    }
    tc.add_client(std::move(spec));
  }

  std::vector<std::vector<std::byte>> expected(static_cast<std::size_t>(n_clients));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < n_clients; ++id) {
    threads.emplace_back([&, id] {
      auto& client = tc.client(static_cast<std::size_t>(id));
      Rng rng(seed ^ (0x1000 + static_cast<std::uint64_t>(id)));
      const int fd = 10 + id;
      auto& file = expected[static_cast<std::size_t>(id)];
      if (!client.open(fd, "soak" + std::to_string(id)).is_ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < writes_per_client; ++i) {
        const std::size_t n = 4_KiB + rng.below(12_KiB);
        const auto data = pattern(n, rng.next());
        if (!client.write(fd, file.size(), data).is_ok()) {
          ++failures;
          return;
        }
        file.insert(file.end(), data.begin(), data.end());

        if (i % 8 == 7) {
          // Read back a random earlier slice and compare against the model.
          const std::uint64_t off = rng.below(file.size());
          const std::size_t len =
              std::min<std::size_t>(1 + rng.below(8_KiB), file.size() - off);
          auto r = client.read(fd, off, len);
          if (!r.is_ok() ||
              !std::equal(r.value().begin(), r.value().end(),
                          file.begin() + static_cast<std::ptrdiff_t>(off))) {
            ++failures;
            return;
          }
        }
        if (i % 25 == 24 && !client.fsync(fd).is_ok()) {
          ++failures;
          return;
        }
      }
      if (!client.fsync(fd).is_ok() || !client.close(fd).is_ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();

  // Isolation: every client completed every op.
  EXPECT_EQ(failures, 0) << "a client failed an op it should have recovered from";
  std::uint64_t giveups = 0;
  for (int id = 0; id < n_clients; ++id) {
    giveups += tc.client(static_cast<std::size_t>(id)).stats().giveups;
  }
  EXPECT_EQ(giveups, 0u);

  // Bit-flip accounting: every injected flip was detected by a CRC check on
  // one side or the other.
  if (mode == FaultMode::bit_flip) {
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    for (const auto& plan : stream_plans) injected += plan->fired();
    for (int id = 0; id < n_clients; ++id) {
      const auto cs = tc.client(static_cast<std::size_t>(id)).stats();
      detected += cs.header_crc_errors + cs.payload_crc_errors;
    }
    const auto ss = tc.server().metrics();
    detected += ss.counter("server.integrity.header_crc_errors") +
        ss.counter("server.integrity.payload_crc_errors");
    EXPECT_GT(injected, 0u) << "storm too quiet to prove anything";
    EXPECT_EQ(detected, injected) << "an injected corruption went undetected";
  }

  // Clean drain: quiesce, then no lease may survive.
  tc.stop();

  // Slow-reader accounting (after stop() has joined the lanes, so the sent
  // counter is settled): replies parked (the cell is pointless if the queue
  // never engaged), nothing dropped, nothing still queued.
  if (mode == FaultMode::slow_reader) {
    const auto ss = tc.server().metrics();
    EXPECT_GT(ss.counter("server.reply.enqueued"), 0u);
    EXPECT_EQ(ss.counter("server.reply.queue_full"), 0u)
        << "a merely-slow reader must never be dropped";
    EXPECT_EQ(ss.counter("server.reply.peer_gone"), 0u);
    EXPECT_EQ(ss.counter("server.reply.sent"), ss.counter("server.reply.enqueued"))
        << "a parked reply was never delivered";
  }
  const auto st = tc.server().metrics();
  EXPECT_EQ(st.gauge("server.bml_in_use"), 0) << "BML pool leaked a lease";
  EXPECT_EQ(st.gauge("bb.cached_bytes"), 0) << "burst-buffer cache leaked a lease";

  // Zero undetected corruption: the terminal backend holds the golden bytes.
  for (int id = 0; id < n_clients; ++id) {
    const auto& file = expected[static_cast<std::size_t>(id)];
    const auto all = tc.snapshot("soak" + std::to_string(id));
    ASSERT_EQ(all.size(), file.size()) << "client " << id << " file truncated";
    EXPECT_TRUE(std::equal(file.begin(), file.end(), all.begin()))
        << "client " << id << " stored bytes differ from the golden model";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SoakMatrix,
    ::testing::Values(SoakParam{4, FaultMode::none}, SoakParam{4, FaultMode::transient},
                      SoakParam{4, FaultMode::bit_flip}, SoakParam{16, FaultMode::none},
                      SoakParam{16, FaultMode::transient}, SoakParam{16, FaultMode::bit_flip},
                      SoakParam{64, FaultMode::none}, SoakParam{64, FaultMode::transient},
                      SoakParam{64, FaultMode::bit_flip}, SoakParam{4, FaultMode::slow_reader},
                      SoakParam{16, FaultMode::slow_reader},
                      SoakParam{64, FaultMode::slow_reader}),
    [](const auto& pinfo) {
      return "c" + std::to_string(pinfo.param.clients) + "_" + to_cstr(pinfo.param.mode);
    });

}  // namespace
}  // namespace iofwd::fault
