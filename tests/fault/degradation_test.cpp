// Graceful degradation: one stall bound on the wait for staging space — a
// BML lease falls back to pass-through execution, a full burst buffer to
// write-through — and the queue-depth hysteresis that switches async staging
// to sync staging.
#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "bb/burst_buffer.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/async_client.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::fault {
namespace {

using namespace std::chrono_literals;
using testsupport::ClusterOptions;
using testsupport::TestCluster;
using testsupport::pattern;

TEST(Degradation, BmlExhaustionFallsBackToPassThrough) {
  // The pool holds exactly one 64 KiB buffer. The first write leases it and
  // then sits in a 400ms-slow backend write; the second write cannot lease
  // within stall_ms and must execute inline, BML-less, instead of
  // blocking until the first completes.
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.bml_bytes = 64_KiB;
  o.server.stall_ms = 20;
  TestCluster tc(o);
  auto& client = tc.client();

  ASSERT_TRUE(client.open(1, "f").is_ok());
  tc.backend_plan().add({.op = OpKind::write, .nth = 1, .error = Errc::ok, .latency = 400'000us});
  const auto a = pattern(64_KiB, 1);
  const auto b = pattern(64_KiB, 2);
  ASSERT_TRUE(client.write(1, 0, a).is_ok());  // staged; flush is slow
  ASSERT_TRUE(client.write(1, a.size(), b).is_ok()) << "degraded write must still succeed";

  ASSERT_TRUE(client.fsync(1).is_ok());
  const auto st = tc.server().metrics();
  EXPECT_GE(st.counter("server.bml_timeouts"), 1u);
  EXPECT_GE(st.counter("server.degraded_passthrough_ops"), 1u);

  // Data integrity across both paths.
  const auto all = tc.snapshot("f");
  ASSERT_EQ(all.size(), a.size() + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), all.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), all.begin() + static_cast<std::ptrdiff_t>(a.size())));
  EXPECT_TRUE(client.close(1).is_ok());
}

TEST(Degradation, OversizeWriteStillBouncesNoMemory) {
  // The degraded path must not swallow the documented oversize bounce.
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.bml_bytes = 64_KiB;
  o.server.stall_ms = 10;
  TestCluster tc(o);
  ASSERT_TRUE(tc.client().open(1, "f").is_ok());
  EXPECT_EQ(tc.client().write(1, 0, pattern(1_MiB, 3)).code(), Errc::no_memory);
}

TEST(Degradation, BurstBufferStallBoundWritesThrough) {
  // Inner writes are slowed to 100ms, so the flushers cannot free capacity
  // within the 10ms stall bound; a writer facing a full cache must fall back
  // to a synchronous write-through instead of stalling indefinitely.
  // Hand-built: this exercises the raw BurstBufferBackend, no server at all.
  auto plan = std::make_shared<FaultPlan>();
  plan->add({.op = OpKind::write,
             .probability = 1.0,
             .transient = false,
             .error = Errc::ok,
             .latency = 100'000us});
  bb::BurstBufferConfig cfg;
  cfg.capacity_bytes = 64_KiB;
  cfg.high_watermark = 1.0;  // only stall pressure drives flushing
  cfg.low_watermark = 1.0;
  cfg.write_through_bytes = 1_MiB;  // never bypass by size
  cfg.max_stall_ms = 10;
  cfg.flushers = 1;

  auto faulty = std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan);
  auto* mem = static_cast<rt::MemBackend*>(&faulty->inner());
  bb::BurstBufferBackend bbuf(std::move(faulty), cfg);

  ASSERT_TRUE(bbuf.open(1, "f").is_ok());
  const auto a = pattern(48_KiB, 4);
  const auto b = pattern(48_KiB, 5);
  // Disjoint, non-adjacent runs: the second cannot merge with the first, so
  // it needs its own lease from a pool the first already exhausted.
  const std::uint64_t off_b = 1_MiB;
  ASSERT_TRUE(bbuf.write(1, 0, a).is_ok());  // fits the cache
  // No lease available: stalls, gives up after max_stall_ms, writes through.
  ASSERT_TRUE(bbuf.write(1, off_b, b).is_ok());
  EXPECT_GE(bbuf.metrics().counter("bb.degraded_writes"), 1u);

  ASSERT_TRUE(bbuf.fsync(1).is_ok());
  const auto all = mem->snapshot("f");
  ASSERT_EQ(all.size(), off_b + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), all.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), all.begin() + static_cast<std::ptrdiff_t>(off_b)));
  EXPECT_TRUE(bbuf.close(1).is_ok());
}

TEST(Degradation, OneStallBoundCoversBmlAndBurstBuffer) {
  // One stall_ms bounds both waits for staging space. The BML holds one
  // 48 KiB payload and the burst buffer four, which it never flushes on its
  // own (watermarks at 1.0); every inner write takes 100ms. Once the cache is
  // full, a staged write's worker stalls in bb, gives up after stall_ms and
  // writes through — holding its BML lease all the while — so the next
  // write's header cannot lease within stall_ms either and passes through.
  // Non-adjacent offsets keep the cached extents from merging.
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.bml_bytes = 64_KiB;
  o.server.bb_bytes = 256_KiB;  // write-through-by-size starts at 64 KiB
  o.server.bb_high_watermark = 1.0;
  o.server.bb_low_watermark = 1.0;
  o.server.stall_ms = 10;
  TestCluster tc(o);
  tc.backend_plan().add({.op = OpKind::write,
                         .probability = 1.0,
                         .transient = false,
                         .error = Errc::ok,
                         .latency = 100'000us});
  auto& client = tc.client();

  ASSERT_TRUE(client.open(1, "f").is_ok());
  constexpr std::uint64_t kWrites = 8;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(client.write(1, i * 1_MiB, pattern(48_KiB, 20 + i)).is_ok()) << "write " << i;
  }
  ASSERT_TRUE(client.fsync(1).is_ok());

  const auto st = tc.server().metrics();
  EXPECT_GE(st.counter("server.bml_timeouts"), 1u) << "no write timed out on the BML";
  EXPECT_GE(st.counter("bb.degraded_writes"), 1u) << "no write timed out on the burst buffer";
  // Every admission is counted once under its verdict and reason: each
  // BML timeout is a bml_wait pass-through, every other write staged async.
  EXPECT_EQ(st.counter("server.admit.passthrough.bml_wait"), st.counter("server.bml_timeouts"));
  EXPECT_EQ(st.counter("server.admit.passthrough.bml_wait") +
                st.counter("server.admit.async_stage.none"),
            kWrites);
  EXPECT_TRUE(client.close(1).is_ok());

  const auto all = tc.drain_and_snapshot("f");
  ASSERT_EQ(all.size(), (kWrites - 1) * 1_MiB + 48_KiB);
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    const auto want = pattern(48_KiB, 20 + i);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(i * 1_MiB)))
        << "write " << i;
  }
}

TEST(Degradation, StallBoundHoldsWhileFlushersWrite) {
  // At the default 0.75/0.50 watermarks the background flushers take the
  // cached extents, and their inner writes are held on a gate until the test
  // opens it. A flusher writes with the descriptor lock released, so a writer
  // to the same descriptor that finds the cache full waits at most
  // max_stall_ms and then writes through (the gate passes writes at or past
  // kHeldBelow) while every flush is still in flight, instead of waiting for
  // a flush to end.
  constexpr std::uint64_t kHeldBelow = 4_MiB;
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    int held = 0;  // flushes waiting at the gate
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  struct GatedMem final : rt::IoBackend {
    rt::MemBackend mem;
    std::shared_ptr<Gate> g;
    explicit GatedMem(std::shared_ptr<Gate> gg) : g(std::move(gg)) {}
    Status open(int fd, const std::string& p) override { return mem.open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      if (off < kHeldBelow) {
        std::unique_lock lk(g->mu);
        ++g->held;
        g->cv.notify_all();
        g->cv.wait(lk, [&] { return g->open; });
      }
      return mem.write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return mem.read(fd, off, o);
    }
    Status fsync(int fd) override { return mem.fsync(fd); }
    Status close(int fd) override { return mem.close(fd); }
    Result<std::uint64_t> size(int fd) override { return mem.size(fd); }
  };
  const auto open_gate = [&] {
    std::scoped_lock lk(gate->mu);
    gate->open = true;
    gate->cv.notify_all();
  };

  bb::BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;  // four 48 KiB writes (64 KiB classes)
  cfg.write_through_bytes = 1_MiB;  // never bypass by size
  cfg.max_stall_ms = 10;
  auto gated = std::make_unique<GatedMem>(gate);
  auto* mem = &gated->mem;
  bb::BurstBufferBackend bbuf(std::move(gated), cfg);
  ASSERT_TRUE(bbuf.open(1, "f").is_ok());

  // Writes 0-3 fill the cache (crossing 0.75 wakes the flushers, which park
  // at the gate); write 4 finds it full and must degrade.
  constexpr std::uint64_t kWrites = 5;
  auto burst = std::async(std::launch::async, [&] {
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      if (!bbuf.write(1, i * 1_MiB, pattern(48_KiB, 40 + i)).is_ok()) return false;
    }
    return true;
  });
  const bool prompt = burst.wait_for(5s) == std::future_status::ready;
  const auto m = bbuf.metrics();
  int held = 0;
  {
    std::scoped_lock lk(gate->mu);
    held = gate->held;
  }
  open_gate();
  EXPECT_TRUE(prompt) << "a writer waited for a background flush of its descriptor";
  ASSERT_TRUE(burst.get());
  EXPECT_GE(held, 1) << "no flush was in flight";
  EXPECT_EQ(m.counter("bb.flushed_bytes"), 0u) << "a flush ended before the gate opened";
  EXPECT_EQ(m.counter("bb.degraded_writes"), 1u) << "the fifth write did not write through";

  ASSERT_TRUE(bbuf.fsync(1).is_ok());
  const auto all = mem->snapshot("f");
  ASSERT_EQ(all.size(), (kWrites - 1) * 1_MiB + 48_KiB);
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    const auto want = pattern(48_KiB, 40 + i);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(i * 1_MiB)))
        << "write " << i;
  }
  EXPECT_TRUE(bbuf.close(1).is_ok());
}

TEST(Degradation, QueueDepthWatermarkForcesSyncStaging) {
  // One worker, 30ms per backend write, 24 pipelined writes: the queue depth
  // crosses the high watermark, so later writes must be staged synchronously
  // (acknowledged only on completion) until the queue drains to a quarter of
  // the watermark.
  ClusterOptions o;
  o.server.exec = rt::ExecModel::work_queue_async;
  o.server.workers = 1;
  o.server.degraded_queue_depth = 4;  // exits at depth 1
  o.clients = 0;  // the pipelined AsyncClient below is the only client
  TestCluster tc(o);
  tc.backend_plan().add({.op = OpKind::write,
                         .probability = 1.0,
                         .transient = false,
                         .error = Errc::ok,
                         .latency = 30'000us});

  auto stream = tc.factory()();
  ASSERT_TRUE(stream.is_ok());
  rt::AsyncClient client(std::move(stream).value(), /*window=*/32);

  ASSERT_TRUE(client.open(1, "q").get().is_ok());
  const auto data = pattern(4_KiB, 6);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(client.write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().is_ok());
  ASSERT_TRUE(client.fsync(1).get().is_ok());

  const auto st = tc.server().metrics();
  EXPECT_GE(st.counter("server.degraded_enters"), 1u) << "queue depth never crossed the watermark";
  EXPECT_GE(st.counter("server.degraded_sync_writes"), 1u);
  EXPECT_GT(st.counter("server.degraded_ns"), 0u);
  EXPECT_TRUE(client.close_fd(1).get().is_ok());
}

TEST(Degradation, IdleDegradedServerReportsTheOpenInterval) {
  // The hysteresis re-evaluates only on a write, so a server that degraded
  // during a burst and then went idle stays degraded. metrics() must count
  // that open interval, and keep counting it while the server idles.
  // The single worker holds the first write at a gate until the other five
  // are queued, so they meet queue depths 0-4: the third of them degrades
  // the server, and no later write meets the empty queue that would end it.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;  // the first write is waiting at the gate
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  struct FirstWriteGated final : rt::IoBackend {
    rt::MemBackend mem;
    std::shared_ptr<Gate> g;
    explicit FirstWriteGated(std::shared_ptr<Gate> gg) : g(std::move(gg)) {}
    Status open(int fd, const std::string& p) override { return mem.open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      {
        std::unique_lock lk(g->mu);
        if (!g->held) {
          g->held = true;
          g->cv.notify_all();
          g->cv.wait(lk, [&] { return g->open; });
        }
      }
      return mem.write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return mem.read(fd, off, o);
    }
    Status fsync(int fd) override { return mem.fsync(fd); }
    Status close(int fd) override { return mem.close(fd); }
    Result<std::uint64_t> size(int fd) override { return mem.size(fd); }
  };

  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  cfg.workers = 1;
  cfg.degraded_queue_depth = 2;  // exits at depth 0
  rt::IonServer server(std::make_unique<FirstWriteGated>(gate), cfg);
  auto [se, ce] = rt::SocketTransport::make_socketpair().value();
  server.serve(std::move(se));
  rt::AsyncClient client(std::move(ce), /*window=*/8);
  ASSERT_TRUE(client.open(1, "q").get().is_ok());
  const auto data = pattern(4_KiB, 7);
  std::vector<std::future<Status>> futures;
  futures.push_back(client.write(1, 0, data));
  {
    std::unique_lock lk(gate->mu);
    ASSERT_TRUE(gate->cv.wait_for(lk, 10s, [&] { return gate->held; }))
        << "the worker never took the first write";
  }
  for (int i = 1; i < 6; ++i) {
    futures.push_back(client.write(1, static_cast<std::uint64_t>(i) * data.size(), data));
  }
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (server.metrics().gauge("server.queue_depth") < 5 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  {
    std::scoped_lock lk(gate->mu);
    gate->open = true;
    gate->cv.notify_all();
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().is_ok());
  ASSERT_TRUE(client.fsync(1).get().is_ok());  // queue drained, no write since

  ASSERT_GE(server.metrics().counter("server.degraded_enters"), 1u);
  const std::uint64_t first = server.metrics().counter("server.degraded_ns");
  EXPECT_GT(first, 0u) << "the open degraded interval is missing";
  std::this_thread::sleep_for(2ms);
  EXPECT_GT(server.metrics().counter("server.degraded_ns"), first);
  EXPECT_TRUE(client.close_fd(1).get().is_ok());
}

}  // namespace
}  // namespace iofwd::fault
