// Burst-buffer cache semantics: read-your-writes without flush barriers,
// out-of-order coalescing, capacity/watermark behaviour, per-descriptor
// drains, deferred flush errors, and composition with IonServer.
#include "bb/burst_buffer.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/decorators.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"

namespace iofwd::bb {
namespace {

using rt::MemBackend;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

// Forwards to an externally owned backend, so tests can inspect it after the
// burst buffer (which owns its inner backend) has been destroyed.
class RefBackend final : public rt::IoBackend {
 public:
  explicit RefBackend(rt::IoBackend& target) : t_(target) {}
  Status open(int fd, const std::string& path) override { return t_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    return t_.write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return t_.read(fd, offset, out);
  }
  Status fsync(int fd) override { return t_.fsync(fd); }
  Status close(int fd) override { return t_.close(fd); }
  Result<std::uint64_t> size(int fd) override { return t_.size(fd); }

 private:
  rt::IoBackend& t_;
};

struct Fixture {
  MemBackend* mem = nullptr;
  // Faults are injected through the shared plan (fault::FaultyBackend sits
  // between the burst buffer and the MemBackend).
  std::shared_ptr<fault::FaultPlan> plan = std::make_shared<fault::FaultPlan>();
  BurstBufferBackend bbuf;

  explicit Fixture(BurstBufferConfig cfg)
      : bbuf(
            [this] {
              auto m = std::make_unique<MemBackend>();
              mem = m.get();
              return std::make_unique<fault::FaultyBackend>(std::move(m), plan);
            }(),
            cfg) {}
};

BurstBufferConfig quiet_config(std::uint64_t capacity = 16_MiB) {
  // Watermarks at 100%: background flushing never kicks in, so tests can
  // assert exactly when data reaches the inner backend.
  BurstBufferConfig cfg;
  cfg.capacity_bytes = capacity;
  cfg.high_watermark = 1.0;
  cfg.low_watermark = 1.0;
  cfg.write_through_bytes = capacity;  // never bypass
  return cfg;
}

TEST(BurstBuffer, ReadYourWritesWithoutFlush) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto data = pattern(64_KiB, 1);
  ASSERT_TRUE(fx.bbuf.write(1, 4096, data).is_ok());

  std::vector<std::byte> out(64_KiB);
  auto r = fx.bbuf.read(1, 4096, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 64_KiB);
  EXPECT_EQ(out, data);
  const auto s = fx.bbuf.metrics();
  EXPECT_EQ(s.counter("bb.backend_writes"), 0u) << "read served from cache, no flush barrier";
  EXPECT_GT(s.counter("bb.read_bytes"), 0u);
  EXPECT_EQ(s.counter("bb.read_hit_bytes"), s.counter("bb.read_bytes")) << "hit rate 1.0";
  EXPECT_TRUE(fx.mem->snapshot("f").empty());
}

TEST(BurstBuffer, OutOfOrderBurstCoalescesToOneBackendWrite) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // 16 chunks written in reverse: the sequential aggregator would issue one
  // backend write per chunk; the extent index merges them into one run.
  const auto chunk = pattern(16_KiB, 2);
  for (int i = 15; i >= 0; --i) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  EXPECT_EQ(fx.bbuf.metrics().counter("bb.backend_writes"), 0u);
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  const auto s = fx.bbuf.metrics();
  EXPECT_EQ(s.counter("bb.backend_writes"), 1u) << "one coalesced flush for the whole burst";
  EXPECT_GT(s.counter("bb.writes_in"), 10 * s.counter("bb.backend_writes")) << "coalesce ratio";
  EXPECT_EQ(fx.mem->snapshot("f").size(), 16 * 16_KiB);
}

TEST(BurstBuffer, InterleavedStridedWritesCoalesce) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Two interleaved strided streams (even chunks then odd chunks): never
  // sequential, but the union is one contiguous run.
  const auto chunk = pattern(8_KiB, 3);
  for (int i = 0; i < 16; i += 2) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  for (int i = 1; i < 16; i += 2) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  EXPECT_EQ(fx.bbuf.metrics().counter("bb.backend_writes"), 1u);
  EXPECT_EQ(fx.mem->snapshot("f").size(), 16 * 8_KiB);
}

TEST(BurstBuffer, CachedBytesNeverExceedCapacity) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;
  cfg.high_watermark = 0.75;
  cfg.low_watermark = 0.5;
  cfg.flushers = 1;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Ingest 4 MiB through a 256 KiB cache, shuffled within 64 KiB groups so
  // runs are non-sequential; writers must stall-and-drain, never overrun.
  const auto chunk = pattern(16_KiB, 4);
  std::vector<int> order;
  for (int g = 0; g < 64; g += 4) {
    order.insert(order.end(), {g + 3, g + 1, g + 2, g});
  }
  for (int i : order) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  const auto s = fx.bbuf.metrics();
  EXPECT_LE(static_cast<std::uint64_t>(s.gauge("bb.cached_high_watermark")), cfg.capacity_bytes)
      << "staged bytes must never exceed bb_bytes";
  EXPECT_LT(s.counter("bb.backend_writes"), s.counter("bb.writes_in"))
      << "coalescing still wins under pressure";
  // Every byte landed despite evictions and stalls.
  const auto stored = fx.mem->snapshot("f");
  ASSERT_EQ(stored.size(), 64 * 16_KiB);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(std::equal(chunk.begin(), chunk.end(),
                           stored.begin() + static_cast<std::ptrdiff_t>(i) * 16_KiB))
        << "chunk " << i;
  }
}

TEST(BurstBuffer, WatermarkTriggersBackgroundFlush) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 1_MiB;
  cfg.high_watermark = 0.5;
  cfg.low_watermark = 0.25;
  cfg.flushers = 2;
  cfg.write_through_bytes = 1_MiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Disjoint extents totalling 768 KiB: crosses the 512 KiB high watermark.
  const auto chunk = pattern(64_KiB, 5);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fx.bbuf.write(1, static_cast<std::uint64_t>(i) * 128_KiB, chunk).is_ok());
  }
  // No fsync: the background flushers must drain on their own.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.bbuf.metrics().counter("bb.flushed_bytes") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(fx.bbuf.metrics().counter("bb.flushed_bytes"), 0u) << "flushers never woke";
  while (static_cast<std::uint64_t>(fx.bbuf.metrics().gauge("bb.cached_bytes")) >
             cfg.capacity_bytes / 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(static_cast<std::uint64_t>(fx.bbuf.metrics().gauge("bb.cached_bytes")),
            cfg.capacity_bytes / 4)
      << "flushers should drain below the low watermark";
}

TEST(BurstBuffer, FsyncDrainsOnlyThatDescriptor) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "a").is_ok());
  ASSERT_TRUE(fx.bbuf.open(2, "b").is_ok());
  const auto d = pattern(4_KiB, 6);
  ASSERT_TRUE(fx.bbuf.write(1, 0, d).is_ok());
  ASSERT_TRUE(fx.bbuf.write(2, 0, d).is_ok());
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("a").size(), 4_KiB);
  EXPECT_TRUE(fx.mem->snapshot("b").empty()) << "fd 2 still staged";
  ASSERT_TRUE(fx.bbuf.close(2).is_ok());
  EXPECT_EQ(fx.mem->snapshot("b").size(), 4_KiB);
}

TEST(BurstBuffer, ReadMixesCachedExtentsAndBackendHoles) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Backend already holds [0, 12 KiB) of 'old'; stage new data over the
  // middle third only.
  const auto old_data = pattern(12_KiB, 7);
  ASSERT_TRUE(fx.mem->write(1, 0, old_data).is_ok());
  const auto fresh = pattern(4_KiB, 8);
  ASSERT_TRUE(fx.bbuf.write(1, 4_KiB, fresh).is_ok());

  std::vector<std::byte> out(12_KiB);
  auto r = fx.bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 12_KiB);
  EXPECT_TRUE(std::equal(old_data.begin(), old_data.begin() + 4_KiB, out.begin()));
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), out.begin() + 4_KiB));
  EXPECT_TRUE(std::equal(old_data.begin() + 8_KiB, old_data.end(), out.begin() + 8_KiB));
  const auto s = fx.bbuf.metrics();
  EXPECT_EQ(s.counter("bb.read_hit_bytes"), 4_KiB);
  EXPECT_EQ(s.counter("bb.read_bytes"), 12_KiB);
}

TEST(BurstBuffer, SizeSeesStagedBytes) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  ASSERT_TRUE(fx.bbuf.write(1, 100_KiB, pattern(4_KiB, 9)).is_ok());
  auto s = fx.bbuf.size(1);
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value(), 100_KiB + 4_KiB) << "fstat must reflect unflushed extents";
}

TEST(BurstBuffer, FlushErrorIsDeferredSurfacesOnceAndDoesNotLeak) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(8_KiB, 10)).is_ok());
  fx.plan->fail_always(fault::OpKind::write, Errc::io_error);
  // The drain inside fsync fails; the error surfaces on the fsync itself.
  Status st = fx.bbuf.fsync(1);
  EXPECT_EQ(st.code(), Errc::io_error);
  // Exactly once: the failed extent was dropped and the error consumed.
  fx.plan->clear();
  EXPECT_TRUE(fx.bbuf.fsync(1).is_ok());
  EXPECT_EQ(fx.bbuf.metrics().gauge("bb.cached_bytes"), 0) << "failed extent leaked its lease";
  EXPECT_EQ(fx.bbuf.metrics().counter("bb.deferred_errors"), 1u);
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
}

TEST(BurstBuffer, BackgroundFlushErrorBouncesNextOp) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;
  cfg.high_watermark = 0.25;
  cfg.low_watermark = 0.0;
  cfg.flushers = 1;
  cfg.write_through_bytes = 256_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  fx.plan->fail_always(fault::OpKind::write, Errc::io_error);
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(128_KiB, 11)).is_ok());  // over the watermark
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.bbuf.metrics().counter("bb.deferred_errors") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(fx.bbuf.metrics().counter("bb.deferred_errors"), 0u) << "background flush never failed";
  fx.plan->clear();
  // Next op on the descriptor bounces with the recorded error, unexecuted...
  auto r = fx.bbuf.write(1, 1_MiB, pattern(4_KiB, 12));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::io_error);
  // ...and exactly once.
  EXPECT_TRUE(fx.bbuf.write(1, 1_MiB, pattern(4_KiB, 12)).is_ok());
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
  EXPECT_EQ(fx.bbuf.metrics().gauge("bb.cached_bytes"), 0);
}

TEST(BurstBuffer, DestructionDrainsEverything) {
  MemBackend mem;
  const auto data = pattern(32_KiB, 13);
  {
    BurstBufferBackend bbuf(std::make_unique<RefBackend>(mem), quiet_config());
    ASSERT_TRUE(bbuf.open(1, "f").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, data).is_ok());
    EXPECT_TRUE(mem.snapshot("f").empty());
  }  // shutdown drains all
  EXPECT_EQ(mem.snapshot("f"), data);
}

TEST(BurstBuffer, HugeWriteBypassesCacheAndSupersedesExtents) {
  BurstBufferConfig cfg = quiet_config(1_MiB);
  cfg.write_through_bytes = 256_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(16_KiB, 14)).is_ok());  // cached, will be superseded
  const auto big = pattern(512_KiB, 15);
  ASSERT_TRUE(fx.bbuf.write(1, 0, big).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f").size(), 512_KiB);
  std::vector<std::byte> out(512_KiB);
  auto r = fx.bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, big) << "stale cached extent must not shadow the write-through";
}

TEST(BurstBuffer, ReadPinnedServesCoveredRangeWithoutCopy) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto data = pattern(8_KiB, 20);
  ASSERT_TRUE(fx.bbuf.write(1, 0, data).is_ok());

  // A sub-range of one extent: the view must alias the staged bytes.
  auto pin = fx.bbuf.read_pinned(1, 1_KiB, 4_KiB);
  ASSERT_TRUE(pin.has_value());
  ASSERT_NE(pin->lease, nullptr);
  ASSERT_EQ(pin->bytes.size(), 4_KiB);
  EXPECT_TRUE(std::equal(pin->bytes.begin(), pin->bytes.end(), data.begin() + 1_KiB));
  const auto s = fx.bbuf.metrics();
  EXPECT_EQ(s.counter("bb.pinned_reads"), 1u);
  EXPECT_EQ(s.counter("bb.read_hit_bytes"), 4_KiB) << "a pinned read counts as a full cache hit";
  EXPECT_EQ(s.counter("bb.backend_writes"), 0u);
}

TEST(BurstBuffer, ReadPinnedViewSurvivesOverwriteOfTheExtent) {
  Fixture fx(quiet_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto before = pattern(8_KiB, 21);
  ASSERT_TRUE(fx.bbuf.write(1, 0, before).is_ok());
  auto pin = fx.bbuf.read_pinned(1, 0, 8_KiB);
  ASSERT_TRUE(pin.has_value());

  // Overwrite while the pin is live. The in-place fast path requires a
  // unique lease, so the cache must route around the pinned buffer; the
  // outstanding view keeps the pre-overwrite bytes (this is what lets a
  // parked reply writev safely while the descriptor takes new writes).
  const auto after = pattern(8_KiB, 22);
  ASSERT_TRUE(fx.bbuf.write(1, 0, after).is_ok());
  EXPECT_TRUE(std::equal(pin->bytes.begin(), pin->bytes.end(), before.begin()))
      << "a live pin must never observe later writes";

  std::vector<std::byte> out(8_KiB);
  auto r = fx.bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, after) << "new readers see the overwrite";
  pin.reset();  // release the lease before the drain
  ASSERT_TRUE(fx.bbuf.close(1).is_ok());
  EXPECT_EQ(fx.mem->snapshot("f"), after);
}

TEST(BurstBuffer, ReadPinnedMissesOnHolesPartialCoverageAndUnknownFd) {
  Fixture fx(quiet_config());
  EXPECT_FALSE(fx.bbuf.read_pinned(7, 0, 4_KiB).has_value()) << "unknown descriptor";

  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // Backend-resident bytes are not pinnable: only staged extents are.
  ASSERT_TRUE(fx.mem->write(1, 0, pattern(4_KiB, 23)).is_ok());
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 0, 4_KiB).has_value()) << "backend-only range";

  ASSERT_TRUE(fx.bbuf.write(1, 4_KiB, pattern(8_KiB, 24)).is_ok());  // extent [4 KiB, 12 KiB)
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 16_KiB, 4_KiB).has_value()) << "hole";
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 8_KiB, 8_KiB).has_value()) << "partial coverage";
  EXPECT_TRUE(fx.bbuf.read_pinned(1, 4_KiB, 8_KiB).has_value()) << "exact coverage still hits";
  EXPECT_EQ(fx.bbuf.metrics().counter("bb.pinned_reads"), 1u)
      << "misses must not count as pinned reads";
}

TEST(BurstBuffer, ReadPinnedDoesNotConsumeDeferredErrors) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 256_KiB;
  cfg.high_watermark = 0.25;
  cfg.low_watermark = 0.2;  // stop draining before the small extent goes
  cfg.flushers = 1;
  cfg.write_through_bytes = 256_KiB;
  Fixture fx(cfg);
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  // A small extent parked high in the file: it survives the failed flush
  // (largest-dirty goes first, and the low watermark halts the drain).
  const auto keep = pattern(16_KiB, 25);
  ASSERT_TRUE(fx.bbuf.write(1, 1_MiB, keep).is_ok());
  fx.plan->fail_always(fault::OpKind::write, Errc::io_error);
  ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(128_KiB, 26)).is_ok());  // over the watermark
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.bbuf.metrics().counter("bb.deferred_errors") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(fx.bbuf.metrics().counter("bb.deferred_errors"), 0u) << "background flush never failed";
  fx.plan->clear();

  // The fast path must peek — not consume — the pending error: it misses, and
  // the error still bounces the next op exactly once.
  EXPECT_FALSE(fx.bbuf.read_pinned(1, 1_MiB, 16_KiB).has_value())
      << "a pending deferred error must force the read() fallback";
  auto r = fx.bbuf.write(1, 2_MiB, pattern(4_KiB, 27));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::io_error) << "read_pinned swallowed the deferred error";

  // Error consumed: the surviving extent is pinnable again.
  auto pin = fx.bbuf.read_pinned(1, 1_MiB, 16_KiB);
  ASSERT_TRUE(pin.has_value());
  EXPECT_TRUE(std::equal(pin->bytes.begin(), pin->bytes.end(), keep.begin()));
  pin.reset();
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
}

// ---------------------------------------------------------------------------
// Write-behind (DESIGN.md §9): the burst buffer's write-back of staged
// extents starts disk writeback on a FileBackend; no other write does.
// ---------------------------------------------------------------------------

// Writeback requests a server's FileBackend started for a strided 256 KiB
// burst, an fsync and a close.
std::uint64_t server_writebacks(std::uint64_t bb_bytes) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("iofwd_bbwb_" + std::to_string(::getpid()) + "_" + std::to_string(bb_bytes));
  auto file_owned = std::make_unique<rt::FileBackend>(root.string());
  auto* file = file_owned.get();
  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  cfg.bb_bytes = bb_bytes;
  rt::IonServer server(std::move(file_owned), cfg);
  auto [se, ce] = rt::SocketTransport::make_socketpair().value();
  server.serve(std::move(se));
  rt::Client client(std::move(ce));
  EXPECT_TRUE(client.open(1, "ckpt").is_ok());
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(client.write(1, i * 4 * 256_KiB, pattern(256_KiB, 70 + i)).is_ok());
  }
  EXPECT_TRUE(client.fsync(1).is_ok());
  EXPECT_TRUE(client.close(1).is_ok());
  const std::uint64_t n = file->writebacks();
  std::filesystem::remove_all(root);
  return n;
}

TEST(BurstBuffer, WriteBackStartsWriteBehindAndBypassingWritesDoNot) {
  EXPECT_GE(server_writebacks(8_MiB), 1u) << "staged extents were written back without it";
  EXPECT_EQ(server_writebacks(0), 0u) << "a write with the burst buffer off started writeback";
}

// ---------------------------------------------------------------------------
// Acked-write bypass (DESIGN.md §9): a large write the server already acked
// goes straight to the backend unless it touches a dirty extent; every other
// write stages.
// ---------------------------------------------------------------------------

// 16 MiB cache that never flushes by itself.
BurstBufferConfig bypass_config() {
  BurstBufferConfig cfg = quiet_config();
  cfg.flush_idle_ms = 0;
  return cfg;
}

TEST(BurstBuffer, AckedLargeFreshWriteBypassesAPartlyFullCache) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("iofwd_bypass_" + std::to_string(::getpid()));
  BurstBufferConfig cfg = bypass_config();
  cfg.journal_dir = dir.string();
  {
    Fixture fx(cfg);
    ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
    ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(256_KiB, 80)).is_ok());
    const auto before = fx.bbuf.metrics();
    const auto w = pattern(256_KiB, 81);
    {
      const rt::AckedWriteScope acked;
      ASSERT_TRUE(fx.bbuf.write(1, 2_MiB, w).is_ok());
    }
    const auto after = fx.bbuf.metrics();
    EXPECT_EQ(after.counter("bb.bypassed_writes"), 1u);
    EXPECT_EQ(after.gauge("bb.cached_bytes"), before.gauge("bb.cached_bytes"));
    EXPECT_EQ(after.counter("bb.journal.appends"), before.counter("bb.journal.appends"))
        << "a bypassed write is in the backend, not the journal";
    EXPECT_EQ(after.counter("bb.write_through_bytes"), 256_KiB);
    const auto backend = fx.mem->snapshot("f");
    ASSERT_EQ(backend.size(), 2_MiB + 256_KiB);
    EXPECT_TRUE(std::equal(w.begin(), w.end(), backend.begin() + 2_MiB));
    std::vector<std::byte> out(w.size());
    ASSERT_TRUE(fx.bbuf.read(1, 2_MiB, out).is_ok());
    EXPECT_EQ(out, w);
    EXPECT_TRUE(fx.bbuf.close(1).is_ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(BurstBuffer, AckedLargeFreshWriteBypassesAnEmptyCache) {
  // No watermark in the rule: the very first write of a burst bypasses too.
  Fixture fx(bypass_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  const auto w = pattern(256_KiB, 84);
  {
    const rt::AckedWriteScope acked;
    ASSERT_TRUE(fx.bbuf.write(1, 0, w).is_ok());
  }
  const auto m = fx.bbuf.metrics();
  EXPECT_EQ(m.counter("bb.bypassed_writes"), 1u);
  EXPECT_EQ(m.gauge("bb.cached_bytes"), 0);
  EXPECT_EQ(fx.mem->snapshot("f"), w);
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
}

TEST(BurstBuffer, AckedWriteAdjoiningADirtyExtentGrowsIt) {
  // A sequential stream that started staging with a small write keeps
  // staging: each large acked write adjoins the dirty extent and grows it,
  // and the fsync writes the whole run back in one call.
  Fixture fx(bypass_config());
  ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
  std::vector<std::byte> want;
  {
    const rt::AckedWriteScope acked;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto w = pattern(i == 0 ? 32_KiB : 256_KiB, 85 + i);
      ASSERT_TRUE(fx.bbuf.write(1, want.size(), w).is_ok());
      want.insert(want.end(), w.begin(), w.end());
    }
  }
  auto m = fx.bbuf.metrics();
  EXPECT_EQ(m.counter("bb.bypassed_writes"), 0u);
  EXPECT_EQ(m.counter("bb.writes_absorbed"), 2u) << "the later writes grew the first extent";
  EXPECT_EQ(m.gauge("bb.dirty_bytes"), static_cast<std::int64_t>(want.size()));
  EXPECT_TRUE(fx.mem->snapshot("f").empty());
  ASSERT_TRUE(fx.bbuf.fsync(1).is_ok());
  m = fx.bbuf.metrics();
  EXPECT_EQ(m.counter("bb.backend_writes"), 1u) << "one run, one write-back";
  EXPECT_EQ(fx.mem->snapshot("f"), want);
  EXPECT_TRUE(fx.bbuf.close(1).is_ok());
}

TEST(BurstBuffer, WritesOutsideTheBypassRuleStage) {
  // Each case writes 256 KiB unless noted, and must stage: the cache grows
  // and the backend sees nothing. A 256 KiB extent at 0 is staged first.
  struct Case {
    const char* name;
    bool acked;
    std::uint64_t offset;
    std::size_t len;
  };
  const Case cases[] = {
      {"not acked", false, 2_MiB, 256_KiB},
      {"overlaps a dirty extent", true, 128_KiB, 256_KiB},
      {"adjoins a dirty extent", true, 256_KiB, 256_KiB},
      {"under 64 KiB", true, 2_MiB, BurstBufferBackend::kBypassBytes - 1},
  };
  for (const Case& c : cases) {
    Fixture fx(bypass_config());
    ASSERT_TRUE(fx.bbuf.open(1, "f").is_ok());
    ASSERT_TRUE(fx.bbuf.write(1, 0, pattern(256_KiB, 82)).is_ok());
    const auto before = fx.bbuf.metrics().gauge("bb.cached_bytes");
    {
      std::optional<rt::AckedWriteScope> acked;
      if (c.acked) acked.emplace();
      ASSERT_TRUE(fx.bbuf.write(1, c.offset, pattern(c.len, 83)).is_ok()) << c.name;
    }
    const auto m = fx.bbuf.metrics();
    EXPECT_EQ(m.counter("bb.bypassed_writes"), 0u) << c.name;
    EXPECT_GT(m.gauge("bb.cached_bytes"), before) << c.name;
    EXPECT_TRUE(fx.mem->snapshot("f").empty()) << c.name;
    EXPECT_TRUE(fx.bbuf.close(1).is_ok());
  }
}

// Strided N-to-1 checkpoint burst twice the cache from four clients, then
// fsync and close on each: the bypassed-write count, with the backend's file
// checked byte for byte.
std::uint64_t checkpoint_bypasses(rt::ExecModel exec) {
  constexpr int kClients = 4;
  constexpr std::uint64_t kBlocks = 32;  // 8 MiB of 256 KiB blocks
  auto mem_owned = std::make_unique<MemBackend>();
  auto* mem = mem_owned.get();
  rt::ServerConfig cfg;
  cfg.exec = exec;
  cfg.bb_bytes = 4_MiB;
  rt::IonServer server(std::move(mem_owned), cfg);
  std::vector<std::jthread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    auto [se, ce] = rt::SocketTransport::make_socketpair().value();
    server.serve(std::move(se));
    clients.emplace_back([&failures, c, stream = std::move(ce)]() mutable {
      rt::Client client(std::move(stream));
      const int fd = c + 1;
      bool ok = client.open(fd, "ckpt").is_ok();
      for (std::uint64_t b = static_cast<std::uint64_t>(c); b < kBlocks; b += kClients) {
        ok = ok && client.write(fd, b * 256_KiB, pattern(256_KiB, 90 + b)).is_ok();
      }
      ok = ok && client.fsync(fd).is_ok() && client.close(fd).is_ok();
      if (!ok) failures.fetch_add(1);
    });
  }
  clients.clear();  // joins
  EXPECT_EQ(failures.load(), 0);
  const auto all = mem->snapshot("ckpt");
  EXPECT_EQ(all.size(), kBlocks * 256_KiB);
  for (std::uint64_t b = 0; b < kBlocks && all.size() == kBlocks * 256_KiB; ++b) {
    const auto want = pattern(256_KiB, 90 + b);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(b * 256_KiB)))
        << "block " << b;
  }
  return server.metrics().counter("bb.bypassed_writes");
}

TEST(BurstBuffer, CheckpointBurstBypassesOnlyUnderAsyncStaging) {
  EXPECT_GT(checkpoint_bypasses(rt::ExecModel::work_queue_async), 0u);
  EXPECT_EQ(checkpoint_bypasses(rt::ExecModel::work_queue), 0u)
      << "a synchronously staged write is not acked yet";
}

TEST(BurstBuffer, DegradedSyncStagedWriteStagesAndSurvivesACrash) {
  // Queue-depth admission demotes a write to sync staging: it is acked only
  // after it executes, so it stages and is journaled like any unacked write,
  // while the async writes before it bypass. One worker holds the first
  // write at a gate until the next three are queued; they meet queue depths
  // 0, 1 and 2, and the third degrades the server.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;  // the first write is waiting at the gate
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  auto mem = std::make_shared<MemBackend>();
  struct FirstWriteGated final : rt::IoBackend {
    std::shared_ptr<MemBackend> m;
    std::shared_ptr<Gate> g;
    FirstWriteGated(std::shared_ptr<MemBackend> mm, std::shared_ptr<Gate> gg)
        : m(std::move(mm)), g(std::move(gg)) {}
    Status open(int fd, const std::string& p) override { return m->open(fd, p); }
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
      return m->write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return m->read(fd, off, o);
    }
    Status fsync(int fd) override { return m->fsync(fd); }
    Status close(int fd) override { return m->close(fd); }
    Result<std::uint64_t> size(int fd) override { return m->size(fd); }
  };
  const auto dir = std::filesystem::temp_directory_path() /
                   ("iofwd_degraded_" + std::to_string(::getpid()));
  std::vector<std::vector<std::byte>> blocks;
  for (std::uint64_t i = 0; i < 4; ++i) blocks.push_back(pattern(256_KiB, 120 + i));
  const auto at = [](std::size_t i) { return static_cast<std::uint64_t>(i) * 1_MiB; };
  {
    rt::ServerConfig cfg;
    cfg.exec = rt::ExecModel::work_queue_async;
    cfg.workers = 1;
    cfg.degraded_queue_depth = 2;
    cfg.bb_bytes = 8_MiB;
    cfg.bb_high_watermark = 1.0;  // staged extents stay in the cache
    cfg.bb_low_watermark = 1.0;
    cfg.bb_journal_dir = dir.string();
    rt::IonServer server(std::make_unique<FirstWriteGated>(mem, gate), cfg);
    auto [se, ce] = rt::SocketTransport::make_socketpair().value();
    server.serve(std::move(se));
    rt::Client client(std::move(ce));
    ASSERT_TRUE(client.open(1, "ckpt").is_ok());
    ASSERT_TRUE(client.write(1, at(0), blocks[0]).is_ok());
    {
      std::unique_lock lk(gate->mu);
      ASSERT_TRUE(gate->cv.wait_for(lk, std::chrono::seconds(10), [&] { return gate->held; }))
          << "the worker never took the first write";
    }
    for (std::size_t i = 1; i < 3; ++i) ASSERT_TRUE(client.write(1, at(i), blocks[i]).is_ok());
    // Acked only once it has executed, so it waits for the gate.
    auto demoted = std::async(std::launch::async, [&] { return client.write(1, at(3), blocks[3]); });
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.metrics().gauge("server.queue_depth") < 3 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      std::scoped_lock lk(gate->mu);
      gate->open = true;
      gate->cv.notify_all();
    }
    ASSERT_TRUE(demoted.get().is_ok());
    // A single worker runs the queue in order, so the demoted write was last.
    const auto m = server.metrics();
    EXPECT_EQ(m.counter("server.degraded_sync_writes"), 1u);
    EXPECT_EQ(m.counter("bb.bypassed_writes"), 3u);
    EXPECT_EQ(m.gauge("bb.dirty_bytes"), static_cast<std::int64_t>(256_KiB));
    EXPECT_GE(m.counter("bb.journal.appends"), 2u) << "the open and the demoted write";
    EXPECT_EQ(mem->snapshot("ckpt").size(), at(2) + 256_KiB)
        << "only the bypassed writes reached the backend; the demoted one is staged";
    server.crash_stop();
  }
  {
    // Recovery replays the demoted write's stage record into a fresh cache.
    BurstBufferConfig cfg;
    cfg.capacity_bytes = 8_MiB;
    cfg.journal_dir = dir.string();
    BurstBufferBackend bbuf(std::make_unique<RefBackend>(*mem), cfg);
    bbuf.drain_all();
    EXPECT_GE(bbuf.metrics().counter("bb.journal.recovered"), 1u);
  }
  const auto all = mem->snapshot("ckpt");
  ASSERT_EQ(all.size(), at(3) + 256_KiB);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_TRUE(std::equal(blocks[i].begin(), blocks[i].end(),
                           all.begin() + static_cast<std::ptrdiff_t>(at(i))))
        << "block " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(BurstBuffer, ServerDestroyedWithDirtyExtentsOutstanding) {
  // The cache still holds dirty extents when the server goes away (no fsync,
  // no close): the burst buffer's destructor drains them and counts the
  // drain, so the server's metric registry must outlive it. crash_stop()
  // drops them unflushed instead.
  for (const bool crash : {false, true}) {
    rt::ServerConfig cfg;
    cfg.exec = rt::ExecModel::work_queue_async;
    cfg.bb_bytes = 8_MiB;
    cfg.bb_high_watermark = 1.0;
    cfg.bb_low_watermark = 1.0;
    auto server = std::make_unique<rt::IonServer>(std::make_unique<MemBackend>(), cfg);
    auto [se, ce] = rt::SocketTransport::make_socketpair().value();
    server->serve(std::move(se));
    rt::Client client(std::move(ce));
    ASSERT_TRUE(client.open(1, "ckpt").is_ok());
    // 32 KiB writes stage: they are under the acked-write bypass size.
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.write(1, i * 4 * 256_KiB, pattern(32_KiB, 70 + i)).is_ok());
    }
    ASSERT_TRUE(client.fstat_size(1).is_ok());  // a round trip after the writes
    if (crash) server->crash_stop();
    server.reset();
  }
}

TEST(BurstBuffer, ComposesWithServerEndToEnd) {
  auto mem_owned = std::make_unique<MemBackend>();
  auto* mem = mem_owned.get();
  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  cfg.bb_bytes = 8_MiB;
  cfg.bb_high_watermark = 1.0;  // only explicit drains flush
  cfg.bb_low_watermark = 1.0;
  rt::IonServer server(std::move(mem_owned), cfg);
  ASSERT_NE(server.burst_buffer(), nullptr);

  auto [se, ce] = rt::SocketTransport::make_socketpair().value();
  server.serve(std::move(se));
  rt::Client client(std::move(ce));
  ASSERT_TRUE(client.open(1, "ckpt").is_ok());

  // Reverse-order checkpoint burst from the client.
  const auto chunk = pattern(32_KiB, 16);
  for (int i = 15; i >= 0; --i) {
    ASSERT_TRUE(client.write(1, static_cast<std::uint64_t>(i) * chunk.size(), chunk).is_ok());
  }
  // Read-after-write is served from the cache: nothing has been flushed.
  auto rd = client.read(1, 5 * chunk.size(), chunk.size());
  ASSERT_TRUE(rd.is_ok());
  EXPECT_EQ(rd.value(), chunk);
  EXPECT_TRUE(mem->snapshot("ckpt").empty()) << "read must not force a full drain";

  ASSERT_TRUE(client.fsync(1).is_ok());
  EXPECT_EQ(mem->snapshot("ckpt").size(), 16 * chunk.size());
  const auto s = server.metrics();
  EXPECT_GT(s.counter("bb.writes_in"), 4 * s.counter("bb.backend_writes")) << "coalesce ratio";
  EXPECT_GT(s.counter("bb.flushed_bytes"), 0u);
  EXPECT_GT(s.counter("bb.read_hit_bytes"), 0u) << "hit rate";
  ASSERT_TRUE(client.close(1).is_ok());
  server.stop();
  EXPECT_EQ(server.burst_buffer()->metrics().gauge("bb.cached_bytes"), 0);
}

}  // namespace
}  // namespace iofwd::bb
