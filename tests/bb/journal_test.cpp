// Write-ahead journal semantics (DESIGN.md §16): record framing and replay,
// torn-tail and corrupt-record tolerance, idle truncation, the StagedModel's
// newest-wins byte semantics, and the full crash -> recover cycle through
// BurstBufferBackend ("acked => journaled" made observable).
#include "bb/journal.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>  // mkdtemp

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bb/burst_buffer.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "rt/backend.hpp"

namespace iofwd::bb {
namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

// A fresh journal directory, removed at scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/iofwd-journal-test-XXXXXX";
    char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) path = d;
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

std::unique_ptr<Journal> open_journal(const std::string& dir,
                                      std::uint64_t segment_bytes = 8ull << 20) {
  JournalConfig cfg;
  cfg.dir = dir;
  cfg.segment_bytes = segment_bytes;
  auto r = Journal::open(cfg);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(Journal, RecordsRoundTripThroughReplay) {
  TempDir td;
  const auto data = pattern(4096, 0xa11);
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(7, "f").is_ok());
    ASSERT_TRUE(j->append_stage(7, 100, data).is_ok());
    ASSERT_TRUE(j->append_stage(7, 8192, std::span(data).subspan(0, 512)).is_ok());
    EXPECT_EQ(j->live_bytes(), 4096u + 512u);
  }
  auto j = open_journal(td.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 3u);
  EXPECT_FALSE(counts.value().torn);
  EXPECT_EQ(counts.value().discarded_bytes, 0u);

  auto files = model.files();
  ASSERT_EQ(files.size(), 1u);
  const auto& f = files.at(7);
  EXPECT_EQ(f.path, "f");
  ASSERT_EQ(f.runs.size(), 2u);
  EXPECT_EQ(f.runs[0].offset, 100u);
  EXPECT_EQ(f.runs[0].bytes, data);
  EXPECT_EQ(f.runs[1].offset, 8192u);
  EXPECT_EQ(f.runs[1].bytes.size(), 512u);
}

TEST(Journal, RetireAndCloseShrinkTheLiveModel) {
  TempDir td;
  const auto data = pattern(1024, 0xbee);
  auto j = open_journal(td.path);
  ASSERT_TRUE(j->append_open(1, "a").is_ok());
  ASSERT_TRUE(j->append_stage(1, 0, data).is_ok());
  ASSERT_TRUE(j->append_retire(1, 0, 256).is_ok());
  EXPECT_EQ(j->live_bytes(), 768u);

  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  auto files = model.files();
  ASSERT_EQ(files.at(1).runs.size(), 1u);
  EXPECT_EQ(files.at(1).runs[0].offset, 256u);
  EXPECT_EQ(files.at(1).runs[0].bytes.size(), 768u);
  EXPECT_EQ(model.live_bytes(), 768u);
}

TEST(Journal, TornTailStopsReplayAtTheLastIntactRecord) {
  TempDir td;
  const auto data = pattern(2048, 0xc0de);
  std::string seg;
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(3, "torn").is_ok());
    ASSERT_TRUE(j->append_stage(3, 0, data).is_ok());
    ASSERT_TRUE(j->append_stage(3, 4096, data).is_ok());
  }
  // Tear the tail: chop the last record mid-body, as a crash mid-append
  // would.
  for (const auto& e : std::filesystem::directory_iterator(td.path)) seg = e.path().string();
  ASSERT_FALSE(seg.empty());
  const auto full = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, full - 100);

  auto j = open_journal(td.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 2u);  // open + first stage survive
  EXPECT_TRUE(counts.value().torn);
  EXPECT_GT(counts.value().discarded_bytes, 0u);
  ASSERT_EQ(model.files().at(3).runs.size(), 1u);
  EXPECT_EQ(model.files().at(3).runs[0].bytes, data);
}

TEST(Journal, CorruptRecordDiscardsItAndEverythingAfter) {
  TempDir td;
  const auto data = pattern(512, 0xdead);
  std::string seg;
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(5, "x").is_ok());
    ASSERT_TRUE(j->append_stage(5, 0, data).is_ok());
    ASSERT_TRUE(j->append_stage(5, 1024, data).is_ok());
  }
  for (const auto& e : std::filesystem::directory_iterator(td.path)) seg = e.path().string();
  // Flip a byte inside the second stage record's payload (well past the
  // open + first stage records near the head).
  {
    std::FILE* f = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long pos = static_cast<long>(std::filesystem::file_size(seg)) - 64;
    std::fseek(f, pos, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, pos, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }

  auto j = open_journal(td.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 2u);
  EXPECT_TRUE(counts.value().torn);
  EXPECT_GT(counts.value().discarded_bytes, 0u);
  ASSERT_EQ(model.files().at(5).runs.size(), 1u);
  EXPECT_EQ(model.files().at(5).runs[0].offset, 0u);
}

TEST(Journal, IdleTruncationCompactsTheLogAndKeepsOpens) {
  TempDir td;
  const auto data = pattern(4096, 0xf00);
  auto j = open_journal(td.path);
  ASSERT_TRUE(j->append_open(9, "keep").is_ok());
  ASSERT_TRUE(j->append_stage(9, 0, data).is_ok());
  const auto busy = j->size_bytes();
  // Retiring the only staged extent drops live bytes to zero: the log is
  // truncated and reseeded with the OPEN record.
  ASSERT_TRUE(j->append_retire(9, 0, 4096).is_ok());
  EXPECT_EQ(j->live_bytes(), 0u);
  EXPECT_GE(j->truncations(), 1u);
  EXPECT_LT(j->size_bytes(), busy);

  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  auto files = model.files();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.at(9).path, "keep");
  EXPECT_TRUE(files.at(9).runs.empty());
}

TEST(Journal, RotatesSegmentsPastTheConfiguredSize) {
  TempDir td;
  const auto data = pattern(1024, 0xabc);
  auto j = open_journal(td.path, /*segment_bytes=*/4096);
  ASSERT_TRUE(j->append_open(2, "rot").is_ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(j->append_stage(2, static_cast<std::uint64_t>(i) * 1024, data).is_ok());
  }
  std::size_t segments = 0;
  for (const auto& e : std::filesystem::directory_iterator(td.path)) {
    (void)e;
    ++segments;
  }
  EXPECT_GT(segments, 1u);

  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 17u);
  EXPECT_EQ(model.live_bytes(), 16u * 1024u);
}

// The on-disk format, pinned byte for byte: segment magic, then per record
// u32 body_len | u32 crc32c(body) | body, little-endian, with
// body = u8 type | i32 fd | u64 offset | u64 len | payload. The CRCs are
// literals computed independently of this code base.
TEST(Journal, SegmentBytesMatchTheHandEncodedFormat) {
  std::vector<std::byte> expect;
  auto put = [&](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) expect.push_back(static_cast<std::byte>(v >> (8 * i)));
  };
  auto record = [&](std::uint8_t type, std::uint64_t offset, std::uint64_t len,
                    std::uint32_t crc, std::span<const std::byte> payload) {
    put(21 + payload.size(), 4);  // body_len
    put(crc, 4);
    put(type, 1);
    put(7, 4);  // fd
    put(offset, 8);
    put(len, 8);
    expect.insert(expect.end(), payload.begin(), payload.end());
  };
  std::vector<std::byte> staged(16);
  for (std::size_t i = 0; i < staged.size(); ++i) staged[i] = static_cast<std::byte>(i);
  for (char c : std::string("IOFWDWAL")) expect.push_back(static_cast<std::byte>(c));
  record(1, 0, 4, 0x3c3da2df, std::as_bytes(std::span("ckpt", 4)));  // open
  record(2, 4096, 16, 0x8dcf8dd7, staged);                           // stage
  record(3, 4096, 8, 0x7b32c279, {});                                // retire (half)

  TempDir td;
  {
    auto j = open_journal(td.path);
    ASSERT_TRUE(j->append_open(7, "ckpt").is_ok());
    ASSERT_TRUE(j->append_stage(7, 4096, staged).is_ok());
    ASSERT_TRUE(j->append_retire(7, 4096, 8).is_ok());  // 8 bytes stay live: no truncation
    EXPECT_EQ(j->size_bytes(), expect.size());
  }
  const std::string seg = td.path + "/wal-000001.seg";
  std::vector<std::byte> got(std::filesystem::file_size(seg));
  {
    std::FILE* f = std::fopen(seg.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(std::fread(got.data(), 1, got.size(), f), got.size());
    std::fclose(f);
  }
  EXPECT_EQ(got, expect);

  // The hand-encoded image replays on its own.
  TempDir image;
  {
    std::FILE* f = std::fopen((image.path + "/wal-000001.seg").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(expect.data(), 1, expect.size(), f), expect.size());
    std::fclose(f);
  }
  auto j = open_journal(image.path);
  StagedModel model;
  auto counts = j->replay(model.visitor());
  ASSERT_TRUE(counts.is_ok());
  EXPECT_EQ(counts.value().applied, 3u);
  EXPECT_FALSE(counts.value().torn);
  const auto files = model.files();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.at(7).path, "ckpt");
  ASSERT_EQ(files.at(7).runs.size(), 1u);
  EXPECT_EQ(files.at(7).runs[0].offset, 4104u);
  EXPECT_EQ(files.at(7).runs[0].bytes,
            std::vector<std::byte>(staged.begin() + 8, staged.end()));
}

TEST(StagedModel, NewestWriteWinsOnOverlap) {
  StagedModel m;
  m.open(1, "w");
  const auto a = pattern(1000, 1);
  const auto b = pattern(400, 2);
  m.stage(1, 0, a);
  m.stage(1, 300, b);  // overwrite the middle
  auto files = m.files();
  const auto& runs = files.at(1).runs;
  // One contiguous byte image [0, 1000): a's head, b, a's tail.
  std::vector<std::byte> flat(1000);
  for (const auto& r : runs) {
    ASSERT_LE(r.offset + r.bytes.size(), flat.size());
    std::copy(r.bytes.begin(), r.bytes.end(),
              flat.begin() + static_cast<std::ptrdiff_t>(r.offset));
  }
  for (std::size_t i = 0; i < 300; ++i) EXPECT_EQ(flat[i], a[i]) << i;
  for (std::size_t i = 0; i < 400; ++i) EXPECT_EQ(flat[300 + i], b[i]) << i;
  for (std::size_t i = 700; i < 1000; ++i) EXPECT_EQ(flat[i], a[i]) << i;
  EXPECT_EQ(m.live_bytes(), 1000u);
}

// ---------------------------------------------------------------------------
// Crash -> recover through the burst buffer
// ---------------------------------------------------------------------------

BurstBufferConfig journaled_config(const std::string& dir, obs::MetricRegistry* reg) {
  BurstBufferConfig cfg;
  cfg.capacity_bytes = 16ull << 20;
  cfg.high_watermark = 1.0;  // quiet: no background flushing
  cfg.low_watermark = 1.0;
  cfg.write_through_bytes = cfg.capacity_bytes;
  cfg.journal_dir = dir;
  cfg.registry = reg;
  return cfg;
}

TEST(JournalRecovery, CrashLosesNothingThatWasAcked) {
  TempDir td;
  auto mem = std::make_shared<rt::MemBackend>();
  // Non-owning view so the same MemBackend survives the "crash".
  struct View final : rt::IoBackend {
    std::shared_ptr<rt::MemBackend> m;
    explicit View(std::shared_ptr<rt::MemBackend> mm) : m(std::move(mm)) {}
    Status open(int fd, const std::string& p) override { return m->open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      return m->write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return m->read(fd, off, o);
    }
    Status fsync(int fd) override { return m->fsync(fd); }
    Status close(int fd) override { return m->close(fd); }
    Result<std::uint64_t> size(int fd) override { return m->size(fd); }
  };

  const auto d1 = pattern(8192, 0x111);
  const auto d2 = pattern(4096, 0x222);
  {
    obs::MetricRegistry reg;
    BurstBufferBackend bbuf(std::make_unique<View>(mem), journaled_config(td.path, &reg));
    ASSERT_TRUE(bbuf.open(1, "crashfile").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, d1).is_ok());
    ASSERT_TRUE(bbuf.write(1, 65536, d2).is_ok());
    // Both writes were acked into the cache; nothing has been flushed.
    EXPECT_TRUE(mem->snapshot("crashfile").empty());
    bbuf.crash_discard();
    EXPECT_TRUE(bbuf.crashed());
    // The crash destroyed the in-memory staging; the backend still has
    // nothing. Only the journal knows the bytes.
    EXPECT_TRUE(mem->snapshot("crashfile").empty());
  }

  obs::MetricRegistry reg;
  BurstBufferBackend bbuf(std::make_unique<View>(mem), journaled_config(td.path, &reg));
  // Recovery rebuilt the cache: read-your-writes works before any flush.
  std::vector<std::byte> out(d1.size());
  auto r = bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), d1.size());
  EXPECT_EQ(out, d1);

  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.count("bb.journal.recovered"));
  EXPECT_GE(snap.counters.at("bb.journal.recovered"), 3u);  // open + 2 stages
  EXPECT_EQ(snap.counters.at("bb.journal.discarded"), 0u);

  // Draining pushes the recovered extents to the real backend.
  bbuf.drain_all();
  auto bytes = mem->snapshot("crashfile");
  ASSERT_EQ(bytes.size(), 65536u + d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_EQ(bytes[i], d1[i]) << i;
  for (std::size_t i = 0; i < d2.size(); ++i) EXPECT_EQ(bytes[65536 + i], d2[i]) << i;
}

TEST(JournalRecovery, FlushedExtentsAreNotResurrected) {
  TempDir td;
  auto mem = std::make_shared<rt::MemBackend>();
  struct View final : rt::IoBackend {
    rt::MemBackend* m;
    explicit View(rt::MemBackend* mm) : m(mm) {}
    Status open(int fd, const std::string& p) override { return m->open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      return m->write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return m->read(fd, off, o);
    }
    Status fsync(int fd) override { return m->fsync(fd); }
    Status close(int fd) override { return m->close(fd); }
    Result<std::uint64_t> size(int fd) override { return m->size(fd); }
  };

  const auto d1 = pattern(4096, 0x333);
  {
    obs::MetricRegistry reg;
    BurstBufferBackend bbuf(std::make_unique<View>(mem.get()),
                            journaled_config(td.path, &reg));
    ASSERT_TRUE(bbuf.open(1, "flushed").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, d1).is_ok());
    // fsync flushes the staged extent (and journals its RETIRE).
    ASSERT_TRUE(bbuf.fsync(1).is_ok());
    EXPECT_EQ(mem->snapshot("flushed").size(), d1.size());
    bbuf.crash_discard();
  }

  // Overwrite the flushed bytes directly in the "PFS": if recovery wrongly
  // resurrected the retired extent, a later drain would clobber this.
  const auto newer = pattern(4096, 0x444);
  ASSERT_TRUE(mem->open(99, "flushed").is_ok());
  ASSERT_TRUE(mem->write(99, 0, newer).is_ok());

  obs::MetricRegistry reg;
  BurstBufferBackend bbuf(std::make_unique<View>(mem.get()),
                          journaled_config(td.path, &reg));
  bbuf.drain_all();
  auto bytes = mem->snapshot("flushed");
  ASSERT_EQ(bytes.size(), newer.size());
  EXPECT_EQ(bytes, newer);
}

TEST(JournalRecovery, OverwriteDuringAFlushRecoversTheNewerBytes) {
  // A flusher writes extent E with the descriptor lock released. A write
  // overlapping E lands meanwhile and merges into a newer extent M. When E's
  // write returns, the flusher must leave the range journaled for M: a
  // retire of E would un-journal M's acked bytes, and a crash before M is
  // flushed would then recover E's stale bytes from the backend.
  TempDir td;
  auto mem = std::make_shared<rt::MemBackend>();
  // Each backend write waits for a permit; `fail` releases the rest with an
  // error instead (the crash below must not flush M).
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    int arrivals = 0;
    int permits = 0;
    bool fail = false;
  };
  auto gate = std::make_shared<Gate>();
  struct GatedView final : rt::IoBackend {
    std::shared_ptr<rt::MemBackend> m;
    std::shared_ptr<Gate> g;
    GatedView(std::shared_ptr<rt::MemBackend> mm, std::shared_ptr<Gate> gg)
        : m(std::move(mm)), g(std::move(gg)) {}
    Status open(int fd, const std::string& p) override { return m->open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      std::unique_lock lk(g->mu);
      ++g->arrivals;
      g->cv.notify_all();
      g->cv.wait(lk, [&] { return g->permits > 0 || g->fail; });
      if (g->permits == 0) return Status(Errc::io_error, "gate failed the write");
      --g->permits;
      lk.unlock();
      return m->write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return m->read(fd, off, o);
    }
    Status fsync(int fd) override { return m->fsync(fd); }
    Status close(int fd) override { return m->close(fd); }
    Result<std::uint64_t> size(int fd) override { return m->size(fd); }
  };
  const auto wait_arrivals = [&](int n) {
    std::unique_lock lk(gate->mu);
    return gate->cv.wait_for(lk, std::chrono::seconds(10), [&] { return gate->arrivals >= n; });
  };
  const auto open_gate = [&](int permits, bool fail) {
    std::scoped_lock lk(gate->mu);
    gate->permits += permits;
    gate->fail = fail;
    gate->cv.notify_all();
  };

  const auto e_bytes = pattern(256 << 10, 0x555);
  const auto m_bytes = pattern(64 << 10, 0x666);
  std::vector<std::byte> want = e_bytes;
  std::copy(m_bytes.begin(), m_bytes.end(), want.begin() + (128 << 10));
  {
    obs::MetricRegistry reg;
    BurstBufferConfig cfg = journaled_config(td.path, &reg);
    cfg.capacity_bytes = 1ull << 20;
    cfg.high_watermark = 0.25;  // E alone wakes the flushers...
    cfg.low_watermark = 0.20;   // ...and they flush until under 204 KiB
    BurstBufferBackend bbuf(std::make_unique<GatedView>(mem, gate), cfg);
    ASSERT_TRUE(bbuf.open(1, "f").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, e_bytes).is_ok());
    ASSERT_TRUE(wait_arrivals(1)) << "no flusher picked E";

    // The overlapping write must not wait for E's backend write.
    auto overwrite = std::async(std::launch::async, [&] {
      return bbuf.write(1, 128 << 10, m_bytes).is_ok();
    });
    const bool prompt =
        overwrite.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    if (!prompt) open_gate(1, false);  // unblock a flusher holding the lock
    EXPECT_TRUE(prompt) << "a writer waited for a background flush of its descriptor";
    ASSERT_TRUE(overwrite.get());

    if (prompt) {
      // E's write completes; the flusher then starts on M and parks there.
      open_gate(1, false);
      ASSERT_TRUE(wait_arrivals(2)) << "M was not flushed after E";
    }
    // Crash with M unflushed: freeze the journal first, then fail M's write.
    auto crash = std::async(std::launch::async, [&] { bbuf.crash_discard(); });
    while (!bbuf.crashed()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    open_gate(0, true);
    crash.get();
  }

  obs::MetricRegistry reg;
  BurstBufferBackend bbuf(std::make_unique<GatedView>(mem, gate), journaled_config(td.path, &reg));
  std::vector<std::byte> out(want.size());
  auto r = bbuf.read(1, 0, out);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r.value(), want.size());
  EXPECT_TRUE(out == want) << "recovery lost the bytes written during the flush";
  open_gate(1 << 20, false);
}

TEST(JournalRecovery, BypassedWriteOverAFlushedExtentSurvivesACrash) {
  // S is staged and fsynced (flushed, retired, still cached clean). An acked
  // write W over the same range then goes straight to the backend with no
  // journal record. Recovery must not resurrect S over W.
  TempDir td;
  auto mem = std::make_shared<rt::MemBackend>();
  struct View final : rt::IoBackend {
    rt::MemBackend* m;
    explicit View(rt::MemBackend* mm) : m(mm) {}
    Status open(int fd, const std::string& p) override { return m->open(fd, p); }
    Result<std::uint64_t> write(int fd, std::uint64_t off,
                                std::span<const std::byte> d) override {
      return m->write(fd, off, d);
    }
    Result<std::uint64_t> read(int fd, std::uint64_t off, std::span<std::byte> o) override {
      return m->read(fd, off, o);
    }
    Status fsync(int fd) override { return m->fsync(fd); }
    Status close(int fd) override { return m->close(fd); }
    Result<std::uint64_t> size(int fd) override { return m->size(fd); }
  };
  const auto s_bytes = pattern(256 << 10, 0x777);
  const auto w_bytes = pattern(256 << 10, 0x888);
  {
    obs::MetricRegistry reg;
    BurstBufferConfig cfg = journaled_config(td.path, &reg);
    cfg.flush_idle_ms = 0;
    BurstBufferBackend bbuf(std::make_unique<View>(mem.get()), cfg);
    ASSERT_TRUE(bbuf.open(1, "f").is_ok());
    ASSERT_TRUE(bbuf.write(1, 0, s_bytes).is_ok());
    ASSERT_TRUE(bbuf.fsync(1).is_ok());
    const std::uint64_t appends = reg.snapshot().counters.at("bb.journal.appends");
    {
      const rt::AckedWriteScope acked;
      ASSERT_TRUE(bbuf.write(1, 0, w_bytes).is_ok());
    }
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("bb.bypassed_writes"), 1u);
    EXPECT_EQ(snap.counters.at("bb.journal.appends"), appends);
    bbuf.crash_discard();
  }
  obs::MetricRegistry reg;
  BurstBufferBackend bbuf(std::make_unique<View>(mem.get()), journaled_config(td.path, &reg));
  bbuf.drain_all();
  EXPECT_EQ(mem->snapshot("f"), w_bytes) << "recovery resurrected the flushed extent";
}

}  // namespace
}  // namespace iofwd::bb
