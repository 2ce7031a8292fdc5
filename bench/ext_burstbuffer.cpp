// Extension experiment: burst-buffer staging cache (src/bb/).
//
// An N-to-1 checkpoint: every rank owns a contiguous region of one shared
// file, but chunks arrive round-robin across ranks, so consecutive writes at
// the ION jump between regions. The sequential-only AggregatingBackend
// flushes on nearly every write; the extent-indexed burst buffer coalesces
// each region into one run and drains it on fsync. Compared per backend:
// ingest latency, drain latency, and backend write-op count.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/report.hpp"
#include "bb/burst_buffer.hpp"
#include "bench_common.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "rt/aggregator.hpp"
#include "rt/backend.hpp"

namespace {

using namespace iofwd;

// Counts the operations that reach the terminal backend.
class CountingBackend final : public rt::IoBackend {
 public:
  explicit CountingBackend(std::unique_ptr<rt::IoBackend> inner) : inner_(std::move(inner)) {}

  Status open(int fd, const std::string& path) override { return inner_->open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    ++writes_;
    return inner_->write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return inner_->read(fd, offset, out);
  }
  Status fsync(int fd) override { return inner_->fsync(fd); }
  Status close(int fd) override { return inner_->close(fd); }
  Result<std::uint64_t> size(int fd) override { return inner_->size(fd); }

  [[nodiscard]] std::uint64_t writes() const { return writes_; }

 private:
  std::unique_ptr<rt::IoBackend> inner_;
  std::uint64_t writes_ = 0;
};

struct RunResult {
  double ingest_ms = 0;
  double drain_ms = 0;
  std::uint64_t backend_writes = 0;
};

constexpr int kRanks = 8;
constexpr std::uint64_t kChunk = 64_KiB;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Drive the round-robin checkpoint burst through `backend`; `counter` is the
// terminal CountingBackend underneath it.
RunResult run_burst(rt::IoBackend& backend, const CountingBackend& counter,
                    int chunks_per_rank, const std::vector<std::byte>& chunk) {
  RunResult r;
  (void)backend.open(1, "ckpt");
  const std::uint64_t region = static_cast<std::uint64_t>(chunks_per_rank) * kChunk;
  auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < chunks_per_rank; ++c) {
    for (int rank = 0; rank < kRanks; ++rank) {
      const std::uint64_t off =
          static_cast<std::uint64_t>(rank) * region + static_cast<std::uint64_t>(c) * kChunk;
      (void)backend.write(1, off, chunk);
    }
  }
  r.ingest_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  (void)backend.fsync(1);
  (void)backend.close(1);
  r.drain_ms = ms_since(t0);
  r.backend_writes = counter.writes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iofwd;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const int chunks_per_rank = args.iters(64);  // 64 x 64 KiB x 8 ranks = 32 MiB burst
  const std::uint64_t total = static_cast<std::uint64_t>(chunks_per_rank) * kRanks * kChunk;

  std::vector<std::byte> chunk(kChunk);
  Rng rng(42);
  for (auto& b : chunk) b = static_cast<std::byte>(rng.next());

  analysis::FigureReport rep("ext_burstbuffer",
                             "N-to-1 checkpoint burst (" + bench::mib(total) +
                                 ", round-robin over " + std::to_string(kRanks) + " regions)",
                             "backend", "see series");

  auto record = [&](const std::string& name, const RunResult& r) {
    rep.add(name, "ingest ms", r.ingest_ms);
    rep.add(name, "drain ms", r.drain_ms);
    rep.add(name, "backend writes", static_cast<double>(r.backend_writes));
    rep.add(name, "ingest GiB/s",
            static_cast<double>(total) / (1_GiB * r.ingest_ms / 1e3));
  };

  // Raw: every forwarded write is one backend op.
  RunResult raw;
  {
    auto counting = std::make_unique<CountingBackend>(std::make_unique<rt::MemBackend>());
    auto* counter = counting.get();
    raw = run_burst(*counting, *counter, chunks_per_rank, chunk);
    record("raw", raw);
  }

  // Sequential aggregation: the round-robin arrival order breaks the window
  // on almost every write.
  {
    auto counting = std::make_unique<CountingBackend>(std::make_unique<rt::MemBackend>());
    auto* counter = counting.get();
    rt::AggregatingBackend agg(std::move(counting), 4_MiB);
    record("aggregating 4MiB", run_burst(agg, *counter, chunks_per_rank, chunk));
  }

  // Burst buffer: each rank's region coalesces into one extent regardless of
  // arrival order; the drain issues one large write per region.
  RunResult bbr;
  {
    auto counting = std::make_unique<CountingBackend>(std::make_unique<rt::MemBackend>());
    auto* counter = counting.get();
    bb::BurstBufferConfig bcfg;
    bcfg.capacity_bytes = 2 * total;  // burst fits: pure absorb-then-drain
    bb::BurstBufferBackend bbuf(std::move(counting), bcfg);
    bbr = run_burst(bbuf, *counter, chunks_per_rank, chunk);
    record("burst buffer", bbr);

    const auto s = bbuf.metrics();
    const auto writes_in = static_cast<double>(s.counter("bb.writes_in"));
    const auto backend_writes = static_cast<double>(s.counter("bb.backend_writes"));
    const auto read_bytes = static_cast<double>(s.counter("bb.read_bytes"));
    analysis::BurstBufferDiag d;
    d.hit_rate =
        read_bytes > 0 ? static_cast<double>(s.counter("bb.read_hit_bytes")) / read_bytes : 0.0;
    d.coalesce_ratio = backend_writes > 0 ? writes_in / backend_writes : writes_in;
    d.flushed_bytes = s.counter("bb.flushed_bytes");
    d.cached_high_watermark = static_cast<std::uint64_t>(s.gauge("bb.cached_high_watermark"));
    d.capacity_bytes = bbuf.config().capacity_bytes;
    d.stall_ns = s.counter("bb.stall_ns");
    d.evictions = s.counter("bb.evictions");
    d.deferred_errors = s.counter("bb.deferred_errors");
    std::fputs(analysis::burst_buffer_table(d).render().c_str(), stdout);
  }

  analysis::emit(rep);

  std::printf(
      "the burst buffer turned %llu interleaved writes into %llu backend writes\n"
      "(raw: %llu); ingest is acknowledged from cache and the drain proceeds in\n"
      "region-sized runs, which is what a parallel file system wants to see.\n",
      static_cast<unsigned long long>(static_cast<std::uint64_t>(chunks_per_rank) * kRanks),
      static_cast<unsigned long long>(bbr.backend_writes),
      static_cast<unsigned long long>(raw.backend_writes));
  return bbr.backend_writes < raw.backend_writes ? 0 : 1;
}
