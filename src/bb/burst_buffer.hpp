// Burst-buffer subsystem: an ION-side write-back staging cache.
//
// Sits between the server's execution models and any IoBackend as a
// decorator (like AggregatingBackend) but absorbs what the sequential
// aggregation window cannot: non-contiguous and out-of-order checkpoint
// bursts. Writes land in per-descriptor extent indexes backed by a capped
// rt::BufferPool; a small background flusher pool — decoupled from the
// request workers — drains dirty extents largest-run-first whenever cached
// bytes cross the high watermark, and stops once below the low watermark.
//
// Semantics (mirroring the server's documented async-staging guarantees):
//   * Read-your-writes is served directly from cached extents; reads never
//     force a flush barrier (holes read through to the inner backend).
//   * A flush error is recorded in an rt::DescriptorDb and surfaces as a
//     deferred error on the next operation on that descriptor — which then
//     does NOT execute — exactly once; the failed extent's lease is released
//     either way, so errors never leak pool capacity.
//   * fsync/close drain only that descriptor; destruction drains everything.
//   * A write that cannot lease cache space stalls (measured) until the
//     flushers or an inline flush of the caller free capacity; writes larger
//     than `write_through_bytes` bypass the cache after invalidating any
//     overlapping extents.
//   * A write the server has already acked (rt::AckedWriteScope) bypasses
//     the cache too when it is large and touches no dirty extent: staging it
//     would buy no latency, only a copy, a journal append and a later
//     write-back (DESIGN.md §9).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bb/extent_index.hpp"
#include "obs/metrics.hpp"
#include "obs/thread_cpu.hpp"
#include "rt/descriptor_db.hpp"
#include "rt/backend.hpp"
#include "rt/bml.hpp"

namespace iofwd::bb {

class ClusterBbBudget;
class Journal;

struct BurstBufferConfig {
  std::uint64_t capacity_bytes = 64ull << 20;  // total staging cache (bb_bytes)
  double high_watermark = 0.75;  // fraction of capacity that wakes the flushers
  double low_watermark = 0.50;   // flushers drain until cached bytes fall below
  int flushers = 2;              // background flusher threads
  // Writes at least this large bypass the cache (0 = capacity / 4).
  std::uint64_t write_through_bytes = 0;
  std::uint64_t min_class_bytes = 4096;
  rt::SizeClassPolicy policy = rt::SizeClassPolicy::pow2;
  // Graceful degradation: a writer stalled on a full cache for longer than
  // this falls back to a synchronous write-through instead of waiting
  // indefinitely (0 = unbounded stall, the pre-resilience behavior).
  std::uint32_t max_stall_ms = 100;
  // Shared metric registry for the "bb.*" namespace (null = the backend owns
  // a private one). IonServer passes its own so the server and its cache
  // share one snapshot. See DESIGN.md §11.
  obs::MetricRegistry* registry = nullptr;
  // Cluster-wide staging budget (bb/bb_budget.hpp, DESIGN.md §14).
  // When set, every cached byte is first reserved against this shared
  // accountant — a denied reservation behaves like a full local cache (stall,
  // then degrade to write-through) — and the global high/low watermarks are
  // ORed into this cache's flusher hysteresis. Must outlive the backend.
  ClusterBbBudget* cluster_budget = nullptr;
  // Crash-consistent staging journal (DESIGN.md §16). Non-empty = every
  // staged extent is appended to a write-ahead log in this directory before
  // the write is acked, and startup replays any surviving log back into the
  // cache. Empty = no journal (the pre-§16 behavior: a crash loses acked
  // unflushed extents).
  std::string journal_dir;
  std::uint64_t journal_segment_bytes = 8ull << 20;
  bool journal_fsync = false;  // fdatasync per append (host-crash durability)
  // Idle flusher tick. Watermark hysteresis alone can strand dirty bytes: a
  // burst crosses the high watermark, the flushers outrun it and drain below
  // low, and the tail of the burst refills to between the watermarks — no
  // crossing, no wake, dirty data parked forever. Every flush_idle_ms an idle
  // flusher re-checks and drains back below the low watermark. Also bounds
  // the journal's live set (DESIGN.md §16). 0 = pure hysteresis (no tick).
  std::uint32_t flush_idle_ms = 100;
};

// A zero-copy read lease (DESIGN.md §15): `bytes` views staged data inside
// the pinned pool lease. The pin keeps the lease alive — and its pool bytes
// accounted — even if the cache evicts or rewrites the extent meanwhile, so
// an asynchronous reply may writev from `bytes` until the pin is dropped.
struct PinnedRead {
  std::shared_ptr<rt::Buffer> lease;
  std::span<const std::byte> bytes;
};

class BurstBufferBackend final : public rt::IoBackend {
 public:
  // An acked write at least this large may bypass the cache (see write()).
  // It is the size where write-behind starts, so every bypassed write also
  // starts its own disk writeback.
  static constexpr std::uint64_t kBypassBytes = rt::FileBackend::kWriteBehindBytes;

  BurstBufferBackend(std::unique_ptr<rt::IoBackend> inner, BurstBufferConfig cfg);
  ~BurstBufferBackend() override;  // drains everything, joins the flushers

  Status open(int fd, const std::string& path) override;
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override;
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override;
  Status fsync(int fd) override;
  Status close(int fd) override;
  Result<std::uint64_t> size(int fd) override;

  // Zero-copy read fast path: when a single cached extent fully covers
  // [offset, offset+len), returns a pin on its lease and the covering byte
  // view — no memcpy. Misses (nullopt) on holes, partial coverage, unknown
  // descriptors, or a pending deferred error (deliberately NOT consumed
  // here: the caller's fallback to read() surfaces and consumes it, keeping
  // the deferred-error contract on one path). Counted as a full cache hit.
  [[nodiscard]] std::optional<PinnedRead> read_pinned(int fd, std::uint64_t offset,
                                                      std::uint64_t len);

  // Flush this descriptor's dirty extents (kept cached as clean). Errors are
  // recorded as deferred, not returned.
  void drain(int fd);
  // Flush every descriptor (shutdown barrier). Idempotent.
  void drain_all();

  // Simulate a process crash (DESIGN.md §16): stop the flushers, drop every
  // staged extent WITHOUT flushing, release the cluster-budget reservation,
  // and freeze the journal files exactly as they are on disk — they become
  // the crash image the next BurstBufferBackend over the same journal_dir
  // recovers from. After this, the destructor skips its drain. Idempotent.
  void crash_discard();
  [[nodiscard]] bool crashed() const { return crashed_.load(); }
  // The write-ahead journal, or null when journaling is off (tests/bench).
  [[nodiscard]] Journal* journal() const { return journal_.get(); }

  [[nodiscard]] const BurstBufferConfig& config() const { return cfg_; }
  [[nodiscard]] rt::IoBackend& inner() { return *inner_; }
  // The registry behind metrics() — owned unless BurstBufferConfig::registry
  // was set.
  [[nodiscard]] obs::MetricRegistry& registry() const { return *reg_; }
  // Mirror instantaneous pool/dirty state into the "bb.*" gauges so a
  // registry snapshot is self-contained (IonServer::metrics() calls this).
  void refresh_gauges() const;
  // refresh_gauges(), then a snapshot of the registry ("bb.*" names in
  // DESIGN.md §11).
  [[nodiscard]] obs::Snapshot metrics() const {
    refresh_gauges();
    return reg_->snapshot();
  }
  // CPU time of the flusher threads (IonServer publishes it as
  // server.cpu_us.flusher).
  [[nodiscard]] std::uint64_t flusher_cpu_us() const { return flusher_cpu_.total_us(); }

 private:
  struct Desc {
    std::mutex mu;
    ExtentIndex index;
    // Signalled when a flush written with mu released ends.
    std::condition_variable flush_done;
    // Barriers (drain, write-through) waiting for those flushes: while
    // non-zero, flushers start no new one here, so a barrier cannot starve.
    int barriers = 0;
  };

  [[nodiscard]] std::shared_ptr<Desc> find_desc(int fd) const;
  // Deferred-error gate: non-ok means the op must bounce without executing.
  Status consume_deferred(int fd);
  // Record a failed write as a deferred error on fd (db_mu_ taken inside).
  void record_deferred(int fd, const Status& st);

  // Journal append wrappers: no-ops when journaling is off or the journal
  // went bad (an append failure degrades durability, never availability —
  // counted in bb.journal.append_errors and journaling stops).
  void journal_append_open(int fd, const std::string& path);
  void journal_append_stage(int fd, std::uint64_t offset, std::span<const std::byte> data);
  void journal_append_retire(int fd, std::uint64_t start, std::uint64_t len);
  void journal_append_close(int fd);
  // Startup replay: rebuild descs_/ExtentIndex from the surviving log, then
  // compact the log down to exactly the recovered state.
  void recover_from_journal();

  // Cluster-budget accounting (no-ops when cfg_.cluster_budget is null).
  // Reserve before insert; release the data_bytes() delta whenever extents
  // leave the index (flush-evict, clean eviction, write-through overlap
  // consolidation, close).
  [[nodiscard]] bool budget_reserve(std::uint64_t n);
  void budget_release(std::uint64_t n);

  // Write [start, start+len) of a flushed extent to the inner backend and
  // complete its deferred-error record (no lock needed).
  Status write_back(int fd, std::uint64_t start, std::span<const std::byte> bytes);
  // After write_back, with d.mu held: mark the extent clean on success or
  // evict it on failure, take it off dirty_total_ and retire it from the
  // journal.
  void settle(int fd, Desc& d, Extent& e, const Status& st);
  // Wait (d.mu held by lk) until no flush of d that overlaps
  // [offset, offset+len) is in flight; by default, until none at all is.
  static void wait_for_flushes(Desc& d, std::unique_lock<std::mutex>& lk,
                               std::uint64_t offset = 0,
                               std::uint64_t len = std::numeric_limits<std::uint64_t>::max());
  // Wait for flushes in flight, then flush every dirty extent with d.mu
  // held throughout (the fsync/close barrier).
  void drain_locked(int fd, Desc& d, std::unique_lock<std::mutex>& lk);
  // One step of capacity reclaim: flush the globally largest dirty run, or
  // evict the largest clean extent when nothing is dirty. False = no work.
  bool flush_one_step();
  void flusher_loop();
  [[nodiscard]] bool over_high() const;
  [[nodiscard]] bool over_low() const;
  // The bypass rule for an acked write (see write()); takes d.mu.
  [[nodiscard]] bool bypasses(Desc& d, std::uint64_t offset, std::uint64_t len) const;

  Result<std::uint64_t> write_through(int fd, const std::shared_ptr<Desc>& d,
                                      std::uint64_t offset, std::span<const std::byte> data);

  std::unique_ptr<rt::IoBackend> inner_;
  BurstBufferConfig cfg_;
  rt::BufferPool pool_;

  mutable std::shared_mutex descs_mu_;  // guards the maps, not the Descs
  std::map<int, std::shared_ptr<Desc>> descs_;
  // fd → path bindings we have opened at the inner backend. open() consults
  // this to recognise a replayed open of the same binding when the inner
  // backend bounces "fd already open" (journal recovery re-opens fds before
  // the client's post-restart open-replay arrives).
  std::map<int, std::string> open_paths_;

  std::mutex db_mu_;
  rt::DescriptorDb db_;

  std::mutex flush_mu_;
  std::condition_variable flush_cv_;  // flushers wait here
  std::condition_variable space_cv_;  // stalled writers wait here
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> dirty_total_{0};
  obs::RoleCpu flusher_cpu_;  // outlives the flushers, which are members of it
  std::vector<std::jthread> flushers_;

  // Registry-backed counters ("bb.*").
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* reg_;  // never null
  obs::Counter& c_writes_in_;
  obs::Counter& c_writes_absorbed_;
  obs::Counter& c_backend_writes_;
  obs::Counter& c_bytes_in_;
  obs::Counter& c_flushed_bytes_;
  obs::Counter& c_write_through_bytes_;
  obs::Counter& c_bypassed_writes_;  // acked writes sent straight to the backend
  obs::Counter& c_read_bytes_;
  obs::Counter& c_read_hit_bytes_;
  obs::Counter& c_evictions_;
  obs::Counter& c_stall_ns_;
  obs::Counter& c_stalls_;
  obs::Counter& c_degraded_writes_;
  obs::Counter& c_deferred_errors_;
  obs::Counter& c_drains_;
  obs::Counter& c_pinned_reads_;
  obs::Counter& c_budget_denied_;  // cluster-budget reservations refused
  // Write-ahead journal accounting (DESIGN.md §16).
  obs::Counter& c_journal_appends_;        // records appended
  obs::Counter& c_journal_append_errors_;  // failed appends (journaling stops)
  obs::Counter& c_journal_recovered_;      // intact records replayed at startup
  obs::Counter& c_journal_discarded_;      // torn/corrupt tail bytes dropped
  // Instantaneous cache state, refreshed by refresh_gauges().
  obs::Gauge& g_cached_bytes_;
  obs::Gauge& g_cached_high_watermark_;
  obs::Gauge& g_dirty_bytes_;
  obs::Gauge& g_journal_live_bytes_;
  obs::Gauge& g_journal_size_bytes_;

  // Pressure-poke subscription on the cluster budget (0 = not subscribed).
  std::uint64_t budget_token_ = 0;

  std::unique_ptr<Journal> journal_;
  std::atomic<bool> journal_dead_{false};  // append failed or crash froze it
  std::atomic<bool> crashed_{false};
  // Bytes this cache currently holds reserved in the cluster budget; lets
  // crash_discard() return the whole reservation without replaying the
  // per-extent accounting (and clamps a racing release to zero, not below).
  std::atomic<std::uint64_t> budget_held_{0};
};

}  // namespace iofwd::bb
