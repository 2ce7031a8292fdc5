#include "bb/burst_buffer.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "bb/journal.hpp"
#include "bb/bb_budget.hpp"

namespace iofwd::bb {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

BurstBufferBackend::BurstBufferBackend(std::unique_ptr<rt::IoBackend> inner,
                                       BurstBufferConfig cfg)
    : inner_(std::move(inner)),
      cfg_(cfg),
      pool_(cfg.capacity_bytes, cfg.min_class_bytes, cfg.policy),
      owned_registry_(cfg.registry != nullptr ? nullptr
                                              : std::make_unique<obs::MetricRegistry>()),
      reg_(cfg.registry != nullptr ? cfg.registry : owned_registry_.get()),
      c_writes_in_(reg_->counter("bb.writes_in")),
      c_writes_absorbed_(reg_->counter("bb.writes_absorbed")),
      c_backend_writes_(reg_->counter("bb.backend_writes")),
      c_bytes_in_(reg_->counter("bb.bytes_in")),
      c_flushed_bytes_(reg_->counter("bb.flushed_bytes")),
      c_write_through_bytes_(reg_->counter("bb.write_through_bytes")),
      c_bypassed_writes_(reg_->counter("bb.bypassed_writes")),
      c_read_bytes_(reg_->counter("bb.read_bytes")),
      c_read_hit_bytes_(reg_->counter("bb.read_hit_bytes")),
      c_evictions_(reg_->counter("bb.evictions")),
      c_stall_ns_(reg_->counter("bb.stall_ns")),
      c_stalls_(reg_->counter("bb.stalls")),
      c_degraded_writes_(reg_->counter("bb.degraded_writes")),
      c_deferred_errors_(reg_->counter("bb.deferred_errors")),
      c_drains_(reg_->counter("bb.drains")),
      c_pinned_reads_(reg_->counter("bb.pinned_reads")),
      c_budget_denied_(reg_->counter("bb.budget_denied")),
      c_journal_appends_(reg_->counter("bb.journal.appends")),
      c_journal_append_errors_(reg_->counter("bb.journal.append_errors")),
      c_journal_recovered_(reg_->counter("bb.journal.recovered")),
      c_journal_discarded_(reg_->counter("bb.journal.discarded")),
      g_cached_bytes_(reg_->gauge("bb.cached_bytes")),
      g_cached_high_watermark_(reg_->gauge("bb.cached_high_watermark")),
      g_dirty_bytes_(reg_->gauge("bb.dirty_bytes")),
      g_journal_live_bytes_(reg_->gauge("bb.journal.live_bytes")),
      g_journal_size_bytes_(reg_->gauge("bb.journal.size_bytes")) {
  assert(inner_ && "BurstBufferBackend needs an inner backend");
  if (cfg_.write_through_bytes == 0) {
    cfg_.write_through_bytes = std::max<std::uint64_t>(cfg_.capacity_bytes / 4, 1);
  }
  cfg_.high_watermark = std::clamp(cfg_.high_watermark, 0.0, 1.0);
  cfg_.low_watermark = std::clamp(cfg_.low_watermark, 0.0, cfg_.high_watermark);
  if (cfg_.cluster_budget != nullptr) {
    // A hot sibling shard's pressure wakes this shard's flushers and any
    // stalled writers, so the whole fleet helps drain past the global high
    // watermark even when this cache is locally cold.
    budget_token_ = cfg_.cluster_budget->subscribe([this] {
      std::scoped_lock lk(flush_mu_);
      flush_cv_.notify_all();
      space_cv_.notify_all();
    });
  }
  if (!cfg_.journal_dir.empty()) {
    auto j = Journal::open(JournalConfig{cfg_.journal_dir, cfg_.journal_segment_bytes,
                                         cfg_.journal_fsync});
    if (j.is_ok()) {
      journal_ = std::move(j).value();
      // Replay before the flushers exist: recovery owns the cache exclusively.
      recover_from_journal();
    } else {
      // No journal directory means no durability upgrade, but the cache still
      // serves; the error count is the only trace.
      c_journal_append_errors_.inc();
      journal_dead_.store(true);
    }
  }
  const int n = std::max(1, cfg_.flushers);
  flushers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    flushers_.emplace_back([this] { flusher_loop(); });
  }
  if (dirty_total_.load() != 0) {
    // Recovered extents are dirty: re-enqueue their flushes right away rather
    // than waiting for the next watermark crossing.
    std::scoped_lock lk(flush_mu_);
    flush_cv_.notify_all();
  }
}

BurstBufferBackend::~BurstBufferBackend() {
  if (!crashed_.load()) {
    // Unsubscribe before teardown: no sibling poke may land mid-destruction.
    if (cfg_.cluster_budget != nullptr && budget_token_ != 0) {
      cfg_.cluster_budget->unsubscribe(budget_token_);
    }
    drain_all();
  }
  stop_.store(true);
  {
    std::scoped_lock lk(flush_mu_);
    flush_cv_.notify_all();
    space_cv_.notify_all();
  }
  flushers_.clear();  // jthread joins on destruction
}

void BurstBufferBackend::crash_discard() {
  if (crashed_.exchange(true)) return;
  // Freeze the on-disk log first: whatever is there now IS the crash image.
  journal_dead_.store(true);
  stop_.store(true);
  {
    std::scoped_lock lk(flush_mu_);
    flush_cv_.notify_all();
    space_cv_.notify_all();
  }
  flushers_.clear();
  if (cfg_.cluster_budget != nullptr && budget_token_ != 0) {
    cfg_.cluster_budget->unsubscribe(budget_token_);
    budget_token_ = 0;
  }
  {
    std::unique_lock lk(descs_mu_);
    descs_.clear();  // every staged extent dies with the "process"
  }
  dirty_total_.store(0);
  // Return the whole cluster reservation in one motion; budget_release's
  // clamp keeps any straggling per-extent release from double-counting.
  const std::uint64_t held = budget_held_.exchange(0);
  if (held != 0 && cfg_.cluster_budget != nullptr) cfg_.cluster_budget->unstage(held);
}

bool BurstBufferBackend::over_high() const {
  if (cfg_.cluster_budget != nullptr && cfg_.cluster_budget->over_high()) return true;
  return pool_.in_use() >=
         static_cast<std::uint64_t>(cfg_.high_watermark * static_cast<double>(pool_.capacity()));
}

bool BurstBufferBackend::over_low() const {
  if (cfg_.cluster_budget != nullptr && cfg_.cluster_budget->over_low()) return true;
  return pool_.in_use() >
         static_cast<std::uint64_t>(cfg_.low_watermark * static_cast<double>(pool_.capacity()));
}

bool BurstBufferBackend::budget_reserve(std::uint64_t n) {
  if (cfg_.cluster_budget == nullptr) return true;
  if (crashed_.load(std::memory_order_relaxed)) return false;  // no new reservations
  if (cfg_.cluster_budget->try_stage(n)) {
    budget_held_.fetch_add(n);
    return true;
  }
  c_budget_denied_.inc();
  return false;
}

void BurstBufferBackend::budget_release(std::uint64_t n) {
  if (n == 0 || cfg_.cluster_budget == nullptr) return;
  // Clamp to what this cache actually holds: crash_discard() may have bulk-
  // released the reservation while a straggling caller still unwinds.
  std::uint64_t cur = budget_held_.load();
  std::uint64_t take = 0;
  do {
    take = std::min(n, cur);
  } while (!budget_held_.compare_exchange_weak(cur, cur - take));
  if (take != 0) cfg_.cluster_budget->unstage(take);
}

void BurstBufferBackend::record_deferred(int fd, const Status& st) {
  std::optional<std::uint64_t> seq;
  {
    std::scoped_lock lk(db_mu_);
    seq = db_.begin_op(fd);
    if (seq) (void)db_.complete_op(fd, *seq, st);
  }
  c_deferred_errors_.inc();
}

// ---------------------------------------------------------------------------
// Write-ahead journal (DESIGN.md §16)
// ---------------------------------------------------------------------------

void BurstBufferBackend::journal_append_open(int fd, const std::string& path) {
  if (!journal_ || journal_dead_.load(std::memory_order_relaxed)) return;
  if (Status st = journal_->append_open(fd, path); !st.is_ok()) {
    journal_dead_.store(true);
    c_journal_append_errors_.inc();
  } else {
    c_journal_appends_.inc();
  }
}

void BurstBufferBackend::journal_append_stage(int fd, std::uint64_t offset,
                                              std::span<const std::byte> data) {
  if (!journal_ || journal_dead_.load(std::memory_order_relaxed)) return;
  if (Status st = journal_->append_stage(fd, offset, data); !st.is_ok()) {
    journal_dead_.store(true);
    c_journal_append_errors_.inc();
  } else {
    c_journal_appends_.inc();
  }
}

void BurstBufferBackend::journal_append_retire(int fd, std::uint64_t start, std::uint64_t len) {
  if (!journal_ || journal_dead_.load(std::memory_order_relaxed)) return;
  if (Status st = journal_->append_retire(fd, start, len); !st.is_ok()) {
    journal_dead_.store(true);
    c_journal_append_errors_.inc();
  } else {
    c_journal_appends_.inc();
  }
}

void BurstBufferBackend::journal_append_close(int fd) {
  if (!journal_ || journal_dead_.load(std::memory_order_relaxed)) return;
  if (Status st = journal_->append_close(fd); !st.is_ok()) {
    journal_dead_.store(true);
    c_journal_append_errors_.inc();
  } else {
    c_journal_appends_.inc();
  }
}

void BurstBufferBackend::recover_from_journal() {
  StagedModel model;
  const JournalVisitor visitor = model.visitor();
  auto replayed = journal_->replay(visitor);
  if (!replayed.is_ok()) {
    journal_dead_.store(true);
    c_journal_append_errors_.inc();
    return;
  }
  c_journal_recovered_.add(replayed.value().applied);
  c_journal_discarded_.add(replayed.value().discarded_bytes);
  // Compact: the old segments are garbage once the surviving runs are
  // re-staged (with fresh records) below; anything that cannot be re-staged
  // is written straight through to the inner backend instead, so no path
  // loses bytes silently.
  if (Status st = journal_->reset(); !st.is_ok()) {
    journal_dead_.store(true);
    c_journal_append_errors_.inc();
    return;
  }

  for (auto& [fd, file] : model.files()) {
    if (file.runs.empty() || file.path.empty()) continue;
    // A failed re-open (or one bounced because the shared inner backend still
    // has fd open) surfaces through the write fallback below, as a deferred
    // error — recovery never throws bytes away silently.
    (void)inner_->open(fd, file.path);
    auto d = std::make_shared<Desc>();
    {
      std::unique_lock lk(descs_mu_);
      auto it = descs_.find(fd);
      if (it != descs_.end()) {
        d = it->second;
      } else {
        descs_[fd] = d;
      }
      open_paths_[fd] = file.path;
    }
    {
      std::scoped_lock lk(db_mu_);
      (void)db_.open_descriptor(fd);
    }
    journal_append_open(fd, file.path);
    std::scoped_lock lk(d->mu);
    for (auto& run : file.runs) {
      const std::span<const std::byte> bytes(run.bytes.data(), run.bytes.size());
      bool staged = false;
      if (budget_reserve(bytes.size())) {
        const std::uint64_t d0 = d->index.dirty_bytes();
        const std::uint64_t b0 = d->index.data_bytes();
        auto r = d->index.insert(run.offset, bytes, pool_);
        if (r.is_ok()) {
          const std::uint64_t delta = d->index.data_bytes() - b0;
          if (delta < bytes.size()) budget_release(bytes.size() - delta);
          dirty_total_ += d->index.dirty_bytes() - d0;
          journal_append_stage(fd, run.offset, bytes);
          staged = true;
        } else {
          budget_release(bytes.size());
        }
      }
      if (!staged) {
        // Budget or pool refused the re-stage: durable now beats staged.
        auto r = inner_->write(fd, run.offset, bytes);
        c_backend_writes_.inc();
        if (!r.is_ok()) record_deferred(fd, r.status());
      }
    }
  }
}

std::shared_ptr<BurstBufferBackend::Desc> BurstBufferBackend::find_desc(int fd) const {
  std::shared_lock lk(descs_mu_);
  auto it = descs_.find(fd);
  return it != descs_.end() ? it->second : nullptr;
}

Status BurstBufferBackend::consume_deferred(int fd) {
  std::scoped_lock lk(db_mu_);
  Status st = db_.consume_pending_error(fd);
  if (st.code() == Errc::bad_descriptor) return Status::ok();  // unknown to the db: pass through
  return st;
}

// ---------------------------------------------------------------------------
// IoBackend surface
// ---------------------------------------------------------------------------

Status BurstBufferBackend::open(int fd, const std::string& path) {
  if (Status st = inner_->open(fd, path); !st.is_ok()) {
    // The inner backend can already hold this fd: journal recovery re-opened
    // it before the client's post-restart open-replay arrived. The replay of
    // the same (fd, path) binding must land on the recovered descriptor, not
    // bounce; a different path is still a caller bug.
    std::shared_lock lk(descs_mu_);
    auto it = open_paths_.find(fd);
    if (it == open_paths_.end() || it->second != path) return st;
  }
  {
    std::unique_lock lk(descs_mu_);
    // Reuse an existing Desc: journal recovery may have rebuilt this
    // descriptor's extents before the client's open-replay arrives, and a
    // duplicate open only ever happens as a replay of the same (fd, path)
    // binding — replacing the Desc here would silently drop recovered bytes.
    if (descs_.find(fd) == descs_.end()) descs_[fd] = std::make_shared<Desc>();
    open_paths_[fd] = path;
  }
  {
    std::scoped_lock lk(db_mu_);
    (void)db_.open_descriptor(fd);
  }
  journal_append_open(fd, path);
  return Status::ok();
}

Result<std::uint64_t> BurstBufferBackend::write(int fd, std::uint64_t offset,
                                                std::span<const std::byte> data) {
  auto d = find_desc(fd);
  if (!d) return inner_->write(fd, offset, data);  // not opened through us
  if (Status st = consume_deferred(fd); !st.is_ok()) return st;
  if (data.size() >= cfg_.write_through_bytes) return write_through(fd, d, offset, data);
  if (bypasses(*d, offset, data.size())) {
    // Staging would be a copy and a journal append now and a write-back
    // later; the write-back happens here instead, once.
    c_bypassed_writes_.inc();
    const rt::WriteBehindScope write_behind;
    return write_through(fd, d, offset, data);
  }

  bool stalled = false;
  std::uint64_t stall_start = 0;
  for (;;) {
    bool too_large = false;
    {
      std::scoped_lock lk(d->mu);
      const std::uint64_t d0 = d->index.dirty_bytes();
      const std::uint64_t b0 = d->index.data_bytes();
      // Cluster admission first: a denied global reservation is the same
      // backpressure as a full local cache — fall through to the stall
      // machinery (and eventually the degraded write-through) below.
      if (budget_reserve(data.size())) {
        auto r = d->index.insert(offset, data, pool_);
        if (r.is_ok()) {
          // The insert may have overwritten cached bytes, so the index grew
          // by less than we reserved; return the overshoot.
          const std::uint64_t delta = d->index.data_bytes() - b0;
          if (delta < data.size()) budget_release(data.size() - delta);
          dirty_total_ += d->index.dirty_bytes() - d0;
          c_writes_in_.inc();
          c_bytes_in_.add(data.size());
          if (r.value() != ExtentIndex::Insert::fresh) c_writes_absorbed_.inc();
          // Persist before the ack: once this record is down, a crash cannot
          // lose the write (acked ⇒ journaled). Appended under d->mu so the
          // log's per-descriptor record order matches the index mutation
          // order replay reproduces.
          journal_append_stage(fd, offset, data);
          break;
        }
        budget_release(data.size());  // nothing was cached
        if (r.code() == Errc::message_too_large) {
          too_large = true;
        } else if (r.code() != Errc::would_block) {
          return r.status();
        }
      }
    }
    if (too_large) return write_through(fd, d, offset, data);

    // Cache full: kick the flushers, reclaim one run ourselves if possible,
    // otherwise wait briefly for background progress. All stall time is
    // charged to this writer.
    if (!stalled) {
      stalled = true;
      stall_start = now_ns();
    } else if (cfg_.max_stall_ms > 0 &&
               now_ns() - stall_start > std::uint64_t(cfg_.max_stall_ms) * 1'000'000ull) {
      // Bounded stall: degrade to a synchronous write-through rather than
      // blocking this writer indefinitely on cache space.
      c_stalls_.inc();
      c_degraded_writes_.inc();
      c_stall_ns_.add(now_ns() - stall_start);
      return write_through(fd, d, offset, data);
    }
    {
      std::scoped_lock lk(flush_mu_);
      flush_cv_.notify_all();
    }
    if (cfg_.max_stall_ms > 0) {
      // Bounded mode: an inline flush can block this writer for a whole
      // backend round-trip, blowing the stall budget. Wait for background
      // flusher progress instead; the deadline check above degrades us.
      std::unique_lock lk(flush_mu_);
      space_cv_.wait_for(lk, std::chrono::milliseconds(1));
    } else if (!flush_one_step()) {
      std::unique_lock lk(flush_mu_);
      space_cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
  }
  if (stalled) {
    c_stalls_.inc();
    c_stall_ns_.add(now_ns() - stall_start);
  }
  if (over_high()) {
    std::scoped_lock lk(flush_mu_);
    flush_cv_.notify_all();
  }
  return static_cast<std::uint64_t>(data.size());
}

bool BurstBufferBackend::bypasses(Desc& d, std::uint64_t offset, std::uint64_t len) const {
  // The client has its ack, so the cache can only absorb the write, and a
  // large write touching no dirty extent has nothing to absorb into. A write
  // touching a dirty extent stages, so merges, sequential coalescing and the
  // journal's record order stay as they are; a clean extent under the range
  // is dropped by write_through, as for any bypassing write.
  if (!rt::AckedWriteScope::active() || len < kBypassBytes) return false;
  std::scoped_lock lk(d.mu);
  return !d.index.touches_dirty(offset, len);
}

Result<std::uint64_t> BurstBufferBackend::write_through(int fd, const std::shared_ptr<Desc>& d,
                                                        std::uint64_t offset,
                                                        std::span<const std::byte> data) {
  std::unique_lock lk(d->mu);
  // A flush in flight under the new range holds older bytes of it; it must
  // land before the bypassing write does. Flushes elsewhere in the file do
  // not delay a degraded writer past its stall bound.
  wait_for_flushes(*d, lk, offset, data.size());
  // Any cached extents under the new range are superseded; dirty ones must
  // land first so the bypassing write wins.
  const std::uint64_t d0 = d->index.dirty_bytes();
  const std::uint64_t b0 = d->index.data_bytes();
  auto taken = d->index.take_overlapping(offset, data.size());
  dirty_total_ -= d0 - d->index.dirty_bytes();
  budget_release(b0 - d->index.data_bytes());
  std::uint64_t extra_writes = 0;
  for (auto& e : taken) {
    if (!e.dirty) continue;
    auto r = inner_->write(fd, e.start, std::span<const std::byte>(e.buf->data(), e.len));
    ++extra_writes;
    if (!r.is_ok()) record_deferred(fd, r.status());
    // Off the dirty set either way (flushed, or lost with a deferred error).
    journal_append_retire(fd, e.start, e.len);
  }
  auto r = inner_->write(fd, offset, data);
  c_writes_in_.inc();
  c_bytes_in_.add(data.size());
  c_backend_writes_.add(extra_writes + 1);
  c_write_through_bytes_.add(data.size());
  if (!taken.empty()) c_flushed_bytes_.add(d0 - d->index.dirty_bytes());
  return r;
}

Result<std::uint64_t> BurstBufferBackend::read(int fd, std::uint64_t offset,
                                               std::span<std::byte> out) {
  auto d = find_desc(fd);
  if (!d) return inner_->read(fd, offset, out);
  if (Status st = consume_deferred(fd); !st.is_ok()) return st;

  std::scoped_lock lk(d->mu);
  const auto segs = d->index.segments(offset, out.size());
  std::uint64_t produced = 0;
  std::uint64_t hit = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& seg = segs[i];
    auto slice = out.subspan(static_cast<std::size_t>(seg.offset - offset),
                             static_cast<std::size_t>(seg.len));
    if (seg.ext != nullptr) {
      std::memcpy(slice.data(), seg.ext->buf->data() + (seg.offset - seg.ext->start), seg.len);
      hit += seg.len;
      produced = seg.offset + seg.len - offset;
      continue;
    }
    auto r = inner_->read(fd, seg.offset, slice);
    if (!r.is_ok()) return r.status();
    if (r.value() < seg.len) {
      // Short read inside a hole: past EOF. Interior holes (cached data
      // further right) read as zeros; a trailing hole ends the read.
      std::fill(slice.begin() + static_cast<std::ptrdiff_t>(r.value()), slice.end(),
                std::byte{0});
      if (i + 1 == segs.size()) {
        produced = (seg.offset - offset) + r.value();
        break;
      }
    }
    produced = seg.offset + seg.len - offset;
  }
  c_read_bytes_.add(produced);
  c_read_hit_bytes_.add(hit);
  return produced;
}

std::optional<PinnedRead> BurstBufferBackend::read_pinned(int fd, std::uint64_t offset,
                                                          std::uint64_t len) {
  if (len == 0) return std::nullopt;
  auto d = find_desc(fd);
  if (!d) return std::nullopt;
  {
    // Peek only: a pending deferred error must surface (and be consumed) on
    // the regular read() the caller falls back to, never be skipped here.
    std::scoped_lock lk(db_mu_);
    if (db_.has_pending_error(fd)) return std::nullopt;
  }
  std::scoped_lock lk(d->mu);
  const auto segs = d->index.segments(offset, len);
  if (segs.size() != 1 || segs.front().ext == nullptr || segs.front().len != len) {
    return std::nullopt;  // hole or partial coverage: the copying path handles it
  }
  const Extent& e = *segs.front().ext;
  PinnedRead pin;
  pin.lease = e.buf;  // pinned: insert() now treats this extent as immutable
  pin.bytes = std::span<const std::byte>(e.buf->data() + (offset - e.start),
                                         static_cast<std::size_t>(len));
  c_read_bytes_.add(len);
  c_read_hit_bytes_.add(len);
  c_pinned_reads_.inc();
  return pin;
}

Status BurstBufferBackend::fsync(int fd) {
  auto d = find_desc(fd);
  if (!d) return inner_->fsync(fd);
  // Deferred-error gate first: a pending error bounces the op unexecuted.
  if (Status st = consume_deferred(fd); !st.is_ok()) return st;
  {
    std::unique_lock lk(d->mu);
    drain_locked(fd, *d, lk);
  }
  // Errors produced by this drain surface on the fsync itself (the barrier).
  if (Status st = consume_deferred(fd); !st.is_ok()) return st;
  return inner_->fsync(fd);
}

Status BurstBufferBackend::close(int fd) {
  std::shared_ptr<Desc> d;
  {
    std::unique_lock lk(descs_mu_);
    auto it = descs_.find(fd);
    if (it != descs_.end()) {
      d = it->second;
      descs_.erase(it);  // flushers can no longer pick this descriptor
    }
    open_paths_.erase(fd);
  }
  if (!d) return inner_->close(fd);
  {
    std::unique_lock lk(d->mu);
    drain_locked(fd, *d, lk);
    budget_release(d->index.data_bytes());  // clean extents about to drop
    d->index.clear();  // releases every lease — nothing may leak past close
    journal_append_close(fd);
  }
  Status deferred;
  {
    std::scoped_lock lk(db_mu_);
    deferred = db_.close_descriptor(fd);
  }
  Status be = inner_->close(fd);
  if (!deferred.is_ok() && deferred.code() != Errc::bad_descriptor) return deferred;
  return be;
}

Result<std::uint64_t> BurstBufferBackend::size(int fd) {
  auto d = find_desc(fd);
  if (!d) return inner_->size(fd);
  if (Status st = consume_deferred(fd); !st.is_ok()) return st;
  auto s = inner_->size(fd);
  if (!s.is_ok()) return s;
  std::scoped_lock lk(d->mu);
  return std::max(s.value(), d->index.max_end());
}

// ---------------------------------------------------------------------------
// Flushing
// ---------------------------------------------------------------------------

Status BurstBufferBackend::write_back(int fd, std::uint64_t start,
                                      std::span<const std::byte> bytes) {
  std::optional<std::uint64_t> seq;
  {
    std::scoped_lock lk(db_mu_);
    seq = db_.begin_op(fd);
  }
  // An fsync or close barrier follows every write-back, so start the disk
  // writeback now rather than leave all of it to the barrier.
  const rt::WriteBehindScope write_behind;
  auto r = inner_->write(fd, start, bytes);
  const Status st = r.is_ok() ? Status::ok() : r.status();
  {
    std::scoped_lock lk(db_mu_);
    if (seq) (void)db_.complete_op(fd, *seq, st);
  }
  c_backend_writes_.inc();
  if (st.is_ok()) {
    c_flushed_bytes_.add(bytes.size());
  } else {
    c_deferred_errors_.inc();
  }
  return st;
}

void BurstBufferBackend::settle(int fd, Desc& d, Extent& e, const Status& st) {
  const std::uint64_t start = e.start;
  const std::uint64_t len = e.len;
  dirty_total_ -= len;
  if (st.is_ok()) {
    d.index.mark_clean(e);
  } else {
    // The data is lost either way; dropping the lease keeps the error from
    // also leaking pool capacity. The recorded status surfaces on the next
    // operation on this descriptor.
    d.index.evict(start);
  }
  // Retired from the journal's live set on both paths: flushed bytes are
  // durable below, failed bytes are gone and their loss is already recorded
  // as a deferred error — replaying them would resurrect stale data.
  journal_append_retire(fd, start, len);
}

void BurstBufferBackend::wait_for_flushes(Desc& d, std::unique_lock<std::mutex>& lk,
                                          std::uint64_t offset, std::uint64_t len) {
  ++d.barriers;
  d.flush_done.wait(lk, [&] { return !d.index.flush_in_flight(offset, len); });
  --d.barriers;
}

void BurstBufferBackend::drain_locked(int fd, Desc& d, std::unique_lock<std::mutex>& lk) {
  // The barrier covers flushes a flusher started before it, too.
  wait_for_flushes(d, lk);
  // A successful flush keeps the extent cached (clean) — still staged, still
  // budgeted; only the failure path's evict removes bytes, captured by the
  // data_bytes delta.
  const std::uint64_t b0 = d.index.data_bytes();
  while (Extent* e = d.index.largest_dirty()) {
    const Status st = write_back(fd, e->start, std::span<const std::byte>(e->buf->data(), e->len));
    settle(fd, d, *e, st);
  }
  budget_release(b0 - d.index.data_bytes());
  c_drains_.inc();
}

void BurstBufferBackend::drain(int fd) {
  auto d = find_desc(fd);
  if (!d) return;
  std::unique_lock lk(d->mu);
  drain_locked(fd, *d, lk);
}

void BurstBufferBackend::drain_all() {
  std::vector<std::pair<int, std::shared_ptr<Desc>>> snap;
  {
    std::shared_lock lk(descs_mu_);
    snap.assign(descs_.begin(), descs_.end());
  }
  for (auto& [fd, d] : snap) {
    std::unique_lock lk(d->mu);
    drain_locked(fd, *d, lk);
  }
}

bool BurstBufferBackend::flush_one_step() {
  std::vector<std::pair<int, std::shared_ptr<Desc>>> snap;
  {
    std::shared_lock lk(descs_mu_);
    snap.assign(descs_.begin(), descs_.end());
  }

  // Largest-dirty-run-first across all descriptors, skipping runs already in
  // flight and descriptors a barrier is waiting on.
  int best_fd = -1;
  std::shared_ptr<Desc> best;
  std::uint64_t best_len = 0;
  for (auto& [fd, d] : snap) {
    std::scoped_lock lk(d->mu);
    if (d->barriers != 0) continue;
    if (Extent* e = d->index.largest_dirty(); e != nullptr && e->len > best_len) {
      best_fd = fd;
      best = d;
      best_len = e->len;
    }
  }
  if (best) {
    std::unique_lock lk(best->mu);
    Extent* e = best->barriers == 0 ? best->index.largest_dirty() : nullptr;
    if (e == nullptr) return true;  // taken meanwhile: look again
    // Pin the lease and write it with the lock released: insert() treats a
    // pinned extent as immutable, so a writer that overlaps it meanwhile
    // merges into a new extent rather than changing the bytes in flight.
    const std::shared_ptr<rt::Buffer> lease = e->buf;
    const std::uint64_t start = e->start;
    const std::uint64_t len = e->len;
    best->index.begin_flush(start, len);
    lk.unlock();
    const Status st = write_back(best_fd, start, std::span<const std::byte>(lease->data(), len));
    lk.lock();
    best->index.end_flush(start, len);
    best->flush_done.notify_all();
    if (Extent* now = best->index.find(start); now != nullptr && now->buf == lease) {
      const std::uint64_t b0 = best->index.data_bytes();
      settle(best_fd, *best, *now, st);
      // Under memory pressure a flushed run is also evicted — write-back
      // then reclaim, not just write-back.
      best->index.evict(start);
      budget_release(b0 - best->index.data_bytes());
    }
    // Otherwise a merge superseded the extent: the newer extent is dirty and
    // its stage record keeps the range journaled, so retiring it here would
    // un-journal acked bytes.
    return true;
  }

  // Nothing dirty anywhere: reclaim the largest clean (read-cache) extent.
  best = nullptr;
  best_len = 0;
  for (auto& [fd, d] : snap) {
    std::scoped_lock lk(d->mu);
    if (Extent* e = d->index.largest_clean(); e != nullptr && e->len > best_len) {
      best = d;
      best_len = e->len;
    }
  }
  if (best) {
    std::scoped_lock lk(best->mu);
    if (Extent* e = best->index.largest_clean()) {
      const std::uint64_t len = e->len;
      best->index.evict(e->start);
      budget_release(len);
      c_evictions_.inc();
      return true;
    }
  }
  return false;
}

void BurstBufferBackend::flusher_loop() {
  const obs::RoleCpu::Member cpu(flusher_cpu_);
  for (;;) {
    {
      std::unique_lock lk(flush_mu_);
      const auto woken = [&] { return stop_.load() || over_high(); };
      if (cfg_.flush_idle_ms > 0) {
        // Timed wait: on timeout fall through to the drain loop, which is a
        // no-op unless we are above the low watermark. This is the dirty-age
        // bound — hysteresis handles bursts, the tick handles their tails.
        (void)flush_cv_.wait_for(lk, std::chrono::milliseconds(cfg_.flush_idle_ms), woken);
      } else {
        flush_cv_.wait(lk, woken);
      }
      if (stop_.load()) return;
    }
    bool progressed = false;
    while (!stop_.load() && over_low()) {
      if (!flush_one_step()) break;
      progressed = true;
      std::scoped_lock lk(flush_mu_);
      space_cv_.notify_all();
    }
    {
      std::scoped_lock lk(flush_mu_);
      space_cv_.notify_all();
    }
    if (!progressed) {
      // Over the watermark with nothing flushable is transient (extents
      // mid-mutation); back off instead of spinning on the predicate.
      std::unique_lock lk(flush_mu_);
      flush_cv_.wait_for(lk, std::chrono::milliseconds(1), [&] { return stop_.load(); });
    }
  }
}

void BurstBufferBackend::refresh_gauges() const {
  g_cached_bytes_.set(static_cast<std::int64_t>(pool_.in_use()));
  g_cached_high_watermark_.set(static_cast<std::int64_t>(pool_.high_watermark()));
  g_dirty_bytes_.set(static_cast<std::int64_t>(dirty_total_.load()));
  if (journal_) {
    g_journal_live_bytes_.set(static_cast<std::int64_t>(journal_->live_bytes()));
    g_journal_size_bytes_.set(static_cast<std::int64_t>(journal_->size_bytes()));
  }
}

}  // namespace iofwd::bb
