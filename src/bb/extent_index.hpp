// Extent index: the per-descriptor interval map of the burst-buffer cache.
//
// Each extent is one contiguous run of staged bytes backed by a single
// rt::BufferPool lease. The pool hands out size-class buffers whose capacity
// usually exceeds the requested length, so strictly sequential appends fill
// the slack in place; writes that overlap or adjoin existing extents —
// including out-of-order and non-contiguous patterns the sequential
// AggregatingBackend window cannot absorb — are merged into one extent by
// re-leasing a buffer for the union range. Newly written bytes always win
// over previously cached ones.
//
// The index is pure bookkeeping and NOT thread-safe: the burst buffer wraps
// every index operation in its per-descriptor mutex. Buffer acquisition is
// non-blocking (`try_acquire`); a would_block result leaves the index
// untouched so the caller can free space (flush/evict) and retry without
// holding pool capacity hostage.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "rt/bml.hpp"

namespace iofwd::bb {

// One cached run. `buf->size()` is the leased size class (capacity); only
// the first `len` bytes are valid data. The lease is held by shared_ptr so a
// pinned read (BurstBufferBackend::read_pinned, DESIGN.md §15) can keep the
// bytes alive across an asynchronous send after the index dropped or
// replaced the extent; insert() treats a pinned buffer (use_count > 1) as
// immutable and re-leases instead of mutating in place.
struct Extent {
  std::uint64_t start = 0;
  std::uint64_t len = 0;
  std::shared_ptr<rt::Buffer> buf;
  bool dirty = false;

  [[nodiscard]] std::uint64_t end() const { return start + len; }
  [[nodiscard]] std::uint64_t capacity() const { return buf ? buf->size() : 0; }
};

class ExtentIndex {
 public:
  enum class Insert { in_place, fresh, merged };

  // A slice of a read range: `ext` points at the covering extent, or is
  // nullptr for a hole the caller must read through to the inner backend.
  struct Segment {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    const Extent* ext = nullptr;
  };

  // Stage `data` at `offset`. Errors: would_block (pool cannot serve the
  // lease right now; index unchanged) or message_too_large (the merged run
  // would exceed the pool — caller should write through instead).
  Result<Insert> insert(std::uint64_t offset, std::span<const std::byte> data,
                        rt::BufferPool& pool);

  // Decompose [offset, offset+len) into cached segments and holes, in order.
  [[nodiscard]] std::vector<Segment> segments(std::uint64_t offset, std::uint64_t len) const;

  // Flush/evict selection. Pointers stay valid until the next mutation.
  // largest_dirty() skips every extent that overlaps a flush in flight.
  [[nodiscard]] Extent* largest_dirty();
  [[nodiscard]] Extent* largest_clean();
  // The extent starting exactly at `start`, or nullptr.
  [[nodiscard]] Extent* find(std::uint64_t start);

  // A flush in flight writes [start, start+len) to the backend with the
  // descriptor lock released. Until end_flush, no overlapping extent is
  // offered for flushing, so an older copy of a byte can never reach the
  // backend after a newer one.
  void begin_flush(std::uint64_t start, std::uint64_t len);
  void end_flush(std::uint64_t start, std::uint64_t len);
  // True if a dirty extent overlaps or directly adjoins [offset, offset+len).
  [[nodiscard]] bool touches_dirty(std::uint64_t offset, std::uint64_t len);
  // True if a flush in flight overlaps [offset, offset+len).
  [[nodiscard]] bool flush_in_flight(std::uint64_t offset, std::uint64_t len) const;

  void mark_clean(Extent& e);
  // Remove the extent starting at `start` (the lease is released on return).
  void evict(std::uint64_t start);
  // Remove every extent overlapping [offset, offset+len), returning them in
  // offset order (for the write-through path, which flushes dirty ones).
  std::vector<Extent> take_overlapping(std::uint64_t offset, std::uint64_t len);

  void clear();

  [[nodiscard]] std::uint64_t dirty_bytes() const { return dirty_bytes_; }
  [[nodiscard]] std::uint64_t data_bytes() const { return data_bytes_; }
  [[nodiscard]] std::size_t extent_count() const { return extents_.size(); }
  // Highest staged byte + 1 (0 when empty): the cache's view of file size.
  [[nodiscard]] std::uint64_t max_end() const;

 private:
  using Map = std::map<std::uint64_t, Extent>;  // keyed by Extent::start

  // First extent that overlaps or directly adjoins [offset, offset+len).
  [[nodiscard]] Map::iterator first_touching(std::uint64_t offset, std::uint64_t len);
  void account_remove(const Extent& e);

  Map extents_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flushing_;  // [start, end)
  std::uint64_t dirty_bytes_ = 0;
  std::uint64_t data_bytes_ = 0;
};

}  // namespace iofwd::bb
