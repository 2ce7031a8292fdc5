// Real buffer management layer: the runtime twin of proto::Bml.
//
// Hands out actual power-of-two buffers from a capped pool; acquire blocks
// when the pool is exhausted, like the simulated BML and the paper's
// description (Sec. IV). Blocking is not FIFO-fair: every release wakes all
// waiters and whichever re-checks capacity first wins, so a large request
// can be overtaken by smaller ones that fit. Freed buffers are cached per
// size class (LIFO) and reused, which is the whole point of a buffer
// manager on a memory-constrained ION.
//
// Storage comes from an arena (DESIGN.md §8): leases are carved from
// 2 MiB-aligned anonymous mmap chunks advised MADV_HUGEPAGE, mapped lazily on
// the first acquire that needs one and unmapped when the pool is destroyed.
// A lease larger than a chunk gets a mapping of its own. Carving never
// returns bytes to a chunk; a freed lease only ever goes back to its class's
// free list, so the free lists and capacity accounting are the same as with
// one heap allocation per lease. Under AddressSanitizer, free-listed and
// not-yet-carved arena bytes are poisoned, so a read through a released
// lease is reported.
#pragma once

#include <chrono>
#include <condition_variable>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "core/units.hpp"

namespace iofwd::rt {

class BufferPool;

// RAII buffer lease. Movable; returns the buffer to the pool on destruction.
class Buffer {
 public:
  Buffer() = default;
  Buffer(Buffer&& o) noexcept;
  Buffer& operator=(Buffer&& o) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer();

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::uint64_t size() const { return class_bytes_; }  // pow2 class
  [[nodiscard]] bool valid() const { return pool_ != nullptr; }

  void release();

 private:
  friend class BufferPool;
  Buffer(BufferPool* pool, std::byte* data, std::uint64_t class_bytes)
      : pool_(pool), data_(data), class_bytes_(class_bytes) {}
  BufferPool* pool_ = nullptr;
  std::byte* data_ = nullptr;
  std::uint64_t class_bytes_ = 0;
};

// Size-class policy. The paper's implementation used powers of two and
// planned "to support arbitrary message sizes by using memory allocators
// such as tcmalloc and hoard" (Sec. IV). `quarter` implements the
// tcmalloc-style refinement: classes at 1, 1.25, 1.5 and 1.75 x 2^k, which
// bounds internal fragmentation at 25% instead of 100% and therefore packs
// more staged payloads into the same pool.
enum class SizeClassPolicy { pow2, quarter };

class BufferPool {
 public:
  explicit BufferPool(std::uint64_t total_bytes, std::uint64_t min_class_bytes = 4096,
                      SizeClassPolicy policy = SizeClassPolicy::pow2);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  [[nodiscard]] std::uint64_t size_class(std::uint64_t bytes) const;

  // Blocking acquire; fails only if the request exceeds the whole pool.
  Result<Buffer> acquire(std::uint64_t bytes);
  // Non-blocking; would_block if the pool cannot serve the request now.
  Result<Buffer> try_acquire(std::uint64_t bytes);
  // Bounded wait: blocks up to `timeout`, then fails with timed_out so an
  // exhausted pool becomes a degraded-mode fallback instead of a hang.
  Result<Buffer> acquire_for(std::uint64_t bytes, std::chrono::milliseconds timeout);

  [[nodiscard]] std::uint64_t capacity() const { return total_; }
  [[nodiscard]] SizeClassPolicy policy() const { return policy_; }
  [[nodiscard]] std::uint64_t in_use() const;
  [[nodiscard]] std::uint64_t high_watermark() const;
  [[nodiscard]] std::uint64_t blocked_acquires() const;

 private:
  friend class Buffer;
  // One transparent huge page on x86-64 and the unit of arena growth.
  static constexpr std::uint64_t kChunkBytes = 2ull << 20;

  void give_back(std::byte* data, std::uint64_t class_bytes);
  std::byte* take_storage(std::uint64_t class_bytes);  // mu_ held
  std::byte* carve(std::uint64_t class_bytes);         // mu_ held
  std::byte* map_chunk(std::uint64_t len);             // mu_ held

  std::uint64_t total_;
  std::uint64_t min_class_;
  SizeClassPolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t in_use_ = 0;
  std::uint64_t high_watermark_ = 0;
  std::uint64_t blocked_ = 0;
  // Free-list cache per size class.
  std::map<std::uint64_t, std::vector<std::byte*>> free_;
  // Every arena mapping (base, length), unmapped by the destructor.
  std::vector<std::pair<std::byte*, std::uint64_t>> chunks_;
  // Uncarved tail of the newest chunk.
  std::byte* bump_ = nullptr;
  std::uint64_t bump_left_ = 0;
};

}  // namespace iofwd::rt
