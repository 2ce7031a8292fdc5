#include "rt/bml.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <new>

#include <sanitizer/asan_interface.h>  // the poisoning macros are no-ops without ASan

namespace iofwd::rt {

namespace {

std::uint64_t round_up(std::uint64_t n, std::uint64_t to) { return (n + to - 1) / to * to; }

}  // namespace

Buffer::Buffer(Buffer&& o) noexcept
    : pool_(o.pool_), data_(o.data_), class_bytes_(o.class_bytes_) {
  o.pool_ = nullptr;
  o.data_ = nullptr;
  o.class_bytes_ = 0;
}

Buffer& Buffer::operator=(Buffer&& o) noexcept {
  if (this != &o) {
    release();
    pool_ = o.pool_;
    data_ = o.data_;
    class_bytes_ = o.class_bytes_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.class_bytes_ = 0;
  }
  return *this;
}

Buffer::~Buffer() { release(); }

void Buffer::release() {
  if (pool_ != nullptr) {
    pool_->give_back(data_, class_bytes_);
    pool_ = nullptr;
    data_ = nullptr;
    class_bytes_ = 0;
  }
}

BufferPool::BufferPool(std::uint64_t total_bytes, std::uint64_t min_class_bytes,
                       SizeClassPolicy policy)
    : total_(total_bytes),
      min_class_(next_pow2(std::max<std::uint64_t>(min_class_bytes, 64))),
      policy_(policy) {
  assert(total_bytes > 0);
}

BufferPool::~BufferPool() {
  std::scoped_lock lock(mu_);
  assert(in_use_ == 0 && "destroying BufferPool with buffers outstanding");
  for (auto [base, len] : chunks_) {
    ASAN_UNPOISON_MEMORY_REGION(base, len);
    ::munmap(base, static_cast<std::size_t>(len));
  }
}

std::uint64_t BufferPool::size_class(std::uint64_t bytes) const {
  const std::uint64_t p2 = std::max(min_class_, next_pow2(bytes));
  if (policy_ == SizeClassPolicy::pow2 || p2 <= min_class_) return p2;
  // quarter policy: candidate classes between p2/2 and p2 in 1/4 steps.
  const std::uint64_t base = p2 / 2;
  const std::uint64_t step = base / 4;
  for (int q = 1; q <= 3; ++q) {
    const std::uint64_t cls = base + static_cast<std::uint64_t>(q) * step;
    if (cls >= bytes) return cls;
  }
  return p2;
}

std::byte* BufferPool::take_storage(std::uint64_t class_bytes) {
  auto& list = free_[class_bytes];
  std::byte* p = nullptr;
  if (!list.empty()) {
    p = list.back();
    list.pop_back();
  } else {
    p = carve(class_bytes);
  }
  ASAN_UNPOISON_MEMORY_REGION(p, class_bytes);
  return p;
}

std::byte* BufferPool::carve(std::uint64_t class_bytes) {
  // 64-byte steps keep every lease cache-line aligned (quarter classes of
  // small pow2 bases are not multiples of 64).
  const std::uint64_t len = round_up(class_bytes, 64);
  if (len > kChunkBytes) return map_chunk(round_up(len, kChunkBytes));
  if (bump_left_ < len) {
    // The old chunk's tail stays poisoned and unused.
    bump_ = map_chunk(kChunkBytes);
    bump_left_ = kChunkBytes;
  }
  std::byte* p = bump_;
  bump_ += len;
  bump_left_ -= len;
  return p;
}

std::byte* BufferPool::map_chunk(std::uint64_t len) {
  // Over-map by one chunk, then trim both ends to a kChunkBytes-aligned
  // window so the kernel can back it with whole huge pages. Nothing is
  // touched here: pages fault in on first use, so a pool costs no setup time.
  const auto want = static_cast<std::size_t>(len);
  const auto span = static_cast<std::size_t>(len + kChunkBytes);
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t base = round_up(start, kChunkBytes);
  if (base > start) ::munmap(raw, base - start);
  if (const std::size_t tail = start + span - (base + want); tail > 0) {
    ::munmap(reinterpret_cast<void*>(base + want), tail);
  }
  auto* p = reinterpret_cast<std::byte*>(base);
  // A hint: ignored where transparent huge pages are off.
  (void)::madvise(p, want, MADV_HUGEPAGE);
  ASAN_POISON_MEMORY_REGION(p, len);
  chunks_.emplace_back(p, len);
  return p;
}

Result<Buffer> BufferPool::acquire(std::uint64_t bytes) {
  const std::uint64_t cls = size_class(bytes);
  if (cls > total_) {
    return Status(Errc::no_memory, "request exceeds BML pool capacity");
  }
  std::unique_lock lock(mu_);
  if (in_use_ + cls > total_) ++blocked_;
  cv_.wait(lock, [&] { return in_use_ + cls <= total_; });
  in_use_ += cls;
  high_watermark_ = std::max(high_watermark_, in_use_);
  std::byte* p = take_storage(cls);
  return Buffer(this, p, cls);
}

Result<Buffer> BufferPool::acquire_for(std::uint64_t bytes, std::chrono::milliseconds timeout) {
  const std::uint64_t cls = size_class(bytes);
  if (cls > total_) return Status(Errc::no_memory, "request exceeds BML pool capacity");
  std::unique_lock lock(mu_);
  if (in_use_ + cls > total_) {
    ++blocked_;
    if (!cv_.wait_for(lock, timeout, [&] { return in_use_ + cls <= total_; })) {
      return Status(Errc::timed_out, "BML pool exhausted past deadline");
    }
  }
  in_use_ += cls;
  high_watermark_ = std::max(high_watermark_, in_use_);
  return Buffer(this, take_storage(cls), cls);
}

Result<Buffer> BufferPool::try_acquire(std::uint64_t bytes) {
  const std::uint64_t cls = size_class(bytes);
  if (cls > total_) return Status(Errc::no_memory, "request exceeds BML pool capacity");
  std::scoped_lock lock(mu_);
  if (in_use_ + cls > total_) return Status(Errc::would_block, "pool exhausted");
  in_use_ += cls;
  high_watermark_ = std::max(high_watermark_, in_use_);
  return Buffer(this, take_storage(cls), cls);
}

void BufferPool::give_back(std::byte* data, std::uint64_t class_bytes) {
  std::scoped_lock lock(mu_);
  assert(in_use_ >= class_bytes);
  in_use_ -= class_bytes;
  ASAN_POISON_MEMORY_REGION(data, class_bytes);
  free_[class_bytes].push_back(data);
  cv_.notify_all();
}

std::uint64_t BufferPool::in_use() const {
  std::scoped_lock lock(mu_);
  return in_use_;
}

std::uint64_t BufferPool::high_watermark() const {
  std::scoped_lock lock(mu_);
  return high_watermark_;
}

std::uint64_t BufferPool::blocked_acquires() const {
  std::scoped_lock lock(mu_);
  return blocked_;
}

}  // namespace iofwd::rt
