#include "rt/bml.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define IOFWD_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IOFWD_TEST_ASAN 1
#endif
#endif
#ifdef IOFWD_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace iofwd::rt {
namespace {

TEST(BufferPool, AcquireGivesPow2Class) {
  BufferPool pool(1 << 20);
  auto b = pool.acquire(100000);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b.value().size(), 131072u);
  EXPECT_NE(b.value().data(), nullptr);
  EXPECT_EQ(pool.in_use(), 131072u);
}

TEST(BufferPool, ReleaseOnDestruction) {
  BufferPool pool(1 << 20);
  {
    auto b = pool.acquire(4096);
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(pool.in_use(), 4096u);
  }
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.high_watermark(), 4096u);
}

TEST(BufferPool, BuffersAreReused) {
  BufferPool pool(1 << 20);
  std::byte* first = nullptr;
  {
    auto b = pool.acquire(8192);
    ASSERT_TRUE(b.is_ok());
    first = b.value().data();
    std::memset(first, 0xab, 8192);
  }
  auto b2 = pool.acquire(8192);
  ASSERT_TRUE(b2.is_ok());
  EXPECT_EQ(b2.value().data(), first) << "same-class buffer should be recycled";
}

TEST(BufferPool, MoveTransfersOwnership) {
  BufferPool pool(1 << 20);
  auto b = pool.acquire(4096);
  ASSERT_TRUE(b.is_ok());
  Buffer moved = std::move(b).value();
  Buffer moved2 = std::move(moved);
  EXPECT_FALSE(moved.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved2.valid());
  moved2.release();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(BufferPool, OversizeRequestFailsFast) {
  BufferPool pool(64 * 1024);
  auto b = pool.acquire(1 << 20);
  EXPECT_FALSE(b.is_ok());
  EXPECT_EQ(b.code(), Errc::no_memory);
}

TEST(BufferPool, TryAcquireWouldBlock) {
  BufferPool pool(8192, 4096);
  auto a = pool.try_acquire(8192);
  ASSERT_TRUE(a.is_ok());
  auto b = pool.try_acquire(4096);
  EXPECT_EQ(b.code(), Errc::would_block);
}

TEST(BufferPool, ExhaustionBlocksUntilRelease) {
  BufferPool pool(8192, 4096);
  auto held = pool.acquire(8192);
  ASSERT_TRUE(held.is_ok());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto b = pool.acquire(4096);
    ASSERT_TRUE(b.is_ok());
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired) << "acquire must block while the pool is full";
  held.value().release();
  waiter.join();
  EXPECT_TRUE(acquired);
  EXPECT_GE(pool.blocked_acquires(), 1u);
}

TEST(BufferPool, ConcurrentChurnKeepsAccounting) {
  BufferPool pool(1 << 20, 4096);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        auto b = pool.acquire(static_cast<std::uint64_t>(4096 << (t % 4)));
        if (!b.is_ok()) {
          ++failures;
          continue;
        }
        // Touch the memory to catch double-handouts under tsan/asan.
        std::memset(b.value().data(), t, 64);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_LE(pool.high_watermark(), pool.capacity());
}

TEST(BufferPoolQuarter, ClassesBoundWasteAtQuarter) {
  BufferPool pool(1_GiB, 4096, SizeClassPolicy::quarter);
  // 1.1 MiB request: pow2 would burn 2 MiB; quarter classes give 1.25 MiB.
  const std::uint64_t req = (11ull << 20) / 10;
  const auto cls = pool.size_class(req);
  EXPECT_GE(cls, req);
  EXPECT_LE(cls, req + req / 4) << "waste must stay within 25%";
}

class QuarterClassProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuarterClassProperty, CoversTightly) {
  BufferPool pool(1_GiB, 4096, SizeClassPolicy::quarter);
  const auto req = GetParam();
  const auto cls = pool.size_class(req);
  EXPECT_GE(cls, req);
  if (req > 4096) {
    EXPECT_LE(static_cast<double>(cls), 1.26 * static_cast<double>(req));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuarterClassProperty,
                         ::testing::Values(1u, 4096u, 4097u, 5000u, 6000u, 7000u, 8192u, 10000u,
                                           100000u, 1000000u, (1u << 20) + 1, 3u << 20));

TEST(BufferPoolQuarter, PacksMoreUnderPressure) {
  // Three 1.1 MiB payloads in a 4 MiB pool: pow2 classes (2 MiB) fit two;
  // quarter classes (1.25 MiB) fit all three.
  const std::uint64_t req = (11ull << 20) / 10;
  BufferPool p2(4_MiB, 4096, SizeClassPolicy::pow2);
  BufferPool pq(4_MiB, 4096, SizeClassPolicy::quarter);
  std::vector<Buffer> held;
  auto a1 = p2.try_acquire(req);
  auto a2 = p2.try_acquire(req);
  auto a3 = p2.try_acquire(req);
  EXPECT_TRUE(a1.is_ok());
  EXPECT_TRUE(a2.is_ok());
  EXPECT_FALSE(a3.is_ok());
  auto b1 = pq.try_acquire(req);
  auto b2 = pq.try_acquire(req);
  auto b3 = pq.try_acquire(req);
  EXPECT_TRUE(b1.is_ok());
  EXPECT_TRUE(b2.is_ok());
  EXPECT_TRUE(b3.is_ok());
}

TEST(BufferPoolQuarter, AcquireReleaseRoundTrip) {
  BufferPool pool(16_MiB, 4096, SizeClassPolicy::quarter);
  {
    auto b = pool.acquire(5000);
    ASSERT_TRUE(b.is_ok());
    EXPECT_GE(b.value().size(), 5000u);
    std::memset(b.value().data(), 0x5a, 5000);
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

// --------------------------------------------------------------------------
// Arena storage: leases carved from 2 MiB mmap chunks.
// --------------------------------------------------------------------------

class ArenaPolicy : public ::testing::TestWithParam<SizeClassPolicy> {};

TEST_P(ArenaPolicy, MixedClassLeasesNeverOverlap) {
  // 4 KiB to 4 MiB, so small leases share chunks and the 3 and 4 MiB ones
  // are bigger than a chunk.
  const std::vector<std::uint64_t> sizes = {4096,    5000,    64 << 10, 100000, 256 << 10,
                                            4096,    1 << 20, 1536 << 10, 3 << 20, 4 << 20,
                                            12 << 10, 2 << 20, 256 << 10, 700 << 10, 4096};
  BufferPool pool(64 << 20, 4096, GetParam());
  std::vector<Buffer> leases;
  for (std::uint64_t n : sizes) {
    auto b = pool.acquire(n);
    ASSERT_TRUE(b.is_ok());
    ASSERT_GE(b.value().size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.value().data()) % 64, 0u);
    leases.push_back(std::move(b).value());
  }
  for (std::size_t i = 0; i < leases.size(); ++i) {
    std::memset(leases[i].data(), static_cast<int>(i + 1), leases[i].size());
  }
  for (std::size_t i = 0; i < leases.size(); ++i) {
    const std::byte want = static_cast<std::byte>(i + 1);
    EXPECT_TRUE(std::all_of(leases[i].data(), leases[i].data() + leases[i].size(),
                            [&](std::byte b) { return b == want; }))
        << "lease " << i << " was overwritten";
  }
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
  for (const Buffer& b : leases) {
    const auto start = reinterpret_cast<std::uintptr_t>(b.data());
    ranges.emplace_back(start, start + b.size());
  }
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i - 1].second, ranges[i].first) << "leases overlap";
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ArenaPolicy,
                         ::testing::Values(SizeClassPolicy::pow2, SizeClassPolicy::quarter),
                         [](const auto& pinfo) {
                           return pinfo.param == SizeClassPolicy::pow2 ? "Pow2" : "Quarter";
                         });

TEST(BufferPool, DestructionUnmapsEveryChunk) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  std::vector<std::uintptr_t> pages;
  pages.reserve(16);
  {
    BufferPool pool(16 << 20);
    for (std::uint64_t n : {std::uint64_t{4096}, std::uint64_t{256} << 10,
                            std::uint64_t{1} << 20, std::uint64_t{4} << 20}) {
      auto b = pool.acquire(n);
      ASSERT_TRUE(b.is_ok());
      std::memset(b.value().data(), 0x5a, b.value().size());  // fault the pages in
      const auto start = reinterpret_cast<std::uintptr_t>(b.value().data());
      pages.push_back(start & ~(page - 1));
      pages.push_back((start + b.value().size() - 1) & ~(page - 1));
    }  // each lease returns to its free list, still mapped
  }
  // mincore(2) fails with ENOMEM on addresses that are no longer mapped.
  unsigned char resident = 0;
  for (std::uintptr_t p : pages) {
    errno = 0;
    EXPECT_EQ(::mincore(reinterpret_cast<void*>(p), page, &resident), -1);
    EXPECT_EQ(errno, ENOMEM) << "page still mapped after the pool died";
  }
}

#ifdef IOFWD_TEST_ASAN
TEST(BufferPool, ReleasedAndUncarvedArenaBytesArePoisoned) {
  BufferPool pool(1 << 20);
  std::byte* p = nullptr;
  {
    auto b = pool.acquire(8192);
    ASSERT_TRUE(b.is_ok());
    p = b.value().data();
    EXPECT_EQ(__asan_region_is_poisoned(p, 8192), nullptr);
    // Bytes past the lease have not been carved yet.
    EXPECT_TRUE(__asan_address_is_poisoned(p + 8192));
  }
  // Free-listed: a read through the released lease would trip ASan.
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 8191));
  auto again = pool.acquire(8192);
  ASSERT_TRUE(again.is_ok());
  ASSERT_EQ(again.value().data(), p);
  EXPECT_EQ(__asan_region_is_poisoned(p, 8192), nullptr);
}
#endif

}  // namespace
}  // namespace iofwd::rt
