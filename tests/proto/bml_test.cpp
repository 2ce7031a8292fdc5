#include "proto/bml.hpp"

#include <gtest/gtest.h>

#include "core/units.hpp"

namespace iofwd::proto {
namespace {

TEST(Bml, SizeClassIsPowerOfTwo) {
  // "the buffer management allocates buffers that are powers of 2 bytes"
  sim::Engine eng;
  Bml bml(eng, 1_MiB, 4096);
  EXPECT_EQ(bml.size_class(1), 4096u);      // min class
  EXPECT_EQ(bml.size_class(4096), 4096u);
  EXPECT_EQ(bml.size_class(4097), 8192u);
  EXPECT_EQ(bml.size_class(100000), 131072u);
  EXPECT_EQ(bml.size_class(131072), 131072u);
}

TEST(Bml, ZeroCapacityRejected) {
  sim::Engine eng;
  EXPECT_THROW(Bml(eng, 0), std::invalid_argument);
}

sim::Proc<void> acquire_and_hold(Bml& bml, std::uint64_t bytes, std::uint64_t& got,
                                 sim::Engine& eng, sim::SimTime hold) {
  got = co_await bml.acquire(bytes);
  co_await sim::Delay{eng, hold};
  bml.release(got);
}

TEST(Bml, AcquireReleaseAccounting) {
  sim::Engine eng;
  Bml bml(eng, 1_MiB);
  std::uint64_t got = 0;
  eng.spawn(acquire_and_hold(bml, 100000, got, eng, 10));
  eng.run();
  EXPECT_EQ(got, 131072u);
  EXPECT_EQ(bml.in_use(), 0u);
  EXPECT_EQ(bml.high_watermark(), 131072u);
}

TEST(Bml, TryAcquireNonBlocking) {
  sim::Engine eng;
  Bml bml(eng, 16384, 4096);
  EXPECT_EQ(bml.try_acquire(4096), 4096u);
  EXPECT_EQ(bml.try_acquire(8192), 8192u);
  EXPECT_EQ(bml.try_acquire(8192), 0u);  // only 4 KiB left
  EXPECT_EQ(bml.try_acquire(4096), 4096u);
  EXPECT_EQ(bml.in_use(), 16384u);
  bml.release(8192);
  EXPECT_EQ(bml.try_acquire(8192), 8192u);
}

TEST(Bml, OversizeTryAcquireFails) {
  sim::Engine eng;
  Bml bml(eng, 8192, 4096);
  EXPECT_EQ(bml.try_acquire(100000), 0u);
}

sim::Proc<void> blocked_acquirer(Bml& bml, std::uint64_t bytes, sim::SimTime& acquired_at,
                                 sim::Engine& eng) {
  const std::uint64_t cls = co_await bml.acquire(bytes);
  acquired_at = eng.now();
  bml.release(cls);
}

TEST(Bml, ExhaustionBlocksUntilRelease) {
  // "If there is insufficient memory to stage the data, the I/O operation is
  // blocked until a number of queued I/O operations complete" (Sec. IV).
  sim::Engine eng;
  Bml bml(eng, 8192, 4096);
  std::uint64_t first = 0;
  sim::SimTime when = -1;
  eng.spawn(acquire_and_hold(bml, 8192, first, eng, 100));  // holds all until t=100
  eng.spawn(blocked_acquirer(bml, 4096, when, eng));
  eng.run();
  EXPECT_EQ(when, 100);
  EXPECT_GE(bml.blocked_acquires(), 1u);
}

TEST(Bml, FifoUnderContention) {
  sim::Engine eng;
  Bml bml(eng, 4096, 4096);
  std::uint64_t hold = 0;
  sim::SimTime t1 = -1, t2 = -1;
  eng.spawn(acquire_and_hold(bml, 4096, hold, eng, 50));
  eng.spawn(blocked_acquirer(bml, 4096, t1, eng));
  eng.spawn(blocked_acquirer(bml, 4096, t2, eng));
  eng.run();
  EXPECT_EQ(t1, 50);
  EXPECT_GE(t2, t1);
}

class BmlSizeClasses : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BmlSizeClasses, ClassCoversRequestTightly) {
  sim::Engine eng;
  Bml bml(eng, 1ull << 40, 4096);
  const auto req = GetParam();
  const auto cls = bml.size_class(req);
  EXPECT_TRUE(is_pow2(cls));
  EXPECT_GE(cls, req);
  EXPECT_GE(cls, 4096u);
  if (req > 4096) {
    EXPECT_LT(cls / 2, req);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BmlSizeClasses,
                         ::testing::Values(1u, 4095u, 4096u, 4097u, 65536u, 65537u, 1048576u,
                                           1048577u, 4194304u));

}  // namespace
}  // namespace iofwd::proto
