// RetryingBackend: the transient/permanent classifier, bounded retry with
// backoff, and giveup accounting.
#include "fault/retry.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "fault/decorators.hpp"

namespace iofwd::fault {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

RetryPolicy fast_policy(int attempts = 4) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.base_backoff = std::chrono::microseconds(10);  // keep tests quick
  p.max_backoff = std::chrono::microseconds(100);
  return p;
}

TEST(RetryClassifier, TransientVsPermanent) {
  EXPECT_TRUE(is_transient(Errc::io_error));
  EXPECT_TRUE(is_transient(Errc::timed_out));
  EXPECT_TRUE(is_transient(Errc::would_block));

  EXPECT_FALSE(is_transient(Errc::ok));
  EXPECT_FALSE(is_transient(Errc::bad_descriptor));
  EXPECT_FALSE(is_transient(Errc::invalid_argument));
  EXPECT_FALSE(is_transient(Errc::no_memory));
  EXPECT_FALSE(is_transient(Errc::protocol_error));
  EXPECT_FALSE(is_transient(Errc::shutdown));
  EXPECT_FALSE(is_transient(Errc::deferred_io_error));
}

TEST(RetryingBackend, TransientFaultIsAbsorbed) {
  auto plan = std::make_shared<FaultPlan>();
  RetryingBackend be(
      std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan), fast_policy());
  ASSERT_TRUE(be.open(1, "f").is_ok());
  // The next two backend writes fail transiently; attempt 3 succeeds.
  plan->add({.op = OpKind::write, .nth = 1, .burst = 2, .error = Errc::io_error});
  auto r = be.write(1, 0, bytes_of("payload"));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto s = be.registry().snapshot();
  EXPECT_EQ(s.counter("retry.retries"), 2u);
  EXPECT_EQ(s.counter("retry.giveups"), 0u);
  EXPECT_EQ(s.counter("retry.attempts"), 4u);  // open + three write attempts
  EXPECT_GT(s.counter("retry.backoff_ns"), 0u);
}

TEST(RetryingBackend, PermanentErrorFailsImmediately) {
  auto plan = std::make_shared<FaultPlan>();
  RetryingBackend be(
      std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan), fast_policy());
  ASSERT_TRUE(be.open(1, "f").is_ok());
  plan->fail_always(OpKind::write, Errc::invalid_argument);
  EXPECT_EQ(be.write(1, 0, bytes_of("x")).code(), Errc::invalid_argument);
  const auto s = be.registry().snapshot();
  EXPECT_EQ(s.counter("retry.retries"), 0u) << "permanent errors must not be retried";
  EXPECT_EQ(s.counter("retry.giveups"), 0u);
}

TEST(RetryingBackend, ExhaustedBudgetIsAGiveup) {
  auto plan = std::make_shared<FaultPlan>();
  RetryingBackend be(
      std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan), fast_policy(3));
  ASSERT_TRUE(be.open(1, "f").is_ok());
  plan->fail_always(OpKind::write, Errc::io_error);
  EXPECT_EQ(be.write(1, 0, bytes_of("x")).code(), Errc::io_error);
  const auto s = be.registry().snapshot();
  EXPECT_EQ(s.counter("retry.retries"), 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(s.counter("retry.giveups"), 1u);
  EXPECT_EQ(plan->calls(OpKind::write), 3u);
}

TEST(RetryingBackend, UnknownFdErrorPassesThroughUnretried) {
  RetryingBackend be(std::make_unique<rt::MemBackend>(), fast_policy());
  EXPECT_EQ(be.write(77, 0, bytes_of("x")).code(), Errc::bad_descriptor);
  EXPECT_EQ(be.registry().snapshot().counter("retry.retries"), 0u);
}

TEST(RetryingBackend, AllOpsGoThroughTheRetryLoop) {
  auto plan = std::make_shared<FaultPlan>();
  RetryingBackend be(
      std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan), fast_policy());
  // One transient fault on each op kind: every public call must recover.
  plan->add({.op = OpKind::open, .nth = 1, .error = Errc::io_error});
  plan->add({.op = OpKind::write, .nth = 1, .error = Errc::io_error});
  plan->add({.op = OpKind::read, .nth = 1, .error = Errc::io_error});
  plan->add({.op = OpKind::fsync, .nth = 1, .error = Errc::io_error});
  plan->add({.op = OpKind::size, .nth = 1, .error = Errc::io_error});
  plan->add({.op = OpKind::close, .nth = 1, .error = Errc::io_error});

  EXPECT_TRUE(be.open(1, "f").is_ok());
  EXPECT_TRUE(be.write(1, 0, bytes_of("data")).is_ok());
  std::vector<std::byte> out(4);
  EXPECT_TRUE(be.read(1, 0, out).is_ok());
  EXPECT_TRUE(be.fsync(1).is_ok());
  EXPECT_TRUE(be.size(1).is_ok());
  EXPECT_TRUE(be.close(1).is_ok());
  EXPECT_EQ(be.registry().snapshot().counter("retry.retries"), 6u);
}

TEST(RetryingBackend, DataLandsCorrectlyAfterRetries) {
  auto plan = std::make_shared<FaultPlan>();
  auto faulty = std::make_unique<FaultyBackend>(std::make_unique<rt::MemBackend>(), plan);
  auto* mem = static_cast<rt::MemBackend*>(&faulty->inner());
  // Deterministic seeds, generous attempt budget: the 30% schedule is
  // reproducible and 8 attempts make a giveup virtually impossible.
  RetryingBackend be(std::move(faulty), fast_policy(8));
  ASSERT_TRUE(be.open(1, "f").is_ok());
  plan->add({.op = OpKind::write, .probability = 0.3, .error = Errc::io_error});
  const auto data = bytes_of("0123456789abcdef");
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(be.write(1, i * data.size(), data).is_ok()) << "write " << i;
  }
  EXPECT_EQ(mem->snapshot("f").size(), 32 * data.size());
  EXPECT_GT(be.registry().snapshot().counter("retry.retries"), 0u)
      << "the 50% fault rate should have caused retries";
}

}  // namespace
}  // namespace iofwd::fault
