#include "rt/descriptor_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace iofwd::rt {
namespace {

TEST(DescriptorDb, OpenIsIdempotentlyRejected) {
  DescriptorDb db;
  EXPECT_TRUE(db.open_descriptor(3));
  EXPECT_FALSE(db.open_descriptor(3));
  EXPECT_TRUE(db.is_open(3));
  EXPECT_FALSE(db.is_open(4));
  EXPECT_EQ(db.open_count(), 1u);
}

TEST(DescriptorDb, BeginOpUnknownDescriptor) {
  DescriptorDb db;
  EXPECT_EQ(db.begin_op(9), std::nullopt);
}

TEST(DescriptorDb, SequenceNumbersAreDistinctAndMonotone) {
  // "We distinguish the various I/O operations performed on a particular
  // descriptor via a counter" (Sec. IV).
  DescriptorDb db;
  db.open_descriptor(1);
  auto a = db.begin_op(1);
  auto b = db.begin_op(1);
  auto c = db.begin_op(1);
  ASSERT_TRUE(a && b && c);
  EXPECT_LT(*a, *b);
  EXPECT_LT(*b, *c);
  EXPECT_EQ(db.in_flight(1), 3u);
}

TEST(DescriptorDb, CountersIndependentPerDescriptor) {
  DescriptorDb db;
  db.open_descriptor(1);
  db.open_descriptor(2);
  EXPECT_EQ(db.begin_op(1), 0u);
  EXPECT_EQ(db.begin_op(2), 0u);
  EXPECT_EQ(db.begin_op(1), 1u);
}

TEST(DescriptorDb, CompleteTransitionsInFlight) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto seq = db.begin_op(1);
  EXPECT_EQ(db.in_flight(1), 1u);
  EXPECT_TRUE(db.complete_op(1, *seq, Status::ok()));
  EXPECT_EQ(db.in_flight(1), 0u);
  EXPECT_EQ(db.completed_count(1), 1u);
  // Double-complete and unknown seq are rejected.
  EXPECT_FALSE(db.complete_op(1, *seq, Status::ok()));
  EXPECT_FALSE(db.complete_op(1, 999, Status::ok()));
  EXPECT_FALSE(db.complete_op(7, 0, Status::ok()));
}

TEST(DescriptorDb, ErrorsDeferredToNextOperation) {
  // "Errors are passed to the application on subsequent operations on the
  // descriptor" (Sec. IV).
  DescriptorDb db;
  db.open_descriptor(1);
  auto s1 = db.begin_op(1);
  db.complete_op(1, *s1, Status(Errc::io_error, "write failed"));
  // First check surfaces the error once...
  Status e = db.consume_pending_error(1);
  EXPECT_EQ(e.code(), Errc::io_error);
  // ...and consuming it clears it.
  EXPECT_TRUE(db.consume_pending_error(1).is_ok());
}

TEST(DescriptorDb, MultipleErrorsSurfaceInOrder) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto a = db.begin_op(1);
  auto b = db.begin_op(1);
  db.complete_op(1, *a, Status(Errc::io_error, "first"));
  db.complete_op(1, *b, Status(Errc::not_connected, "second"));
  EXPECT_EQ(db.consume_pending_error(1).code(), Errc::io_error);
  EXPECT_EQ(db.consume_pending_error(1).code(), Errc::not_connected);
  EXPECT_TRUE(db.consume_pending_error(1).is_ok());
}

TEST(DescriptorDb, ConsumeOnUnknownDescriptor) {
  DescriptorDb db;
  EXPECT_EQ(db.consume_pending_error(4).code(), Errc::bad_descriptor);
}

TEST(DescriptorDb, CloseReportsPendingError) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto s = db.begin_op(1);
  db.complete_op(1, *s, Status(Errc::io_error, "late failure"));
  EXPECT_EQ(db.close_descriptor(1).code(), Errc::io_error);
  EXPECT_FALSE(db.is_open(1));
  EXPECT_EQ(db.close_descriptor(1).code(), Errc::bad_descriptor);
}

TEST(DescriptorDb, CloseCleanDescriptorIsOk) {
  DescriptorDb db;
  db.open_descriptor(1);
  auto s = db.begin_op(1);
  db.complete_op(1, *s, Status::ok());
  EXPECT_TRUE(db.close_descriptor(1).is_ok());
}

// A long-lived descriptor keeps only its in-flight operations and its
// unreported errors, whatever its history. Completions arrive out of order
// (a window of 8 operations, each completed at a random point), and the
// deferred errors still surface exactly once, oldest first.
TEST(DescriptorDb, LongHistoryKeepsOnlyInFlightOpsAndErrors) {
  constexpr int kOps = 100000;
  constexpr std::size_t kWindow = 8;
  DescriptorDb db;
  db.open_descriptor(1);
  Rng rng(0xdb);
  std::vector<std::uint64_t> open_ops;
  std::vector<std::uint64_t> failed;  // in completion order
  std::size_t max_in_flight = 0;
  auto complete_one = [&] {
    const std::size_t i = rng.below(open_ops.size());
    const std::uint64_t seq = open_ops[i];
    open_ops.erase(open_ops.begin() + static_cast<std::ptrdiff_t>(i));
    Status st = Status::ok();
    if (seq % 9973 == 17) {
      st = Status(Errc::io_error, std::to_string(seq));
      failed.push_back(seq);
    }
    ASSERT_TRUE(db.complete_op(1, seq, st));
    ASSERT_FALSE(db.complete_op(1, seq, Status::ok())) << "completed twice";
  };
  for (int i = 0; i < kOps; ++i) {
    open_ops.push_back(*db.begin_op(1));
    max_in_flight = std::max(max_in_flight, db.in_flight(1));
    if (open_ops.size() == kWindow) complete_one();
  }
  while (!open_ops.empty()) complete_one();
  EXPECT_EQ(max_in_flight, kWindow);
  EXPECT_EQ(db.in_flight(1), 0u);
  EXPECT_EQ(db.completed_count(1), static_cast<std::size_t>(kOps));
  ASSERT_GE(failed.size(), 2u);
  for (const std::uint64_t seq : failed) {
    const Status e = db.consume_pending_error(1);
    EXPECT_EQ(e.code(), Errc::io_error);
    EXPECT_EQ(e.message(), std::to_string(seq));
  }
  EXPECT_TRUE(db.consume_pending_error(1).is_ok());
  EXPECT_TRUE(db.close_descriptor(1).is_ok());
}

class DescriptorDbMany : public ::testing::TestWithParam<int> {};

TEST_P(DescriptorDbMany, ManyOpsRoundTrip) {
  const int n = GetParam();
  DescriptorDb db;
  db.open_descriptor(0);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < n; ++i) seqs.push_back(*db.begin_op(0));
  EXPECT_EQ(db.in_flight(0), static_cast<std::size_t>(n));
  // Complete out of order (reverse).
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    EXPECT_TRUE(db.complete_op(0, *it, Status::ok()));
  }
  EXPECT_EQ(db.in_flight(0), 0u);
  EXPECT_TRUE(db.close_descriptor(0).is_ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DescriptorDbMany, ::testing::Values(1, 2, 16, 256));

}  // namespace
}  // namespace iofwd::rt
