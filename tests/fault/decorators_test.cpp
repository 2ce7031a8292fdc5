// FaultyBackend / FaultyStream decorator behavior: plan-driven errors on
// every op kind, byte-budget connection cuts, latency injection.
#include "fault/decorators.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "rt/transport.hpp"

namespace iofwd::fault {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(FaultyBackend, PassesThroughWhenPlanIsQuiet) {
  auto plan = std::make_shared<FaultPlan>();
  FaultyBackend be(std::make_unique<rt::MemBackend>(), plan);
  ASSERT_TRUE(be.open(1, "f").is_ok());
  ASSERT_TRUE(be.write(1, 0, bytes_of("hello")).is_ok());
  std::vector<std::byte> out(5);
  auto r = be.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 5u);
  EXPECT_EQ(std::memcmp(out.data(), "hello", 5), 0);
  EXPECT_TRUE(be.fsync(1).is_ok());
  EXPECT_EQ(be.size(1).value_or(0), 5u);
  EXPECT_TRUE(be.close(1).is_ok());
}

TEST(FaultyBackend, InjectsOnEveryOpKind) {
  auto plan = std::make_shared<FaultPlan>();
  FaultyBackend be(std::make_unique<rt::MemBackend>(), plan);
  ASSERT_TRUE(be.open(1, "f").is_ok());
  plan->fail_always(OpKind::any, Errc::io_error);
  EXPECT_EQ(be.open(2, "g").code(), Errc::io_error);
  EXPECT_EQ(be.write(1, 0, bytes_of("x")).code(), Errc::io_error);
  std::vector<std::byte> out(1);
  EXPECT_EQ(be.read(1, 0, out).code(), Errc::io_error);
  EXPECT_EQ(be.fsync(1).code(), Errc::io_error);
  EXPECT_EQ(be.size(1).code(), Errc::io_error);
  EXPECT_EQ(be.close(1).code(), Errc::io_error);
  EXPECT_EQ(plan->fired(), 6u);
}

TEST(FaultyBackend, FaultedOpDoesNotReachInner) {
  auto plan = std::make_shared<FaultPlan>();
  FaultyBackend be(std::make_unique<rt::MemBackend>(), plan);
  ASSERT_TRUE(be.open(1, "f").is_ok());
  plan->add({.op = OpKind::write, .nth = 1, .error = Errc::io_error});
  EXPECT_FALSE(be.write(1, 0, bytes_of("poison")).is_ok());
  auto* mem = static_cast<rt::MemBackend*>(&be.inner());
  EXPECT_TRUE(mem->snapshot("f").empty()) << "a faulted write must not execute";
}

TEST(FaultyBackend, InjectedLatencyIsObservable) {
  auto plan = std::make_shared<FaultPlan>();
  FaultyBackend be(std::make_unique<rt::MemBackend>(), plan);
  ASSERT_TRUE(be.open(1, "f").is_ok());
  plan->add({.op = OpKind::write,
             .nth = 1,
             .error = Errc::ok,
             .latency = std::chrono::microseconds(20'000)});
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(be.write(1, 0, bytes_of("slow")).is_ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(15)) << "latency rule was not applied";
}

TEST(FaultyStream, ByteBudgetCutDeliversPrefixThenDropsLine) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  FaultyStream faulty(std::move(a), /*cut_after_write_bytes=*/10);

  // 6 bytes fit the budget and arrive intact.
  ASSERT_TRUE(faulty.write_all("abcdef", 6).is_ok());
  std::byte got[6];
  ASSERT_TRUE(b->read_exact(got, 6).is_ok());

  // The next 8 bytes cross the 10-byte budget: 4 delivered, line cut.
  Status st = faulty.write_all("ghijklmn", 8);
  EXPECT_EQ(st.code(), Errc::shutdown);
  std::byte tail[4];
  ASSERT_TRUE(b->read_exact(tail, 4).is_ok()) << "the in-budget prefix must be delivered";
  EXPECT_EQ(static_cast<char>(tail[0]), 'g');
  EXPECT_EQ(static_cast<char>(tail[3]), 'j');
  // The peer then sees the closed connection.
  std::byte more[1];
  EXPECT_FALSE(b->read_exact(more, 1).is_ok());

  // The cut latches: every later write fails without touching the wire.
  EXPECT_EQ(faulty.write_all("x", 1).code(), Errc::shutdown);
}

TEST(FaultyStream, PlanDrivenReadFaultClosesInner) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  auto plan = std::make_shared<FaultPlan>();
  plan->add({.op = OpKind::stream_read, .nth = 1, .error = Errc::io_error});
  FaultyStream faulty(std::move(a), plan);

  ASSERT_TRUE(b->write_all("zz", 2).is_ok());
  std::byte got[2];
  EXPECT_EQ(faulty.read_exact(got, 2).code(), Errc::io_error);
  // The inner stream was closed, so the peer's next read unblocks with an
  // error instead of hanging.
  std::byte more[1];
  EXPECT_FALSE(b->read_exact(more, 1).is_ok());
}

TEST(FaultyStream, PlanDrivenWriteFaultSkipsTheWire) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  auto plan = std::make_shared<FaultPlan>();
  plan->add({.op = OpKind::stream_write, .nth = 2, .error = Errc::shutdown});
  FaultyStream faulty(std::move(a), plan);

  ASSERT_TRUE(faulty.write_all("ok", 2).is_ok());
  std::byte got[2];
  ASSERT_TRUE(b->read_exact(got, 2).is_ok());
  EXPECT_EQ(faulty.write_all("nope", 4).code(), Errc::shutdown);
}

// ---------------------------------------------------------------------------
// Corruption actions (DESIGN.md §12): the op proceeds, the bytes lie.
// ---------------------------------------------------------------------------

int bit_difference(std::span<const std::byte> a, std::span<const std::byte> b) {
  int bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto x = static_cast<unsigned char>(a[i] ^ b[i]);
    while (x != 0) {
      bits += x & 1;
      x >>= 1;
    }
  }
  return bits;
}

TEST(FaultyStream, BitFlipDamagesExactlyOneBitInFlight) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  auto plan = std::make_shared<FaultPlan>(/*seed=*/7);
  plan->add({.op = OpKind::stream_write, .action = FaultAction::bit_flip, .nth = 2});
  FaultyStream faulty(std::move(a), plan);

  const auto sent = bytes_of("a message that must arrive bit-perfect");
  ASSERT_TRUE(faulty.write_all(sent.data(), sent.size()).is_ok());
  std::vector<std::byte> got(sent.size());
  ASSERT_TRUE(b->read_exact(got.data(), got.size()).is_ok());
  EXPECT_EQ(got, sent) << "rule arms on the 2nd write";

  ASSERT_TRUE(faulty.write_all(sent.data(), sent.size()).is_ok())
      << "bit_flip must not fail the write";
  ASSERT_TRUE(b->read_exact(got.data(), got.size()).is_ok());
  EXPECT_EQ(bit_difference(sent, got), 1);
  EXPECT_EQ(plan->fired(), 1u) << "corruption counts as a fired fault";

  // The caller's buffer is never touched — only the wire copy is damaged.
  EXPECT_EQ(sent, bytes_of("a message that must arrive bit-perfect"));
}

TEST(FaultyStream, BitFlipOnReadDamagesTheReceivedCopy) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  auto plan = std::make_shared<FaultPlan>(/*seed=*/8);
  plan->add({.op = OpKind::stream_read, .action = FaultAction::bit_flip, .nth = 1});
  FaultyStream faulty(std::move(a), plan);

  const auto sent = bytes_of("reply payload");
  ASSERT_TRUE(b->write_all(sent.data(), sent.size()).is_ok());
  std::vector<std::byte> got(sent.size());
  ASSERT_TRUE(faulty.read_exact(got.data(), got.size()).is_ok());
  EXPECT_EQ(bit_difference(sent, got), 1);
}

TEST(FaultyStream, GarbageScribblesABoundedWindow) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  auto plan = std::make_shared<FaultPlan>(/*seed=*/9);
  plan->add({.op = OpKind::stream_write, .action = FaultAction::garbage, .nth = 1});
  FaultyStream faulty(std::move(a), plan);

  const std::vector<std::byte> sent(256, std::byte{0x5a});
  ASSERT_TRUE(faulty.write_all(sent.data(), sent.size()).is_ok());
  std::vector<std::byte> got(sent.size());
  ASSERT_TRUE(b->read_exact(got.data(), got.size()).is_ok());
  std::size_t damaged = 0;
  for (std::size_t i = 0; i < got.size(); ++i) damaged += got[i] != sent[i] ? 1 : 0;
  EXPECT_GT(damaged, 0u);
  EXPECT_LE(damaged, 16u) << "garbage is a bounded window, not the whole frame";
}

TEST(FaultyStream, TruncateDeliversPrefixThenDropsLine) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  auto plan = std::make_shared<FaultPlan>(/*seed=*/10);
  plan->add({.op = OpKind::stream_write, .action = FaultAction::truncate, .nth = 1});
  FaultyStream faulty(std::move(a), plan);

  const std::vector<std::byte> sent(128, std::byte{0x11});
  EXPECT_EQ(faulty.write_all(sent.data(), sent.size()).code(), Errc::shutdown);
  // The peer drains whatever prefix arrived, then hits the closed line.
  std::byte one[1];
  while (b->read_exact(one, 1).is_ok()) {
  }
  SUCCEED();
}

TEST(FaultyStream, CorruptionIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    auto [a, b] = rt::SocketTransport::make_socketpair().value();
    auto plan = std::make_shared<FaultPlan>(seed);
    plan->add({.op = OpKind::stream_write, .action = FaultAction::bit_flip,
               .probability = 1.0});
    FaultyStream faulty(std::move(a), plan);
    const std::vector<std::byte> sent(64, std::byte{0});
    [&] { ASSERT_TRUE(faulty.write_all(sent.data(), sent.size()).is_ok()); }();
    std::vector<std::byte> got(sent.size());
    [&] { ASSERT_TRUE(b->read_exact(got.data(), got.size()).is_ok()); }();
    return got;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43)) << "different seeds flip different bits";
}

}  // namespace
}  // namespace iofwd::fault
