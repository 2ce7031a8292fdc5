#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace iofwd::sim {
namespace {

Proc<void> simple_delay(Engine& eng, SimTime d, std::vector<SimTime>& out) {
  co_await Delay{eng, d};
  out.push_back(eng.now());
}

TEST(Process, DetachedProcessRunsAndRecordsTime) {
  Engine eng;
  std::vector<SimTime> out;
  eng.spawn(simple_delay(eng, 42, out));
  eng.run();
  EXPECT_EQ(out, (std::vector<SimTime>{42}));
}

TEST(Process, ZeroDelayIsReady) {
  Engine eng;
  std::vector<SimTime> out;
  eng.spawn(simple_delay(eng, 0, out));
  eng.run();
  EXPECT_EQ(out, (std::vector<SimTime>{0}));
}

Proc<int> returns_value(Engine& eng) {
  co_await Delay{eng, 5};
  co_return 99;
}

Proc<void> awaits_child(Engine& eng, int& result) {
  result = co_await returns_value(eng);
}

TEST(Process, AwaitedChildReturnsValue) {
  Engine eng;
  int result = 0;
  eng.spawn(awaits_child(eng, result));
  eng.run();
  EXPECT_EQ(result, 99);
  EXPECT_EQ(eng.now(), 5);
}

Proc<int> thrower(Engine& eng) {
  co_await Delay{eng, 1};
  throw std::runtime_error("boom");
}

Proc<void> catches_child(Engine& eng, bool& caught) {
  try {
    (void)co_await thrower(eng);
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()) == "boom";
  }
}

TEST(Process, ChildExceptionPropagatesToParent) {
  Engine eng;
  bool caught = false;
  eng.spawn(catches_child(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

Proc<void> nested_inner(Engine& eng, std::vector<int>& order) {
  order.push_back(1);
  co_await Delay{eng, 10};
  order.push_back(3);
}

Proc<void> nested_outer(Engine& eng, std::vector<int>& order) {
  co_await nested_inner(eng, order);
  order.push_back(4);
}

TEST(Process, NestedCallsRunInline) {
  Engine eng;
  std::vector<int> order;
  eng.spawn(nested_outer(eng, order));
  order.push_back(0);  // spawn is lazy: nothing ran yet
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
}

Proc<std::string> deep3(Engine& eng) {
  co_await Delay{eng, 1};
  co_return "deep";
}
Proc<std::string> deep2(Engine& eng) { co_return co_await deep3(eng) + "-2"; }
Proc<std::string> deep1(Engine& eng) { co_return co_await deep2(eng) + "-1"; }
Proc<void> deep_root(Engine& eng, std::string& out) { out = co_await deep1(eng); }

TEST(Process, DeepNestingPropagatesValues) {
  Engine eng;
  std::string out;
  eng.spawn(deep_root(eng, out));
  eng.run();
  EXPECT_EQ(out, "deep-2-1");
}

Proc<void> concurrent_worker(Engine& eng, SimTime d, int id, std::vector<int>& order) {
  co_await Delay{eng, d};
  order.push_back(id);
}

TEST(Process, ConcurrentProcessesInterleaveByTime) {
  Engine eng;
  std::vector<int> order;
  eng.spawn(concurrent_worker(eng, 30, 3, order));
  eng.spawn(concurrent_worker(eng, 10, 1, order));
  eng.spawn(concurrent_worker(eng, 20, 2, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Process, ManySpawnsAllComplete) {
  Engine eng;
  std::vector<SimTime> out;
  for (int i = 0; i < 1000; ++i) eng.spawn(simple_delay(eng, i, out));
  eng.run();
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

// ---------------------------------------------------------------------------
// Frame recycling (detail::FramePool). The pool is compiled out under
// AddressSanitizer, so these tests have nothing to check there.
// ---------------------------------------------------------------------------

using detail::FramePool;

// A frame that holds N words across its suspension; records where they live.
template <std::size_t N>
Proc<void> frame_of(Engine& eng, std::vector<std::uintptr_t>& where, std::uint64_t& sink) {
  std::array<std::uint64_t, N> words{};
  words[N - 1] = where.size();
  where.push_back(reinterpret_cast<std::uintptr_t>(words.data()));
  co_await Delay{eng, 1};
  sink += words[N - 1];
}

TEST(FramePool, RecyclesFramesOfEachSizeClass) {
  if (!FramePool::kEnabled) GTEST_SKIP() << "frame pool compiled out under AddressSanitizer";
  static_assert(sizeof(std::uint64_t) * 64 < FramePool::kMaxBytes);
  Engine eng;
  std::uint64_t sink = 0;
  std::vector<std::uintptr_t> small, large;
  for (int round = 0; round < 3; ++round) {
    eng.spawn(frame_of<2>(eng, small, sink));
    eng.spawn(frame_of<64>(eng, large, sink));
    eng.run();
  }
  ASSERT_EQ(small.size(), 3u);
  ASSERT_EQ(large.size(), 3u);
  // Each round's frames are the blocks the previous round freed.
  EXPECT_EQ(small[1], small[0]);
  EXPECT_EQ(small[2], small[0]);
  EXPECT_EQ(large[1], large[0]);
  EXPECT_EQ(large[2], large[0]);
  EXPECT_NE(small[0], large[0]);
}

TEST(FramePool, FramesAboveTheLargestClassAreNotCached) {
  if (!FramePool::kEnabled) GTEST_SKIP() << "frame pool compiled out under AddressSanitizer";
  static_assert(sizeof(std::uint64_t) * 512 > FramePool::kMaxBytes);
  Engine eng;
  std::uint64_t sink = 0;
  std::vector<std::uintptr_t> where;
  const std::size_t cached = FramePool::cached();
  eng.spawn(frame_of<512>(eng, where, sink));
  eng.run();
  EXPECT_EQ(FramePool::cached(), cached);
}

TEST(FramePool, ThreadExitFreesItsCachedFrames) {
  if (!FramePool::kEnabled) GTEST_SKIP() << "frame pool compiled out under AddressSanitizer";
  const std::uint64_t reaped = FramePool::reaped();
  std::size_t cached = 0;
  std::thread([&] {
    Engine eng;
    std::uint64_t sink = 0;
    std::vector<std::uintptr_t> where;
    for (int i = 0; i < 4; ++i) {
      eng.spawn(frame_of<2>(eng, where, sink));
      eng.spawn(frame_of<64>(eng, where, sink));
    }
    eng.run();
    cached = FramePool::cached();
  }).join();
  EXPECT_EQ(cached, 8u) << "all eight frames were live at once, so none was reused";
  EXPECT_EQ(FramePool::reaped() - reaped, cached);
}

}  // namespace
}  // namespace iofwd::sim
