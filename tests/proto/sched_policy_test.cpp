// SimTaskQueue: the simulated work queue over the runtime's schedulers.
// Policy contracts are pinned by tests/rt/sched_model_test.cpp; these cases
// check that the queue hands a task's metadata to the policy and keeps the
// channel's blocking, close and try_pop semantics.
#include "proto/sim_task_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "proto/types.hpp"

namespace iofwd::proto {
namespace {

using rt::SchedPolicy;

struct FakeTask {
  int id = 0;
  std::uint64_t bytes = 0;
  SinkTarget sink;
};

sim::Proc<void> drain_queue(SimTaskQueue<FakeTask>& q, std::vector<int>& order) {
  while (true) {
    auto t = co_await q.pop();
    if (!t) break;
    order.push_back(t->id);
  }
}

// The metadata QueueForwarder derives from a task: bytes and priority class.
void push(SimTaskQueue<FakeTask>& q, const FakeTask& t) {
  rt::SchedMeta m;
  m.bytes = t.bytes;
  m.klass = static_cast<std::uint8_t>(t.sink.priority);
  q.push(m, t);
}

std::vector<int> run_policy(SchedPolicy policy, const std::vector<FakeTask>& tasks) {
  sim::Engine eng;
  SimTaskQueue<FakeTask> q(eng, policy);
  for (const auto& t : tasks) push(q, t);
  std::vector<int> order;
  eng.spawn(drain_queue(q, order));
  q.close();
  eng.run();
  return order;
}

FakeTask task(int id, std::uint64_t bytes, int priority = 0) {
  FakeTask t;
  t.id = id;
  t.bytes = bytes;
  t.sink.priority = priority;
  return t;
}

TEST(SchedPolicy, FifoPreservesArrivalOrder) {
  const auto order = run_policy(SchedPolicy::fifo, {task(1, 100), task(2, 1), task(3, 50)});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedPolicy, SjfPicksSmallestFirst) {
  const auto order = run_policy(SchedPolicy::sjf, {task(1, 100), task(2, 1), task(3, 50)});
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(SchedPolicy, SjfTiesBreakByArrival) {
  const auto order = run_policy(SchedPolicy::sjf, {task(1, 10), task(2, 10), task(3, 10)});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedPolicy, PriorityBeatsArrivalOrder) {
  const auto order = run_policy(
      SchedPolicy::prio,
      {task(1, 10, /*priority=*/0), task(2, 10, 2), task(3, 10, 1), task(4, 10, 2)});
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 1}));  // FIFO within a level
}

TEST(SchedPolicy, PopBlocksUntilPush) {
  sim::Engine eng;
  SimTaskQueue<FakeTask> q(eng, SchedPolicy::fifo);
  std::vector<int> order;
  eng.spawn(drain_queue(q, order));
  eng.run();
  EXPECT_TRUE(order.empty());
  push(q, task(9, 1));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{9}));
  q.close();
  eng.run();
}

TEST(SchedPolicy, TryPopRespectsPolicy) {
  sim::Engine eng;
  SimTaskQueue<FakeTask> q(eng, SchedPolicy::sjf);
  push(q, task(1, 100));
  push(q, task(2, 5));
  auto t = q.try_pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->id, 2);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.try_pop()->id, 1);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(SchedPolicy, CloseDrainsQueuedTasksFirst) {
  sim::Engine eng;
  SimTaskQueue<FakeTask> q(eng, SchedPolicy::fifo);
  push(q, task(1, 1));
  push(q, task(2, 1));
  q.close();
  std::vector<int> order;
  eng.spawn(drain_queue(q, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedPolicy, ToStringNames) {
  sim::Engine eng;
  for (SchedPolicy p : {SchedPolicy::fifo, SchedPolicy::sjf, SchedPolicy::prio}) {
    SimTaskQueue<FakeTask> q(eng, p);
    EXPECT_EQ(q.policy(), p);
    EXPECT_EQ(rt::parse_sched_policy(rt::to_string(p)), p);
  }
  EXPECT_STREQ(rt::to_string(SchedPolicy::sjf), "sjf");
  EXPECT_EQ(rt::parse_sched_policy("priority"), SchedPolicy::prio);
}

}  // namespace
}  // namespace iofwd::proto
