// The simulated forwarder's work queue.
//
// The paper uses a plain shared FIFO and notes: "One could easily augment
// this to take the data sizes into account as well as maintain separate
// queues based on the priority of data" (Sec. IV). Those extensions are the
// runtime's dispatch policies (rt/scheduler.hpp, DESIGN.md §17); this queue
// orders its tasks with the very same rt::Scheduler, so every policy the
// daemon runs — fifo, prio, edf, fair, sjf — also runs in the simulator,
// and bench/abl_sched_policy evaluates the daemon's code.
#pragma once

#include <memory>
#include <optional>

#include "rt/scheduler.hpp"
#include "sim/sync.hpp"

namespace iofwd::proto {

// Tokens flow through a SimChannel (giving blocking receive and close
// semantics, and the event trajectory of a plain channel); the tasks
// themselves sit in a policy-ordered rt::Scheduler.
template <typename Task>
class SimTaskQueue {
 public:
  SimTaskQueue(sim::Engine& eng, rt::SchedPolicy policy)
      : sched_(rt::make_scheduler<Task>(policy)), tokens_(eng) {}

  void push(const rt::SchedMeta& meta, Task t) {
    sched_->push(meta, std::move(t));
    tokens_.send(0);
  }

  // Blocks for a task; nullopt once closed and drained.
  sim::Proc<std::optional<Task>> pop() {
    auto token = co_await tokens_.recv();
    if (!token) co_return std::nullopt;
    co_return sched_->pop();
  }

  std::optional<Task> try_pop() {
    if (!tokens_.try_recv()) return std::nullopt;
    return sched_->pop();
  }

  void close() { tokens_.close(); }
  [[nodiscard]] bool closed() const { return tokens_.closed(); }
  [[nodiscard]] std::size_t size() const { return sched_->size(); }
  [[nodiscard]] rt::SchedPolicy policy() const { return sched_->policy(); }

 private:
  std::unique_ptr<rt::Scheduler<Task>> sched_;
  sim::SimChannel<int> tokens_;
};

}  // namespace iofwd::proto
