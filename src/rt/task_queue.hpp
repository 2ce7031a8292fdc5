// The shared work queue drained by the worker pool (paper Fig. 7).
//
// MPMC, mutex + condition variable, with the batch dequeue that implements
// the paper's per-worker I/O multiplexing: a worker takes up to `max_batch`
// tasks in one pass, optionally balanced against the backlog so one worker
// does not starve the others (the "simple load-balancing heuristic").
//
// Dispatch ORDER is delegated to a Scheduler (DESIGN.md §17): the default
// FIFO scheduler reproduces the old deque byte-for-byte, while prio/edf/fair
// reorder dequeues by the SchedMeta each push carries. The queue owns the
// lock and the blocking; the scheduler is a plain data structure under it.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "rt/scheduler.hpp"

namespace iofwd::rt {

template <typename T>
class TaskQueue {
 public:
  explicit TaskQueue(int workers_hint = 4, SchedPolicy policy = SchedPolicy::fifo,
                     std::uint64_t drr_quantum_bytes = kDefaultDrrQuantum)
      : workers_hint_(std::max(1, workers_hint)),
        sched_(make_scheduler<T>(policy, drr_quantum_bytes)) {}
  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  // Returns false if the queue is already closed.
  bool push(T task) { return push(std::move(task), SchedMeta{}); }

  // Same, with the scheduling metadata the configured policy orders by.
  // FIFO ignores it, so metadata-less callers lose nothing.
  bool push(T task, const SchedMeta& meta) {
    {
      std::scoped_lock lock(mu_);
      if (closed_) return false;
      sched_->push(meta, std::move(task));
      max_depth_ = std::max(max_depth_, sched_->size());
      ++pushed_;
    }
    cv_.notify_one();
    return true;
  }

  // Blocks for at least one task; then drains up to `max_batch` (balanced
  // against backlog when `balanced` is set). Empty result means closed.
  std::vector<T> pop_batch(int max_batch, bool balanced = true) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return sched_->size() != 0 || closed_; });
    std::vector<T> batch;
    if (sched_->size() == 0) return batch;  // closed and drained
    int target = max_batch;
    if (balanced) {
      const auto backlog = static_cast<int>(sched_->size());
      const int share = (backlog + workers_hint_ - 1) / workers_hint_;
      target = std::clamp(share, 1, max_batch);
    }
    while (sched_->size() != 0 && static_cast<int>(batch.size()) < target) {
      batch.push_back(sched_->pop());
    }
    ++batches_;
    return batch;
  }

  std::optional<T> try_pop() {
    std::scoped_lock lock(mu_);
    if (sched_->size() == 0) return std::nullopt;
    return sched_->pop();
  }

  // Close: pending tasks are still handed out; pop_batch returns empty once
  // drained.
  void close() {
    {
      std::scoped_lock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::scoped_lock lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mu_);
    return sched_->size();
  }
  [[nodiscard]] std::size_t max_depth() const {
    std::scoped_lock lock(mu_);
    return max_depth_;
  }
  [[nodiscard]] std::uint64_t batches() const {
    std::scoped_lock lock(mu_);
    return batches_;
  }
  [[nodiscard]] std::uint64_t pushed() const {
    std::scoped_lock lock(mu_);
    return pushed_;
  }
  [[nodiscard]] SchedPolicy policy() const { return sched_->policy(); }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int workers_hint_;
  std::unique_ptr<Scheduler<T>> sched_;
  std::size_t max_depth_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t pushed_ = 0;
};

}  // namespace iofwd::rt
