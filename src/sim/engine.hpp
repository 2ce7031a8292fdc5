// Discrete-event simulation engine.
//
// The engine fires events in (time, sequence) order. Everything that
// happens in the simulated machine is a C++20 coroutine (`Proc<T>`, see
// process.hpp) suspended on an awaitable that scheduled a wake-up event
// here. Execution is single-threaded and deterministic: ties in time are
// broken by insertion sequence.
//
// Event storage is hash-free and, in steady state, allocation-free. Each
// pending event lives in a slot of a table; freed slots are reused LIFO. An
// EventId packs the scheduling sequence number above the slot index, so ids
// are unique, increase in scheduling order, and find their slot without a
// lookup. A wake-up of a coroutine stores just its handle
// (schedule_resume_*); a Callback is for everything else.
//
// Pending events sit in one of two ordered structures:
//  * the run queue, a FIFO of events scheduled for the current instant
//    (spawns, joins, semaphore and fluid completions: most events). Their
//    ids increase in push order, so the FIFO is already sorted and costs
//    O(1) per event;
//  * an indexed binary min-heap of {time, id} for everything else. Every
//    slot knows its heap position, so cancel() removes the entry at once.
// The next event is whichever front comes first in (time, id) order, so the
// firing order is exactly that of one heap. A cancelled run-queue event
// frees its slot at once and its FIFO entry is skipped when reached.
// retime() moves a pending event to a new time in place: the same slot and
// callback, a fresh id, so it fires exactly as cancel() + schedule would
// have. Coroutine frames come from a per-thread pool (process.hpp).
// DESIGN.md §8 records the cost per event on the Fig. 9 point (sim_ladder)
// that each of these, and the later fluid-resource and fan-out changes,
// brought.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace iofwd::sim {

template <typename T>
class Proc;

class Engine {
 public:
  using Callback = std::function<void()>;
  // (sequence << kSlotBits) | slot. Sequence numbers start at 1, so 0 is
  // never a valid id.
  using EventId = std::uint64_t;
  static constexpr int kSlotBits = 24;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedule `cb` at absolute simulated time `t`. Returns an id usable with
  // cancel(). Scheduling into the past (t < now()) is a programming error
  // and terminates the simulation, in every build type.
  EventId schedule_at(SimTime t, Callback cb);

  // Schedule `cb` `delay` nanoseconds from now (delay < 0 is clamped to 0).
  EventId schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  // Resume the suspended coroutine `h` at time `t` (same rules as
  // schedule_at). The slot holds the handle itself: no closure is built.
  EventId schedule_resume_at(SimTime t, std::coroutine_handle<> h);
  EventId schedule_resume_after(SimTime delay, std::coroutine_handle<> h) {
    return schedule_resume_at(now_ + (delay > 0 ? delay : 0), h);
  }

  // Cancel a scheduled event: it is unqueued now and its callback (with
  // anything it captured) is destroyed now. Cancelling an already-fired,
  // already-cancelled or unknown id is a no-op, even if the event's slot has
  // since been reused.
  void cancel(EventId id);

  // Move pending event `id` to absolute time `t` (same rules as
  // schedule_at) and return its new id. It keeps its slot and its callback
  // or handle; the new id is the one cancel(id) followed by a schedule would
  // have returned, so it fires in the same order. A fired, cancelled or
  // unknown id is a no-op that returns 0.
  EventId retime(EventId id, SimTime t);

  // Start a detached process at the current simulated time. The coroutine
  // frame frees itself on completion. An exception escaping a detached
  // process terminates the simulation (fail fast — simulated machinery is
  // not supposed to throw).
  void spawn(Proc<void> p);

  // Run until the event queue is empty or stop() was called.
  // Returns the number of events processed by this call.
  std::uint64_t run();

  // Run events with time <= `t`; afterwards now() == t if the queue drained
  // past it. Returns events processed.
  std::uint64_t run_until(SimTime t);

  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  // Every pending event, and only a pending event, holds a slot.
  [[nodiscard]] std::size_t events_pending() const { return slots_.size() - free_.size(); }

 private:
  struct Entry {
    SimTime t;
    EventId id;
  };
  // A pending event. Exactly one of `h` and `cb` is set. A free slot has
  // id 0 and sits on free_.
  struct Slot {
    EventId id = 0;
    std::uint32_t pos = 0;  // index of this event's entry in heap_, or kQueued
    std::coroutine_handle<> h{};
    Callback cb;
  };
  static constexpr std::uint32_t kQueued = ~std::uint32_t{0};  // in run_

  static bool before(const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t < b.t : a.id < b.id;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & ((EventId{1} << kSlotBits) - 1));
  }

  // Take a slot, give it a fresh id and queue it at time `t`.
  Slot& add(SimTime t);
  // Check `t` against now(), then stamp `slot` with the next id.
  EventId next_id(std::uint32_t slot, SimTime t);
  // Queue `e` (its slot already holds e.id): the run queue takes it when it
  // is due now, the heap otherwise.
  void enqueue(const Entry& e);
  void pop_run() {
    if (++run_head_ == run_.size()) {
      run_.clear();
      run_head_ = 0;
    }
  }
  // Remove heap_[pos], restoring the heap property.
  void erase_at(std::size_t pos);
  void release(std::uint32_t slot);
  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[slot_of(e.id)].pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);
  bool fire_next(SimTime limit);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Entry> run_;  // run queue: entries from run_head_ on, sorted
  std::size_t run_head_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace iofwd::sim
