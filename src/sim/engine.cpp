#include "sim/engine.hpp"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <limits>
#include <utility>

#include "sim/process.hpp"

namespace iofwd::sim {

namespace {

constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - Engine::kSlotBits)) - 1;
constexpr std::size_t kMaxSlots = std::size_t{1} << Engine::kSlotBits;

// Fail fast, like an exception escaping a detached process: a simulation
// that broke one of the engine's invariants has no trustworthy result.
[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "iofwd::sim: %s\n", what);
  std::terminate();
}

}  // namespace

Engine::EventId Engine::next_id(std::uint32_t slot, SimTime t) {
  if (t < now_) {
    std::fprintf(stderr,
                 "iofwd::sim: cannot schedule into the past (t=%" PRId64 " ns < now()=%" PRId64
                 " ns)\n",
                 t, now_);
    std::terminate();
  }
  if (next_seq_ > kMaxSeq) fail("event sequence numbers exhausted");
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  return id;
}

void Engine::enqueue(const Entry& e) {
  // The FIFO stays sorted: e has the largest id so far and nothing queued is
  // due after now().
  if (e.t == now_) {
    if (run_.size() == run_.capacity() && run_head_ > 0) {
      // Reclaim the consumed prefix before growing.
      run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    run_.push_back(e);
    slots_[slot_of(e.id)].pos = kQueued;
  } else {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, e);
  }
}

Engine::Slot& Engine::add(SimTime t) {
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() == kMaxSlots) fail("too many pending events");
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  enqueue(Entry{t, next_id(s, t)});
  return slots_[s];
}

Engine::EventId Engine::schedule_at(SimTime t, Callback cb) {
  Slot& slot = add(t);
  slot.cb = std::move(cb);
  return slot.id;
}

Engine::EventId Engine::schedule_resume_at(SimTime t, std::coroutine_handle<> h) {
  Slot& slot = add(t);
  slot.h = h;
  return slot.id;
}

void Engine::cancel(EventId id) {
  const std::uint32_t s = slot_of(id);
  if (id == 0 || s >= slots_.size() || slots_[s].id != id) return;  // fired or unknown
  // A run-queue entry stays behind; fire_next() skips it by its stale id.
  if (slots_[s].pos != kQueued) erase_at(slots_[s].pos);
  release(s);
}

Engine::EventId Engine::retime(EventId id, SimTime t) {
  const std::uint32_t s = slot_of(id);
  if (id == 0 || s >= slots_.size() || slots_[s].id != id) return 0;  // fired or unknown
  const std::uint32_t pos = slots_[s].pos;
  const Entry e{t, next_id(s, t)};
  if (pos == kQueued) {
    enqueue(e);  // the old run-queue entry is stale now
  } else if (t == now_) {
    erase_at(pos);
    enqueue(e);
  } else if (before(e, heap_[pos])) {
    sift_up(pos, e);
  } else {
    sift_down(pos, e);
  }
  return e.id;
}

void Engine::spawn(Proc<void> p) { schedule_resume_at(now_, p.release_detached()); }

void Engine::release(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.id = 0;
  slot.h = {};
  // Destroyed once the slot is free again, so a captured object whose
  // destructor schedules or cancels sees a consistent table.
  Callback dead;
  dead.swap(slot.cb);
  free_.push_back(s);
}

void Engine::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Engine::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Engine::erase_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // it was the last entry
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

bool Engine::fire_next(SimTime limit) {
  while (!run_.empty() && slots_[slot_of(run_[run_head_].id)].id != run_[run_head_].id) {
    pop_run();  // cancelled or retimed
  }
  const bool from_run = !run_.empty() && (heap_.empty() || before(run_[run_head_], heap_.front()));
  if (!from_run && heap_.empty()) return false;
  const Entry ev = from_run ? run_[run_head_] : heap_.front();
  if (ev.t > limit) return false;
  if (from_run) {
    pop_run();
  } else {
    erase_at(0);
  }
  const std::uint32_t s = slot_of(ev.id);
  now_ = ev.t;
  ++processed_;
  // Free the slot before running the event: it may schedule (and so reuse
  // the slot or grow the table), and cancelling its own id is a no-op.
  Slot& slot = slots_[s];
  slot.id = 0;
  if (const std::coroutine_handle<> h = std::exchange(slot.h, {})) {
    free_.push_back(s);
    h.resume();
  } else {
    Callback cb;
    cb.swap(slot.cb);
    free_.push_back(s);
    cb();
  }
  return true;
}

std::uint64_t Engine::run() {
  const std::uint64_t start = processed_;
  while (!stopped_ && fire_next(std::numeric_limits<SimTime>::max())) {
  }
  return processed_ - start;
}

std::uint64_t Engine::run_until(SimTime t) {
  const std::uint64_t start = processed_;
  while (!stopped_ && fire_next(t)) {
  }
  if (now_ < t) now_ = t;
  return processed_ - start;
}

}  // namespace iofwd::sim
