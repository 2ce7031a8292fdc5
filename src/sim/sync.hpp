// Awaitables and synchronization primitives for simulated processes.
//
// All primitives resume waiters through the engine's event queue (never
// inline) so that wake-ups are totally ordered with everything else and
// re-entrancy bugs cannot occur. All are FIFO-fair.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace iofwd::sim {

// ---------------------------------------------------------------------------
// Delay: co_await Delay{engine, ns};
// ---------------------------------------------------------------------------
struct Delay {
  Engine& eng;
  SimTime d;

  bool await_ready() const noexcept { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    eng.schedule_resume_after(d, h);
  }
  void await_resume() const noexcept {}
};

// ---------------------------------------------------------------------------
// SimSemaphore: counting semaphore with n-unit acquire (FIFO, no barging:
// while waiters exist, new acquirers queue behind them even if the count
// would satisfy them). Used for simulated memory pools and mutexes.
// ---------------------------------------------------------------------------
class SimSemaphore {
 public:
  SimSemaphore(Engine& eng, std::int64_t initial) : eng_(eng), count_(initial) {}
  SimSemaphore(const SimSemaphore&) = delete;
  SimSemaphore& operator=(const SimSemaphore&) = delete;

  struct Acquire {
    SimSemaphore& s;
    std::int64_t n;

    bool await_ready() {
      if (s.waiters_.empty() && s.count_ >= n) {
        s.count_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back({n, h}); }
    void await_resume() const noexcept {}
  };

  // co_await sem.acquire(n);
  [[nodiscard]] Acquire acquire(std::int64_t n = 1) {
    assert(n >= 0);
    return Acquire{*this, n};
  }

  // Try to take n units without waiting.
  bool try_acquire(std::int64_t n = 1) {
    if (waiters_.empty() && count_ >= n) {
      count_ -= n;
      return true;
    }
    return false;
  }

  void release(std::int64_t n = 1) {
    count_ += n;
    drain();
  }

  [[nodiscard]] std::int64_t available() const { return count_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  void drain() {
    while (!waiters_.empty() && count_ >= waiters_.front().need) {
      auto w = waiters_.front();
      waiters_.pop_front();
      count_ -= w.need;  // reserve now so later acquirers cannot barge
      eng_.schedule_resume_after(0, w.h);
    }
  }

  struct Waiter {
    std::int64_t need;
    std::coroutine_handle<> h;
  };
  Engine& eng_;
  std::int64_t count_;
  std::deque<Waiter> waiters_;
};

// A mutex is a binary semaphore; ScopedSimLock gives RAII in coroutines:
//   auto lock = co_await ScopedSimLock::take(mu);
class ScopedSimLock {
 public:
  static Proc<ScopedSimLock> take(SimSemaphore& mu) {
    co_await mu.acquire(1);
    co_return ScopedSimLock(&mu);
  }
  ScopedSimLock(ScopedSimLock&& o) noexcept : mu_(std::exchange(o.mu_, nullptr)) {}
  ScopedSimLock& operator=(ScopedSimLock&& o) noexcept {
    if (this != &o) {
      unlock();
      mu_ = std::exchange(o.mu_, nullptr);
    }
    return *this;
  }
  ScopedSimLock(const ScopedSimLock&) = delete;
  ScopedSimLock& operator=(const ScopedSimLock&) = delete;
  ~ScopedSimLock() { unlock(); }

 private:
  explicit ScopedSimLock(SimSemaphore* mu) : mu_(mu) {}
  void unlock() {
    if (mu_) {
      mu_->release(1);
      mu_ = nullptr;
    }
  }
  SimSemaphore* mu_;
};

// ---------------------------------------------------------------------------
// SimEvent: a manual latch. wait() suspends until set(); set() wakes all.
// ---------------------------------------------------------------------------
class SimEvent {
 public:
  explicit SimEvent(Engine& eng) : eng_(eng) {}
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  struct Wait {
    SimEvent& e;
    bool await_ready() const noexcept { return e.set_; }
    void await_suspend(std::coroutine_handle<> h) { e.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Wait wait() { return Wait{*this}; }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) eng_.schedule_resume_after(0, h);
    waiters_.clear();
  }
  [[nodiscard]] bool is_set() const { return set_; }

 private:
  Engine& eng_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// ---------------------------------------------------------------------------
// SimChannel<T>: unbounded FIFO channel. send() never blocks; recv() waits
// for an item; close() makes pending and future recv() return nullopt once
// the queue drains.
// ---------------------------------------------------------------------------
template <typename T>
class SimChannel {
 public:
  explicit SimChannel(Engine& eng) : eng_(eng) {}
  SimChannel(const SimChannel&) = delete;
  SimChannel& operator=(const SimChannel&) = delete;

  void send(T v) {
    assert(!closed_ && "send on closed channel");
    q_.push_back(std::move(v));
    wake_one();
  }

  struct Recv {
    SimChannel& c;
    bool suspended = false;

    bool await_ready() {
      // An item is available and not already promised to a scheduled waiter.
      if (c.q_.size() > c.reserved_) return true;
      return c.closed_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      c.waiters_.push_back(h);
    }
    std::optional<T> await_resume() {
      if (suspended && c.reserved_ > 0 && !c.q_.empty()) {
        // We were woken by send(): consume the item reserved for us.
        // (Engine FIFO ordering guarantees send-woken waiters resume before
        // close-woken ones, so the reservation is necessarily ours.)
        --c.reserved_;
        T v = std::move(c.q_.front());
        c.q_.pop_front();
        return v;
      }
      if (c.q_.size() > c.reserved_) {  // ready path: unreserved item
        T v = std::move(c.q_.front());
        c.q_.pop_front();
        return v;
      }
      assert(c.closed_);
      return std::nullopt;
    }
  };

  // co_await ch.recv() -> std::optional<T>
  [[nodiscard]] Recv recv() { return Recv{*this}; }

  // Non-blocking receive; respects items promised to scheduled waiters.
  std::optional<T> try_recv() {
    if (q_.size() > reserved_) {
      T v = std::move(q_.front());
      q_.pop_front();
      return v;
    }
    return std::nullopt;
  }

  void close() {
    closed_ = true;
    while (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      eng_.schedule_resume_after(0, h);
    }
  }

  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::size_t waiting_receivers() const { return waiters_.size(); }

 private:
  // Awaiter bookkeeping: when an item arrives and a receiver is suspended,
  // the item is "reserved" for it so that a try_recv() or a fresh recv()
  // cannot steal it before the scheduled resume runs.
  void wake_one() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      ++reserved_;
      eng_.schedule_resume_after(0, h);
    }
  }

  Engine& eng_;
  std::deque<T> q_;
  std::deque<std::coroutine_handle<>> waiters_;
  std::size_t reserved_ = 0;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// WaitGroup + when_all: structured concurrency over detached children.
// ---------------------------------------------------------------------------
class WaitGroup {
 public:
  explicit WaitGroup(Engine& eng) : eng_(eng) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(std::int64_t k = 1) { n_ += k; }

  void done() {
    assert(n_ > 0);
    if (--n_ == 0 && waiter_) {
      auto h = std::exchange(waiter_, {});
      eng_.schedule_resume_after(0, h);
    }
  }

  void record_exception(std::exception_ptr ep) {
    if (!exception_) exception_ = std::move(ep);
  }

  struct Wait {
    WaitGroup& wg;
    bool await_ready() const noexcept { return wg.n_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(!wg.waiter_ && "WaitGroup supports a single waiter");
      wg.waiter_ = h;
    }
    void await_resume() const {
      if (wg.exception_) std::rethrow_exception(wg.exception_);
    }
  };
  [[nodiscard]] Wait wait() { return Wait{*this}; }

  [[nodiscard]] std::int64_t pending() const { return n_; }

 private:
  Engine& eng_;
  std::int64_t n_ = 0;
  std::coroutine_handle<> waiter_{};
  std::exception_ptr exception_{};
};

namespace detail {
inline Proc<void> run_into_group(Proc<void> p, WaitGroup& wg) {
  try {
    co_await std::move(p);
  } catch (...) {
    wg.record_exception(std::current_exception());
  }
  wg.done();
}
}  // namespace detail

// Run all children concurrently; complete when every child completed. The
// first child exception (if any) is rethrown after all children finish.
inline Proc<void> when_all(Engine& eng, std::vector<Proc<void>> ps) {
  WaitGroup wg(eng);
  wg.add(static_cast<std::int64_t>(ps.size()));
  for (auto& p : ps) eng.spawn(detail::run_into_group(std::move(p), wg));
  co_await wg.wait();
}

// Fixed-arity overloads for the per-chunk fan-outs (CPU charged while the
// wire moves the bytes: an operation takes the max of its concurrently
// progressing resource usages). They spawn the legs in argument order
// straight into the group, with no vector and no nested frame, and so
// schedule exactly the events the vector overload does.
inline Proc<void> when_all(Engine& eng, Proc<void> a, Proc<void> b) {
  WaitGroup wg(eng);
  wg.add(2);
  eng.spawn(detail::run_into_group(std::move(a), wg));
  eng.spawn(detail::run_into_group(std::move(b), wg));
  co_await wg.wait();
}

inline Proc<void> when_all(Engine& eng, Proc<void> a, Proc<void> b, Proc<void> c) {
  WaitGroup wg(eng);
  wg.add(3);
  eng.spawn(detail::run_into_group(std::move(a), wg));
  eng.spawn(detail::run_into_group(std::move(b), wg));
  eng.spawn(detail::run_into_group(std::move(c), wg));
  co_await wg.wait();
}

}  // namespace iofwd::sim
