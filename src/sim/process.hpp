// Proc<T>: the coroutine type for simulated activities.
//
// A Proc is lazy (suspends at the start). It runs in one of two modes:
//
//   * awaited:  `T v = co_await child();` — the child starts immediately via
//     symmetric transfer; when it finishes, control returns to the awaiting
//     parent. Exceptions propagate to the parent.
//   * detached: `engine.spawn(std::move(p))` — the engine resumes it at the
//     current simulated time and the frame destroys itself at completion.
//
// Processes must run to completion: destroying a suspended, non-detached
// Proc mid-flight is a programming error (a sync primitive may still hold
// its handle) and asserts in debug builds.
//
// Frames are recycled: a simulation creates and destroys a coroutine frame
// for nearly every simulated operation, so Proc frames come from per-thread
// free lists in 64-byte size classes (FramePool). Under AddressSanitizer the
// pool is compiled out, so ASan and LSan see every frame as its own block.
#pragma once

#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define IOFWD_SIM_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IOFWD_SIM_FRAME_POOL 0
#endif
#endif
#ifndef IOFWD_SIM_FRAME_POOL
#define IOFWD_SIM_FRAME_POOL 1
#endif

namespace iofwd::sim {

template <typename T>
class Proc;

namespace detail {

// Per-thread free lists of coroutine frames, one per 64-byte size class up
// to kMaxBytes; larger frames go straight to ::operator new. A freed frame
// joins the freeing thread's list, so a frame may move between threads. A
// thread's cached frames are freed when it exits.
class FramePool {
 public:
  static constexpr bool kEnabled = IOFWD_SIM_FRAME_POOL != 0;
  static constexpr std::size_t kGrain = 64;
  static constexpr std::size_t kClasses = 32;
  static constexpr std::size_t kMaxBytes = kGrain * kClasses;

  static void* allocate(std::size_t n) {
    if (n > kMaxBytes) return ::operator new(n);
    Lists& l = lists_;
    void*& head = l.head[(n - 1) / kGrain];
    if (void* p = head) {
      head = *static_cast<void**>(p);
      return p;
    }
    return ::operator new(round_up(n));
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxBytes) return ::operator delete(p, n);
    Lists& l = lists_;
    if (l.reaped) return ::operator delete(p, round_up(n));  // thread is exiting
    if (!l.armed) {
      l.armed = true;
      reaper_.lists = &l;  // registers the reaper's destructor for this thread
    }
    void*& head = l.head[(n - 1) / kGrain];
    *static_cast<void**>(p) = head;
    head = p;
  }

  // Frames cached by the calling thread (walks the lists; for tests).
  static std::size_t cached() {
    std::size_t n = 0;
    for (void* h : lists_.head) {
      for (; h != nullptr; h = *static_cast<void**>(h)) ++n;
    }
    return n;
  }
  // Frames freed by exiting threads, over the whole process.
  static std::uint64_t reaped() { return reaped_total_.load(std::memory_order_relaxed); }

 private:
  static std::size_t round_up(std::size_t n) { return (n + kGrain - 1) / kGrain * kGrain; }

  // Trivially destructible, so it outlives every thread_local destructor
  // of its thread; frames freed after the reaper ran skip the lists.
  struct Lists {
    void* head[kClasses];
    bool armed;
    bool reaped;
  };
  struct Reaper {
    Lists* lists;
    ~Reaper() {
      if (lists == nullptr) return;
      std::uint64_t n = 0;
      for (std::size_t c = 0; c < kClasses; ++c) {
        while (void* p = lists->head[c]) {
          lists->head[c] = *static_cast<void**>(p);
          ::operator delete(p, (c + 1) * kGrain);
          ++n;
        }
      }
      lists->reaped = true;
      reaped_total_.fetch_add(n, std::memory_order_relaxed);
    }
  };

  static inline thread_local Lists lists_{};
  static inline thread_local Reaper reaper_;
  static inline std::atomic<std::uint64_t> reaped_total_{0};
};

struct PromiseBase {
#if IOFWD_SIM_FRAME_POOL
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept { FramePool::deallocate(p, n); }
#endif

  std::coroutine_handle<> continuation{};
  bool detached = false;
  bool done = false;
  std::exception_ptr exception{};

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      p.done = true;
      if (p.continuation) return p.continuation;
      if (p.detached) {
        if (p.exception) {
          // A detached simulated activity threw: there is no parent to
          // propagate to, so fail fast rather than silently dropping it.
          std::fprintf(stderr, "iofwd::sim: exception escaped detached process\n");
          std::terminate();
        }
        h.destroy();
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Proc {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Proc get_return_object() {
      return Proc(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Proc(Proc&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Proc& operator=(Proc&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc() { destroy(); }

  // Awaiting a Proc starts it immediately (symmetric transfer).
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        assert(p.value.has_value());
        return std::move(*p.value);
      }
    };
    return Awaiter{h_};
  }

 private:
  friend class Engine;
  explicit Proc(std::coroutine_handle<promise_type> h) : h_(h) {}

  void destroy() {
    if (h_) {
      assert((!h_.promise().done || h_.done()) && "state mismatch");
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Proc<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Proc get_return_object() {
      return Proc(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Proc(Proc&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Proc& operator=(Proc&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc() { destroy(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;
      }
      void await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
      }
    };
    return Awaiter{h_};
  }

  // Used by Engine::spawn: mark detached (self-destroying) and hand over the
  // handle. The Proc wrapper relinquishes ownership.
  std::coroutine_handle<promise_type> release_detached() {
    assert(h_ && "spawning an empty Proc");
    h_.promise().detached = true;
    return std::exchange(h_, {});
  }

 private:
  explicit Proc(std::coroutine_handle<promise_type> h) : h_(h) {}

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

}  // namespace iofwd::sim
