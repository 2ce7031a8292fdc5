#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "sim/process.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_EQ(eng.events_pending(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, TieBrokenByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5, [&] { order.push_back(1); });
  eng.schedule_at(5, [&] { order.push_back(2); });
  eng.schedule_at(5, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  std::vector<SimTime> times;
  eng.schedule_at(10, [&] {
    times.push_back(eng.now());
    eng.schedule_after(5, [&] { times.push_back(eng.now()); });
  });
  eng.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  SimTime fired = -1;
  eng.schedule_at(10, [&] { eng.schedule_after(-100, [&] { fired = eng.now(); }); });
  eng.run();
  EXPECT_EQ(fired, 10);
}

TEST(Engine, CancelPreventsFiring) {
  Engine eng;
  bool fired = false;
  const auto id = eng.schedule_at(10, [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine eng;
  eng.cancel(9999);
  eng.schedule_at(1, [] {});
  EXPECT_EQ(eng.run(), 1u);
}

TEST(Engine, CancelledEventDoesNotBlockOthers) {
  Engine eng;
  std::vector<int> order;
  const auto id = eng.schedule_at(5, [&] { order.push_back(1); });
  eng.schedule_at(5, [&] { order.push_back(2); });
  eng.cancel(id);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), 20);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilAdvancesTimeEvenWithoutEvents) {
  Engine eng;
  eng.run_until(100);
  EXPECT_EQ(eng.now(), 100);
}

TEST(Engine, StopHaltsTheLoop) {
  Engine eng;
  int count = 0;
  eng.schedule_at(1, [&] { ++count; });
  eng.schedule_at(2, [&] {
    ++count;
    eng.stop();
  });
  eng.schedule_at(3, [&] { ++count; });
  eng.run();
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(eng.stopped());
}

TEST(Engine, ManyEventsStressOrder) {
  Engine eng;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    eng.schedule_at((i * 7919) % 1000, [&] {
      if (eng.now() < last) monotone = false;
      last = eng.now();
    });
  }
  eng.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(eng.events_processed(), 10000u);
}

TEST(Engine, CancelDropsPendingEventAndItsCaptureAtOnce) {
  Engine eng;
  auto held = std::make_shared<int>(7);
  const auto id = eng.schedule_at(10, [held] {});
  eng.schedule_at(20, [] {});
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_EQ(eng.events_pending(), 2u);
  eng.cancel(id);
  EXPECT_EQ(held.use_count(), 1) << "cancel must destroy the callback now";
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.cancel(id);  // twice: no-op
  EXPECT_EQ(eng.events_pending(), 1u);
  EXPECT_EQ(eng.run(), 1u);
}

TEST(Engine, StaleIdDoesNotCancelTheEventThatReusedItsSlot) {
  Engine eng;
  const auto old_id = eng.schedule_at(5, [] {});
  eng.cancel(old_id);
  bool fired = false;
  const auto new_id = eng.schedule_at(5, [&] { fired = true; });
  constexpr Engine::EventId kSlotMask = (Engine::EventId{1} << Engine::kSlotBits) - 1;
  ASSERT_EQ(old_id & kSlotMask, new_id & kSlotMask) << "freed slot should be reused";
  ASSERT_LT(old_id, new_id) << "ids grow in scheduling order";
  eng.cancel(old_id);
  eng.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, RetimeKeepsTheCallbackAndMovesTheEvent) {
  Engine eng;
  auto held = std::make_shared<int>(7);
  std::vector<SimTime> fired;
  const auto id = eng.schedule_at(10, [&fired, &eng, held] { fired.push_back(eng.now()); });
  eng.schedule_at(20, [&] { fired.push_back(-eng.now()); });
  const auto later = eng.retime(id, 30);
  ASSERT_NE(later, 0u);
  EXPECT_EQ(held.use_count(), 2) << "retime keeps the callback";
  EXPECT_EQ(eng.events_pending(), 2u);
  eng.cancel(id);  // the old id is dead
  EXPECT_EQ(eng.events_pending(), 2u);
  const auto now = eng.retime(later, 0);
  EXPECT_EQ(eng.retime(later, 5), 0u) << "a retimed-away id is dead";
  eng.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{0, -20}));
  EXPECT_EQ(eng.retime(now, 40), 0u) << "a fired id is dead";
  EXPECT_EQ(held.use_count(), 1);
}

// FluidResource relies on this: re-arming its timer with retime() fires
// exactly as cancel + schedule did, because both reuse the same slot.
TEST(Engine, RetimeReturnsTheIdThatCancelPlusScheduleWould) {
  Engine a;
  Engine b;
  std::vector<Engine::EventId> ia;
  std::vector<Engine::EventId> ib;
  for (SimTime t : {7, 3, 9, 0, 3}) {
    ia.push_back(a.schedule_at(t, [] {}));
    ib.push_back(b.schedule_at(t, [] {}));
  }
  a.run_until(1);
  b.run_until(1);
  const SimTime moves[][2] = {{0, 2}, {2, 8}, {4, 1}, {1, 1}, {2, 5}};
  for (const auto& m : moves) {
    const auto i = static_cast<std::size_t>(m[0]);
    ia[i] = a.retime(ia[i], m[1]);
    b.cancel(ib[i]);
    ib[i] = b.schedule_at(m[1], [] {});
    EXPECT_EQ(ia[i], ib[i]);
  }
  EXPECT_EQ(a.run(), b.run());
}

TEST(Engine, ScheduleIntoThePastFailsFastInEveryBuild) {
  EXPECT_DEATH(
      {
        Engine eng;
        eng.run_until(10);
        eng.schedule_at(5, [] {});
      },
      "cannot schedule into the past");
  EXPECT_DEATH(
      {
        Engine eng;
        eng.run_until(10);
        eng.schedule_resume_at(9, std::noop_coroutine());
      },
      "cannot schedule into the past");
}

// ---------------------------------------------------------------------------
// Model-based check of the event core, in the style of sched_model_test.
//
// Seeded random streams of schedule / resume / cancel / retime / run_until /
// run ops drive the real Engine and a reference model side by side. The
// model is a vector of pending events kept sorted by (time, scheduling
// sequence), where a retime counts as a fresh scheduling; the engine must
// fire exactly its front, at exactly its time. It knows nothing of the
// engine's run queue, so events due at the current instant (which the
// engine keeps in its FIFO) and heap events must interleave exactly as one
// ordered queue would. Events carry actions to perform when they fire
// (nested schedules, retimes, cancelling themselves or a same-time
// sibling), so re-entrant use is covered too. After every op, and inside
// every fired event, now(), events_processed() and events_pending() must
// agree with the model. Of the 80 streams, 30 are zero-delay heavy and 20
// keep dozens of events in the heap. A failing stream is shrunk greedily
// and printed with its seed; replay with IOFWD_TEST_SEED=0x...
//
// Cancels and retimes pick their victim when they run (the i-th pending
// event, the i-th already-fired or cancelled id, ...) and are skipped when
// nothing qualifies, so every subsequence of a stream is well-formed and
// shrinking is sound.
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t {
  schedule_at,     // callback at now + dt
  schedule_after,  // callback after dt (dt < 0 clamps to now)
  resume_at,       // coroutine resume at now + dt
  resume_after,    // coroutine resume after dt
  cancel_pending,  // the pick-th pending event
  cancel_dead,     // the pick-th fired or cancelled event (its slot may be reused)
  cancel_unknown,  // an id the engine never issued
  cancel_self,     // in an event: the event that is running
  cancel_sibling,  // in an event: the pick-th pending event at the current time
  retime,          // the pick-th pending event, to now + dt
  retime_dead,     // the pick-th fired, cancelled or retimed-away id
  run_until,       // top level: run to now + dt
  run,             // top level: run dry
};

const char* name(Kind k) {
  switch (k) {
    case Kind::schedule_at: return "schedule_at";
    case Kind::schedule_after: return "schedule_after";
    case Kind::resume_at: return "schedule_resume_at";
    case Kind::resume_after: return "schedule_resume_after";
    case Kind::cancel_pending: return "cancel(pending)";
    case Kind::cancel_dead: return "cancel(fired or cancelled)";
    case Kind::cancel_unknown: return "cancel(unknown)";
    case Kind::cancel_self: return "cancel(self)";
    case Kind::cancel_sibling: return "cancel(same-time sibling)";
    case Kind::retime: return "retime(pending)";
    case Kind::retime_dead: return "retime(fired or cancelled)";
    case Kind::run_until: return "run_until";
    case Kind::run: return "run";
  }
  return "?";
}

struct Op {
  Kind kind = Kind::run;
  SimTime dt = 0;
  std::uint64_t pick = 0;
  std::vector<Op> on_fire;  // schedules only: what the event does when it fires
};

bool is_schedule(Kind k) { return k <= Kind::resume_after; }
bool is_resume(Kind k) { return k == Kind::resume_at || k == Kind::resume_after; }

void describe(std::ostream& os, const Op& op, int depth) {
  os << std::string(static_cast<std::size_t>(2 + 2 * depth), ' ') << name(op.kind);
  if (is_schedule(op.kind) || op.kind == Kind::run_until || op.kind == Kind::retime) {
    os << " dt=" << op.dt;
  }
  if (!is_schedule(op.kind) && op.kind != Kind::run_until && op.kind != Kind::run) {
    os << " pick=" << op.pick;
  }
  os << "\n";
  for (const Op& n : op.on_fire) describe(os, n, depth + 1);
}

// A coroutine that, when the engine resumes it, reports the firing.
struct Resumer {
  struct promise_type {
    Resumer get_return_object() {
      return Resumer{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  explicit Resumer(std::coroutine_handle<promise_type> handle) : h(handle) {}
  Resumer(Resumer&& o) noexcept : h(std::exchange(o.h, {})) {}
  Resumer& operator=(Resumer&&) = delete;
  ~Resumer() {
    if (h) h.destroy();
  }
  std::coroutine_handle<promise_type> h;
};

// How often the random streams hit the cases that are easy to miss. An
// event is "zero-delay" when it was scheduled (or retimed) for the instant
// it was scheduled at, so the engine runs it from its run queue.
struct Coverage {
  std::uint64_t stale_reused = 0;  // cancel of a dead id whose slot is live again
  std::uint64_t self = 0;
  std::uint64_t sibling = 0;
  std::uint64_t nested = 0;
  std::uint64_t resumes = 0;
  std::uint64_t zero_at = 0;           // schedule_at / resume_at for now()
  std::uint64_t zero_after = 0;        // schedule_after / resume_after with dt == 0
  std::uint64_t negative_after = 0;    // ... with dt < 0
  std::uint64_t cancel_zero_nested = 0;  // a pending zero-delay event cancelled in an event
  std::uint64_t retime_earlier = 0;
  std::uint64_t retime_later = 0;
  std::uint64_t retime_now = 0;        // retimed to now(): into the run queue
  std::uint64_t retime_dead = 0;
  std::uint64_t heap_before_zero = 0;  // a heap event fired while a later zero-delay one waits
  std::uint64_t run_until_zero = 0;    // run_until fired a zero-delay event at its limit
  std::size_t heap_peak = 0;           // most events pending in the heap at once
  std::uint64_t heap_interior = 0;     // a cancel or retime below the root of a 21+ entry heap
};

class Harness {
 public:
  explicit Harness(Coverage& cov) : cov_(cov) {}

  // Replays `ops`, then runs dry. Returns the first disagreement.
  std::optional<std::string> replay(const std::vector<Op>& ops) {
    for (std::size_t i = 0; i < ops.size() && !error_; ++i) {
      where_ = "op #" + std::to_string(i) + " " + name(ops[i].kind);
      apply(ops[i]);
      check_counters();
    }
    if (!error_) {
      where_ = "final run()";
      apply(Op{});
      check_counters();
    }
    return error_;
  }

  void fired(std::size_t tag) {
    if (error_) return;
    if (pending_.empty()) {
      return fail("engine fired event #" + std::to_string(tag) + " but the model has none");
    }
    const Pending want = pending_.front();
    if (want.tag != tag || eng_.now() != want.t) {
      return fail("engine fired event #" + std::to_string(tag) + " at t=" +
                  std::to_string(eng_.now()) + ", model wants #" + std::to_string(want.tag) +
                  " at t=" + std::to_string(want.t));
    }
    if (!zero_[tag] && std::any_of(pending_.begin() + 1, pending_.end(), [&](const Pending& p) {
          return p.t == want.t && zero_[p.tag];
        })) {
      ++cov_.heap_before_zero;
    }
    if (zero_[tag] && limit_ == want.t) ++cov_.run_until_zero;
    pending_.erase(pending_.begin());
    now_ = want.t;
    ++processed_;
    dead_.push_back(ids_[tag]);
    check_counters();
    const std::optional<std::size_t> outer = std::exchange(running_, tag);
    for (const Op& op : *actions_[tag]) {
      if (error_) break;
      ++cov_.nested;
      apply(op);
      check_counters();
    }
    running_ = outer;
  }

 private:
  struct Pending {
    SimTime t;
    std::uint64_t order;  // scheduling or retiming order, so (t, order) is the engine's order
    std::size_t tag;      // which event (fixed for its life; a retime keeps it)
  };

  static Resumer resumer(Harness& hs, std::size_t tag) {
    hs.fired(tag);
    co_return;
  }

  static std::uint32_t slot_of(Engine::EventId id) {
    return static_cast<std::uint32_t>(id & ((Engine::EventId{1} << Engine::kSlotBits) - 1));
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case Kind::schedule_at:
      case Kind::schedule_after:
      case Kind::resume_at:
      case Kind::resume_after:
        return schedule(op);
      case Kind::cancel_pending:
        if (!pending_.empty()) cancel_tag(pending_[op.pick % pending_.size()].tag);
        return;
      case Kind::cancel_dead:
        if (!dead_.empty()) cancel_dead(dead_[op.pick % dead_.size()]);
        return;
      case Kind::cancel_unknown: {
        // Never issued: id 0, a slot past the table, or a sequence number
        // far beyond any the stream reaches, on a slot that may be live.
        const Engine::EventId far = Engine::EventId{1} << 62;
        const Engine::EventId ids[] = {0, (Engine::EventId{1} << Engine::kSlotBits) - 1,
                                       far | (op.pick % 8)};
        eng_.cancel(ids[op.pick % 3]);
        return;
      }
      case Kind::cancel_self:
        if (running_) {
          ++cov_.self;
          cancel_dead(ids_[*running_]);
        }
        return;
      case Kind::cancel_sibling: {
        std::vector<std::size_t> same;
        for (const Pending& p : pending_) {
          if (p.t == now_) same.push_back(p.tag);
        }
        if (same.empty()) return;
        ++cov_.sibling;
        cancel_tag(same[op.pick % same.size()]);
        return;
      }
      case Kind::retime:
        if (!pending_.empty()) retime(op.pick % pending_.size(), now_ + std::max<SimTime>(op.dt, 0));
        return;
      case Kind::retime_dead:
        if (dead_.empty()) return;
        ++cov_.retime_dead;
        if (eng_.retime(dead_[op.pick % dead_.size()], now_ + 1) != 0) {
          return fail("retime of a fired or cancelled id returned a new id");
        }
        return;
      case Kind::run_until: {
        const SimTime limit = now_ + op.dt;
        const std::uint64_t before = processed_;
        limit_ = limit;
        const std::uint64_t n = eng_.run_until(limit);
        limit_.reset();
        if (error_) return;
        if (!pending_.empty() && pending_.front().t <= limit) {
          return fail("run_until(" + std::to_string(limit) + ") left event #" +
                      std::to_string(pending_.front().tag) + " at t=" +
                      std::to_string(pending_.front().t) + " unfired");
        }
        now_ = std::max(now_, limit);
        if (n != processed_ - before) return fail("run_until returned a wrong count");
        return;
      }
      case Kind::run: {
        const std::uint64_t before = processed_;
        const std::uint64_t n = eng_.run();
        if (error_) return;
        if (!pending_.empty()) return fail("run() returned with events pending in the model");
        if (n != processed_ - before) return fail("run returned a wrong count");
        return;
      }
    }
  }

  void schedule(const Op& op) {
    const bool absolute = op.kind == Kind::schedule_at || op.kind == Kind::resume_at;
    const SimTime t = now_ + std::max<SimTime>(op.dt, 0);
    if (t == now_) {
      ++(absolute ? cov_.zero_at : op.dt == 0 ? cov_.zero_after : cov_.negative_after);
    }
    const std::size_t tag = ids_.size();
    actions_.push_back(&op.on_fire);
    Engine::EventId id = 0;
    if (is_resume(op.kind)) {
      ++cov_.resumes;
      frames_.push_back(resumer(*this, tag));
      const std::coroutine_handle<> h = frames_.back().h;
      id = absolute ? eng_.schedule_resume_at(t, h) : eng_.schedule_resume_after(op.dt, h);
    } else {
      auto cb = [this, tag] { fired(tag); };
      id = absolute ? eng_.schedule_at(t, cb) : eng_.schedule_after(op.dt, cb);
    }
    ids_.push_back(0);
    zero_.push_back(false);
    enqueue(tag, t, id);
  }

  // The model's side of a schedule or retime that gave `tag` the id `id`.
  void enqueue(std::size_t tag, SimTime t, Engine::EventId id) {
    if (id <= last_id_) return fail("event ids are not increasing in scheduling order");
    last_id_ = id;
    ids_[tag] = id;
    zero_[tag] = t == now_;
    const Pending p{t, next_order_++, tag};
    const auto at =
        std::upper_bound(pending_.begin(), pending_.end(), p, [](const Pending& a, const Pending& b) {
          return a.t != b.t ? a.t < b.t : a.order < b.order;
        });
    pending_.insert(at, p);
    cov_.heap_peak = std::max(cov_.heap_peak, heap_size());
  }

  // The engine keeps every event that was not due at the instant it was
  // queued in its heap; the heap's root is the first of them.
  std::size_t heap_size() const {
    return static_cast<std::size_t>(std::count_if(
        pending_.begin(), pending_.end(), [&](const Pending& p) { return !zero_[p.tag]; }));
  }
  void note_heap_victim(std::size_t tag) {
    if (zero_[tag]) return;
    const auto root = std::find_if(pending_.begin(), pending_.end(),
                                   [&](const Pending& p) { return !zero_[p.tag]; });
    if (root->tag != tag && heap_size() >= 21) ++cov_.heap_interior;
  }

  void retime(std::size_t i, SimTime t) {
    const Pending old = pending_[i];
    note_heap_victim(old.tag);
    ++(t == now_ ? cov_.retime_now : t < old.t ? cov_.retime_earlier : cov_.retime_later);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    const Engine::EventId old_id = ids_[old.tag];
    dead_.push_back(old_id);
    const Engine::EventId id = eng_.retime(old_id, t);
    if (id == 0) return fail("retime of a pending event returned 0");
    if (slot_of(id) != slot_of(old_id)) return fail("retime moved the event to another slot");
    enqueue(old.tag, t, id);
  }

  void cancel_tag(std::size_t tag) {
    if (running_ && zero_[tag]) ++cov_.cancel_zero_nested;
    note_heap_victim(tag);
    pending_.erase(std::find_if(pending_.begin(), pending_.end(),
                                [&](const Pending& p) { return p.tag == tag; }));
    dead_.push_back(ids_[tag]);
    eng_.cancel(ids_[tag]);
  }

  // The model does nothing; the engine must do nothing either.
  void cancel_dead(Engine::EventId id) {
    for (const Pending& p : pending_) {
      if (slot_of(ids_[p.tag]) == slot_of(id)) ++cov_.stale_reused;
    }
    eng_.cancel(id);
  }

  void check_counters() {
    if (error_) return;
    if (eng_.now() != now_) {
      return fail("now() = " + std::to_string(eng_.now()) + ", model " + std::to_string(now_));
    }
    if (eng_.events_processed() != processed_) {
      return fail("events_processed() = " + std::to_string(eng_.events_processed()) +
                  ", model " + std::to_string(processed_));
    }
    if (eng_.events_pending() != pending_.size()) {
      return fail("events_pending() = " + std::to_string(eng_.events_pending()) + ", model " +
                  std::to_string(pending_.size()));
    }
  }

  void fail(const std::string& what) {
    if (!error_) error_ = where_ + ": " + what;
    eng_.stop();
  }

  Coverage& cov_;
  std::vector<Resumer> frames_;  // destroyed after eng_, whose slots may name them
  Engine eng_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Pending> pending_;  // sorted by (t, order)
  std::uint64_t next_order_ = 0;
  Engine::EventId last_id_ = 0;
  std::vector<Engine::EventId> dead_;              // fired, cancelled and retimed-away ids
  std::vector<Engine::EventId> ids_;               // by tag: the current id
  std::vector<bool> zero_;                         // by tag: due at the instant it was queued at
  std::vector<const std::vector<Op>*> actions_;    // by tag
  std::optional<std::size_t> running_;
  std::optional<SimTime> limit_;                   // inside run_until(limit_)
  std::string where_;
  std::optional<std::string> error_;
};

std::optional<std::string> run_stream(const std::vector<Op>& ops, Coverage& cov) {
  Harness hs(cov);
  return hs.replay(ops);
}

std::vector<Op> minimize(std::vector<Op> ops) {
  Coverage ignored;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = ops.size(); i-- > 0;) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (run_stream(candidate, ignored).has_value()) {
        ops = std::move(candidate);
        shrunk = true;
      }
    }
  }
  return ops;
}

// `zero_heavy` streams schedule, retime and run_until mostly with no delay,
// so the engine's run queue holds most events and cancels and retimes hit
// it often. `heap_heavy` streams rarely run and schedule further out, so
// the heap grows several levels deep and cancels and retimes hit entries
// below its root.
enum class Mix { plain, zero_heavy, heap_heavy };

Op random_op(Rng& rng, int depth, Mix mix) {
  const bool zero_heavy = mix == Mix::zero_heavy;
  Op op;
  const std::uint64_t r = rng.below(100);
  // Small time steps: many events share a time, so the sequence tie-break
  // and same-time cancels get exercised.
  if (depth == 0) {
    op.kind = r < 16   ? Kind::schedule_at
              : r < 27 ? Kind::schedule_after
              : r < 38 ? Kind::resume_at
              : r < 46 ? Kind::resume_after
              : r < 56 ? Kind::cancel_pending
              : r < 64 ? Kind::cancel_dead
              : r < 67 ? Kind::cancel_unknown
              : r < 74 ? Kind::retime
              : r < 77 ? Kind::retime_dead
              : r < 94 ? Kind::run_until
                       : Kind::run;
  } else {
    op.kind = r < 18   ? Kind::schedule_at
              : r < 29 ? Kind::schedule_after
              : r < 40 ? Kind::resume_at
              : r < 48 ? Kind::resume_after
              : r < 56 ? Kind::cancel_pending
              : r < 63 ? Kind::cancel_dead
              : r < 66 ? Kind::cancel_unknown
              : r < 74 ? Kind::cancel_self
              : r < 84 ? Kind::cancel_sibling
              : r < 94 ? Kind::retime
                       : Kind::retime_dead;
  }
  op.pick = rng.next();
  const bool after = op.kind == Kind::schedule_after || op.kind == Kind::resume_after;
  op.dt = static_cast<SimTime>(rng.below(after ? 16 : 12)) - (after ? 4 : 0);
  if (zero_heavy && (is_schedule(op.kind) || op.kind == Kind::retime) && rng.below(100) < 70) {
    op.dt = after ? -static_cast<SimTime>(rng.below(3)) : 0;
  }
  if (op.kind == Kind::run_until) {
    op.dt = zero_heavy && rng.below(100) < 40 ? 0 : static_cast<SimTime>(rng.below(20));
  }
  if (mix == Mix::heap_heavy) {
    if ((op.kind == Kind::run_until || op.kind == Kind::run) && rng.below(100) < 75) {
      op.kind = Kind::schedule_at;
    }
    if (is_schedule(op.kind) || op.kind == Kind::retime) {
      op.dt = 1 + static_cast<SimTime>(rng.below(40));
    }
  }
  if (is_schedule(op.kind) && depth < 2 && rng.below(100) < 35) {
    const std::uint64_t n = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < n; ++i) op.on_fire.push_back(random_op(rng, depth + 1, mix));
  }
  return op;
}

std::vector<Op> generate(std::uint64_t seed, std::size_t count, Mix mix) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ops.push_back(random_op(rng, 0, mix));
  return ops;
}

TEST(EngineModel, RandomStreamsMatchReferenceModel) {
  const std::uint64_t seed = testsupport::test_seed("engine_model", 0xe7e47ull);
  Rng salt(seed);
  Coverage cov;
  for (int round = 0; round < 80; ++round) {
    const Mix mix = round >= 60 ? Mix::heap_heavy : round % 2 == 1 ? Mix::zero_heavy : Mix::plain;
    const auto ops = generate(salt.next(), 200, mix);
    auto err = run_stream(ops, cov);
    if (!err) continue;
    const auto minimal = minimize(ops);
    Coverage ignored;
    std::ostringstream os;
    os << "engine diverged from its model (round " << round << ", replay: IOFWD_TEST_SEED=0x"
       << std::hex << seed << std::dec << ")\n"
       << "failure: " << *run_stream(minimal, ignored) << "\n"
       << "minimized to " << minimal.size() << " ops (of " << ops.size() << "):\n";
    for (const auto& op : minimal) describe(os, op, 0);
    FAIL() << os.str();
  }
  // The streams must reach the cases that are easy to miss.
  EXPECT_GT(cov.stale_reused, 0u);
  EXPECT_GT(cov.self, 0u);
  EXPECT_GT(cov.sibling, 0u);
  EXPECT_GT(cov.nested, 0u);
  EXPECT_GT(cov.resumes, 0u);
  EXPECT_GT(cov.zero_at, 0u);
  EXPECT_GT(cov.zero_after, 0u);
  EXPECT_GT(cov.negative_after, 0u);
  EXPECT_GT(cov.cancel_zero_nested, 0u);
  EXPECT_GT(cov.retime_earlier, 0u);
  EXPECT_GT(cov.retime_later, 0u);
  EXPECT_GT(cov.retime_now, 0u);
  EXPECT_GT(cov.retime_dead, 0u);
  EXPECT_GT(cov.heap_before_zero, 0u);
  EXPECT_GT(cov.run_until_zero, 0u);
  // A heap of 21+ entries (five levels deep), and cancels and retimes of
  // entries below the root of a heap that size.
  EXPECT_GE(cov.heap_peak, 21u);
  EXPECT_GT(cov.heap_interior, 0u);
}

}  // namespace
}  // namespace iofwd::sim
