// Pluggable I/O scheduling for the server work queue (DESIGN.md §17).
//
// The paper's forwarding queue is strictly FIFO; once many compute-node
// clients share one ION that is a fairness liability — one hot client's
// backlog sits in front of everyone else's ops. This header promotes the
// dispatch order to a first-class extension point: TaskQueue owns a
// Scheduler and every push carries a SchedMeta describing the op (tenant,
// priority class, deadline, bytes), so the queue's dispatch order is policy.
//
// Five policies ship:
//   fifo  — arrival order (the paper's behavior; the default).
//   prio  — strict priority classes from the frame header (kMaxPriorityClass
//           highest), FIFO within a class.
//   edf   — earliest deadline first on arrival + deadline_ms; ops without a
//           deadline run after every op that has one, FIFO among themselves.
//   fair  — deficit round-robin on bytes across tenants: each active tenant
//           in turn spends a byte quantum, so a tenant's share of served
//           bytes tracks 1/N(active) regardless of its arrival rate.
//   sjf   — shortest job first on payload bytes, FIFO among equal sizes:
//           small (latency-sensitive) ops overtake bulk data — the paper's
//           "take the data sizes into account" (Sec. IV).
//
// The simulator's work queue (proto::SimTaskQueue) orders its tasks with
// the same classes, so simulated and real schedules run one policy code.
//
// Schedulers are deliberately NOT thread-safe: TaskQueue drives one under
// its own mutex. That keeps policies trivially testable against reference
// models (tests/rt/sched_model_test.cpp) — a policy is a pure data
// structure, and the conformance suite replays randomized op streams
// against a golden model of each.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace iofwd::rt {

// Highest priority class a frame may carry (4 classes, 0 = default/lowest
// urgency by convention of the priority scheduler, which serves the HIGHEST
// class first). Bounded at decode (rt/wire.hpp) so schedulers can index
// by class safely.
inline constexpr std::uint8_t kMaxPriorityClass = 3;

enum class SchedPolicy : std::uint8_t {
  fifo = 0,
  prio = 1,
  edf = 2,
  fair = 3,
  sjf = 4,
};

[[nodiscard]] inline const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::fifo: return "fifo";
    case SchedPolicy::prio: return "prio";
    case SchedPolicy::edf: return "edf";
    case SchedPolicy::fair: return "fair";
    case SchedPolicy::sjf: return "sjf";
  }
  return "?";
}

// Parses a policy name; accepts "priority" as an alias for "prio" (the
// historical spelling of the simulator's `forwarder.policy` value).
[[nodiscard]] inline std::optional<SchedPolicy> parse_sched_policy(const std::string& s) {
  if (s == "fifo") return SchedPolicy::fifo;
  if (s == "prio" || s == "priority") return SchedPolicy::prio;
  if (s == "edf") return SchedPolicy::edf;
  if (s == "fair") return SchedPolicy::fair;
  if (s == "sjf") return SchedPolicy::sjf;
  return std::nullopt;
}

// Everything a policy may order by. Fields default to the values a
// metadata-less push implies (tenant 0, class 0, no deadline, zero bytes,
// arrival = push time), so FIFO callers need not build one.
struct SchedMeta {
  std::uint64_t tenant = 0;    // client/job id from the hello handshake
  std::uint8_t klass = 0;      // frame priority class, <= kMaxPriorityClass
  std::uint32_t deadline_ms = 0;  // per-op budget; 0 = none
  std::uint64_t bytes = 0;     // payload size, the DRR cost unit
  std::chrono::steady_clock::time_point arrival{};  // deadline anchor
};

// Default byte quantum one tenant may spend per DRR visit. Large enough
// that a 256 KiB op (the paper's sweet-spot transfer) fits in one credit,
// small enough that a tenant with a deep backlog yields every ~one op.
inline constexpr std::uint64_t kDefaultDrrQuantum = 256u << 10;

// Dispatch-order policy under TaskQueue. Not thread-safe — the owning
// queue serializes access. pop() on an empty scheduler is forbidden
// (callers check size() under the same lock).
template <typename T>
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual void push(const SchedMeta& meta, T item) = 0;
  [[nodiscard]] virtual T pop() = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual SchedPolicy policy() const = 0;
};

// Arrival order. This is exactly the deque the queue used before the
// scheduler existed, so the default config is behavior-compatible.
template <typename T>
class FifoScheduler final : public Scheduler<T> {
 public:
  void push(const SchedMeta&, T item) override { q_.push_back(std::move(item)); }
  T pop() override {
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }
  [[nodiscard]] std::size_t size() const override { return q_.size(); }
  [[nodiscard]] SchedPolicy policy() const override { return SchedPolicy::fifo; }

 private:
  std::deque<T> q_;
};

// Strict priority classes, highest class first, FIFO within a class. A
// steady stream of high-class ops CAN starve lower classes — that is the
// policy's contract; tenants needing a floor use `fair`.
template <typename T>
class PriorityScheduler final : public Scheduler<T> {
 public:
  void push(const SchedMeta& meta, T item) override {
    const std::size_t k = std::min<std::size_t>(meta.klass, kMaxPriorityClass);
    classes_[k].push_back(std::move(item));
    ++size_;
  }
  T pop() override {
    for (std::size_t k = kMaxPriorityClass + 1; k-- > 0;) {
      if (!classes_[k].empty()) {
        T v = std::move(classes_[k].front());
        classes_[k].pop_front();
        --size_;
        return v;
      }
    }
    __builtin_unreachable();
  }
  [[nodiscard]] std::size_t size() const override { return size_; }
  [[nodiscard]] SchedPolicy policy() const override { return SchedPolicy::prio; }

 private:
  std::array<std::deque<T>, kMaxPriorityClass + 1> classes_;
  std::size_t size_ = 0;
};

// The edf sort key: microseconds-since-epoch of the absolute deadline
// (arrival + deadline_ms), or "never" when the op carries none. Exposed so
// the reference model in the conformance test computes keys identically.
[[nodiscard]] inline std::uint64_t deadline_key(const SchedMeta& meta) {
  if (meta.deadline_ms == 0) return UINT64_MAX;
  const auto abs = meta.arrival + std::chrono::milliseconds(meta.deadline_ms);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(abs.time_since_epoch()).count());
}

// Smallest key first, ties broken on push order. Serves two policies:
//   edf — key = deadline_key(): ops without a deadline sort after every op
//         with one, so a deadline-free stream degenerates to FIFO;
//   sjf — key = payload bytes.
// A binary min-heap (std::push_heap over a vector) rather than a
// priority_queue, because tasks are move-only.
template <typename T>
class MinKeyScheduler final : public Scheduler<T> {
 public:
  explicit MinKeyScheduler(SchedPolicy policy) : policy_(policy) {}

  void push(const SchedMeta& meta, T item) override {
    Entry e;
    e.key = policy_ == SchedPolicy::sjf ? meta.bytes : deadline_key(meta);
    e.seq = next_seq_++;
    e.item = std::move(item);
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  T pop() override {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    T v = std::move(heap_.back().item);
    heap_.pop_back();
    return v;
  }
  [[nodiscard]] std::size_t size() const override { return heap_.size(); }
  [[nodiscard]] SchedPolicy policy() const override { return policy_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
    T item;
  };
  // std::push_heap builds a max-heap; "larger key sorts as greater"
  // therefore keeps the SMALLEST key at the top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };
  SchedPolicy policy_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

// Deficit round-robin on bytes across tenants. Each tenant owns a FIFO
// backlog; active tenants rotate, and on its first visit of a round a
// tenant is credited `quantum` bytes of deficit. It serves ops while the
// deficit covers the head op's bytes, then rotates. A tenant that empties
// forfeits its remaining deficit (work-conserving: an idle tenant cannot
// bank credit and later burst past its share) and its state is erased, so
// per-tenant memory is bounded by the tenants with a backlog — not by every
// tenant id a client ever sent.
template <typename T>
class DrrScheduler final : public Scheduler<T> {
 public:
  explicit DrrScheduler(std::uint64_t quantum_bytes = kDefaultDrrQuantum)
      : quantum_(std::max<std::uint64_t>(1, quantum_bytes)) {}

  void push(const SchedMeta& meta, T item) override {
    auto [it, fresh] = tenants_.try_emplace(meta.tenant);
    if (fresh) active_.push_back(meta.tenant);
    it->second.q.emplace_back(std::max<std::uint64_t>(1, meta.bytes), std::move(item));
    ++size_;
  }

  T pop() override {
    for (;;) {
      const std::uint64_t id = active_.front();
      Tenant& t = tenants_.find(id)->second;
      if (!t.credited) {
        t.credited = true;
        t.deficit += quantum_;
      }
      const std::uint64_t cost = t.q.front().first;
      if (t.deficit >= cost) {
        t.deficit -= cost;
        T v = std::move(t.q.front().second);
        t.q.pop_front();
        --size_;
        if (t.q.empty()) {
          // Forfeit leftover credit and leave the rotation.
          tenants_.erase(id);
          active_.pop_front();
        }
        return v;
      }
      // Quantum exhausted: rotate to the back, keep the deficit, and take a
      // fresh quantum on the next visit.
      t.credited = false;
      active_.pop_front();
      active_.push_back(id);
    }
  }

  [[nodiscard]] std::size_t size() const override { return size_; }
  [[nodiscard]] SchedPolicy policy() const override { return SchedPolicy::fair; }
  [[nodiscard]] std::uint64_t quantum_bytes() const { return quantum_; }
  // Tenants with a backlog (the only ones holding state).
  [[nodiscard]] std::size_t tenants() const { return tenants_.size(); }

 private:
  struct Tenant {
    std::deque<std::pair<std::uint64_t, T>> q;  // (bytes, item)
    std::uint64_t deficit = 0;
    bool credited = false;  // got its quantum for the current visit
  };
  std::unordered_map<std::uint64_t, Tenant> tenants_;
  std::deque<std::uint64_t> active_;
  std::uint64_t quantum_;
  std::size_t size_ = 0;
};

template <typename T>
[[nodiscard]] std::unique_ptr<Scheduler<T>> make_scheduler(
    SchedPolicy policy, std::uint64_t drr_quantum_bytes = kDefaultDrrQuantum) {
  switch (policy) {
    case SchedPolicy::fifo: return std::make_unique<FifoScheduler<T>>();
    case SchedPolicy::prio: return std::make_unique<PriorityScheduler<T>>();
    case SchedPolicy::edf:
    case SchedPolicy::sjf: return std::make_unique<MinKeyScheduler<T>>(policy);
    case SchedPolicy::fair: return std::make_unique<DrrScheduler<T>>(drr_quantum_bytes);
  }
  return std::make_unique<FifoScheduler<T>>();
}

}  // namespace iofwd::rt
