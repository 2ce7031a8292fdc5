// Model-based conformance suite for the pluggable schedulers (DESIGN.md §17,
// README "Test harness").
//
// Every policy behind TaskQueue must agree, pop for pop, with a golden
// reference model — a trivially-readable reimplementation of the policy's
// contract over flat vectors (linear scans, no clever data structures). A
// seeded generator drives randomized {push(tenant, class, deadline, bytes),
// pop} streams through the real Scheduler and the model side by side; any
// disagreement is delta-minimized (greedily dropping ops while the failure
// reproduces, like extent_stress_test) and printed with the seed, so the
// report is a ready-made regression test. Replay with IOFWD_TEST_SEED=0x...
//
// Pops against an empty scheduler are generated too and skipped by both
// sides — that keeps every subsequence of a failing stream well-formed,
// which is what makes greedy shrinking sound.
//
// This suite is the contract future policies must pass: add the policy to
// kAllPolicies, write its model, and the stream generator does the rest.
#include "rt/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::rt {
namespace {

constexpr SchedPolicy kAllPolicies[] = {SchedPolicy::fifo, SchedPolicy::prio,
                                        SchedPolicy::edf, SchedPolicy::fair,
                                        SchedPolicy::sjf};
constexpr std::uint64_t kQuantum = 64 << 10;  // small quantum: more rotations
constexpr std::uint64_t kTenants = 6;
constexpr std::uint64_t kMaxBytes = 128 << 10;

struct Op {
  bool is_push = true;
  SchedMeta meta;   // valid when is_push
  std::uint64_t id = 0;  // the pushed item
};

std::string to_string(const Op& op, std::chrono::steady_clock::time_point base) {
  if (!op.is_push) return "pop()";
  std::ostringstream os;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(op.meta.arrival - base).count();
  os << "push(id=" << op.id << ", tenant=" << op.meta.tenant
     << ", class=" << int(op.meta.klass) << ", deadline_ms=" << op.meta.deadline_ms
     << ", bytes=" << op.meta.bytes << ", arrival=+" << ms << "ms)";
  return os.str();
}

// ---------------------------------------------------------------------------
// Reference models: the policy contracts, written as linear scans over a
// flat vector (plus a textbook DRR loop for `fair`). No heaps, no deques —
// trivially auditable against DESIGN.md §17.
// ---------------------------------------------------------------------------

struct ModelItem {
  SchedMeta meta;
  std::uint64_t id = 0;
  std::uint64_t seq = 0;  // push order
};

class Model {
 public:
  explicit Model(SchedPolicy policy) : policy_(policy) {}

  void push(const SchedMeta& meta, std::uint64_t id) {
    items_.push_back({meta, id, next_seq_++});
    if (policy_ == SchedPolicy::fair && !contains(activation_, meta.tenant) &&
        backlog(meta.tenant) == 1) {
      activation_.push_back(meta.tenant);
    }
  }

  std::uint64_t pop() {
    std::size_t best = 0;
    switch (policy_) {
      case SchedPolicy::fifo:
        // Lowest push seq.
        for (std::size_t i = 1; i < items_.size(); ++i) {
          if (items_[i].seq < items_[best].seq) best = i;
        }
        break;
      case SchedPolicy::prio:
        // Highest class; push order within a class.
        for (std::size_t i = 1; i < items_.size(); ++i) {
          if (items_[i].meta.klass > items_[best].meta.klass ||
              (items_[i].meta.klass == items_[best].meta.klass &&
               items_[i].seq < items_[best].seq)) {
            best = i;
          }
        }
        break;
      case SchedPolicy::edf:
        // Earliest absolute deadline (no deadline = never); push order ties.
        for (std::size_t i = 1; i < items_.size(); ++i) {
          const auto ki = deadline_key(items_[i].meta);
          const auto kb = deadline_key(items_[best].meta);
          if (ki < kb || (ki == kb && items_[i].seq < items_[best].seq)) best = i;
        }
        break;
      case SchedPolicy::sjf:
        // Fewest bytes; push order ties.
        for (std::size_t i = 1; i < items_.size(); ++i) {
          const auto bi = items_[i].meta.bytes;
          const auto bb = items_[best].meta.bytes;
          if (bi < bb || (bi == bb && items_[i].seq < items_[best].seq)) best = i;
        }
        break;
      case SchedPolicy::fair:
        return pop_drr();
    }
    return take(best);
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  // Textbook deficit round-robin: visit tenants in activation order; a
  // visit grants one quantum of byte credit; serve that tenant's oldest
  // ops while the credit covers them; an emptied tenant forfeits leftover
  // credit and leaves the rotation; an exhausted one rotates to the back,
  // carrying its deficit.
  std::uint64_t pop_drr() {
    for (;;) {
      const std::uint64_t tenant = activation_.front();
      if (!credited_[tenant]) {
        credited_[tenant] = true;
        deficit_[tenant] += kQuantum;
      }
      const std::size_t head = oldest_of(tenant);
      const std::uint64_t cost = std::max<std::uint64_t>(1, items_[head].meta.bytes);
      if (deficit_[tenant] >= cost) {
        deficit_[tenant] -= cost;
        const std::uint64_t id = take(head);
        if (backlog(tenant) == 0) {
          deficit_[tenant] = 0;
          credited_[tenant] = false;
          activation_.erase(activation_.begin());
        }
        return id;
      }
      credited_[tenant] = false;
      activation_.erase(activation_.begin());
      activation_.push_back(tenant);
    }
  }

  [[nodiscard]] std::size_t oldest_of(std::uint64_t tenant) const {
    std::size_t best = items_.size();
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].meta.tenant != tenant) continue;
      if (best == items_.size() || items_[i].seq < items_[best].seq) best = i;
    }
    return best;
  }

  [[nodiscard]] std::size_t backlog(std::uint64_t tenant) const {
    std::size_t n = 0;
    for (const auto& it : items_) n += it.meta.tenant == tenant ? 1 : 0;
    return n;
  }

  static bool contains(const std::vector<std::uint64_t>& v, std::uint64_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }

  std::uint64_t take(std::size_t i) {
    const std::uint64_t id = items_[i].id;
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(i));
    return id;
  }

  SchedPolicy policy_;
  std::vector<ModelItem> items_;
  std::uint64_t next_seq_ = 0;
  // fair state
  std::vector<std::uint64_t> activation_;
  std::map<std::uint64_t, std::uint64_t> deficit_;
  std::map<std::uint64_t, bool> credited_;
};

// ---------------------------------------------------------------------------
// Stream replay + shrinking
// ---------------------------------------------------------------------------

// Replay `ops` against a fresh scheduler + model; returns the first
// disagreement as "op #i ...", or nullopt if the stream is clean.
std::optional<std::string> run(SchedPolicy policy, const std::vector<Op>& ops,
                               std::chrono::steady_clock::time_point base) {
  auto sched = make_scheduler<std::uint64_t>(policy, kQuantum);
  Model model(policy);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.is_push) {
      sched->push(op.meta, op.id);
      model.push(op.meta, op.id);
    } else {
      if (sched->size() == 0 && model.size() == 0) continue;  // skip: both empty
      if (sched->size() == 0 || model.size() == 0) {
        return "op #" + std::to_string(i) + " pop(): size disagreement (sched=" +
               std::to_string(sched->size()) + ", model=" + std::to_string(model.size()) + ")";
      }
      const std::uint64_t got = sched->pop();
      const std::uint64_t want = model.pop();
      if (got != want) {
        return "op #" + std::to_string(i) + " pop(): scheduler returned id " +
               std::to_string(got) + ", model wants id " + std::to_string(want);
      }
    }
    if (sched->size() != model.size()) {
      return "op #" + std::to_string(i) + " " + to_string(op, base) + ": size " +
             std::to_string(sched->size()) + " != model " + std::to_string(model.size());
    }
  }
  // Full drain at end of stream: every remaining pop must agree too.
  while (model.size() != 0) {
    if (sched->size() == 0) return "drain: scheduler empty before model";
    const std::uint64_t got = sched->pop();
    const std::uint64_t want = model.pop();
    if (got != want) {
      return "drain: scheduler returned id " + std::to_string(got) + ", model wants id " +
             std::to_string(want);
    }
  }
  if (sched->size() != 0) return "drain: scheduler still holds items";
  return std::nullopt;
}

// Greedy delta-minimization: drop ops whose removal preserves the failure.
std::vector<Op> minimize(SchedPolicy policy, std::vector<Op> ops,
                         std::chrono::steady_clock::time_point base) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = ops.size(); i-- > 0;) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (run(policy, candidate, base).has_value()) {
        ops = std::move(candidate);
        shrunk = true;
      }
    }
  }
  return ops;
}

std::vector<Op> generate(std::uint64_t seed, std::size_t count,
                         std::chrono::steady_clock::time_point base) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    op.is_push = rng.below(100) < 60;  // pops outnumber nothing; backlogs build
    if (op.is_push) {
      op.id = next_id++;
      op.meta.tenant = rng.below(kTenants);
      op.meta.klass = static_cast<std::uint8_t>(rng.below(kMaxPriorityClass + 1));
      // Half the ops carry no deadline — EDF must interleave both kinds.
      op.meta.deadline_ms =
          rng.below(2) == 0 ? 0 : static_cast<std::uint32_t>(1 + rng.below(100));
      op.meta.bytes = 1 + rng.below(kMaxBytes);
      // Deterministic virtual arrival: each op 1 ms after the previous, so
      // EDF keys are reproducible across the real/model pair and replays.
      op.meta.arrival = base + std::chrono::milliseconds(i);
    }
    ops.push_back(op);
  }
  return ops;
}

class SchedModel : public ::testing::TestWithParam<SchedPolicy> {};

TEST_P(SchedModel, RandomStreamsMatchReferenceModel) {
  const SchedPolicy policy = GetParam();
  const std::uint64_t seed = testsupport::test_seed("sched_model", 0x5c4edull);
  const auto base = std::chrono::steady_clock::now();
  Rng salt(seed);
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t round_seed = salt.next();
    const auto ops = generate(round_seed, 400, base);
    auto err = run(policy, ops, base);
    if (!err) continue;
    const auto minimal = minimize(policy, ops, base);
    std::ostringstream os;
    os << "policy " << to_string(policy) << " diverged from its model (round " << round
       << ", replay: IOFWD_TEST_SEED=0x" << std::hex << seed << std::dec << ")\n"
       << "failure: " << *run(policy, minimal, base) << "\n"
       << "minimized to " << minimal.size() << " ops (of " << ops.size() << "):\n";
    for (const auto& op : minimal) os << "  " << to_string(op, base) << "\n";
    FAIL() << os.str();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedModel, ::testing::ValuesIn(kAllPolicies),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

// ---------------------------------------------------------------------------
// Directed conformance: one witness per policy clause, readable on its own.
// ---------------------------------------------------------------------------

SchedMeta meta(std::uint64_t tenant, std::uint8_t klass, std::uint32_t deadline_ms,
               std::uint64_t bytes, std::chrono::steady_clock::time_point arrival) {
  SchedMeta m;
  m.tenant = tenant;
  m.klass = klass;
  m.deadline_ms = deadline_ms;
  m.bytes = bytes;
  m.arrival = arrival;
  return m;
}

TEST(SchedDirected, FifoIsArrivalOrder) {
  auto s = make_scheduler<int>(SchedPolicy::fifo);
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) s->push(meta(0, 3, 100, 1, now), i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s->pop(), i);
}

TEST(SchedDirected, PriorityServesHighestClassFirstFifoWithin) {
  auto s = make_scheduler<int>(SchedPolicy::prio);
  const auto now = std::chrono::steady_clock::now();
  s->push(meta(0, 0, 0, 1, now), 10);
  s->push(meta(0, 2, 0, 1, now), 20);
  s->push(meta(0, 2, 0, 1, now), 21);
  s->push(meta(0, 3, 0, 1, now), 30);
  s->push(meta(0, 1, 0, 1, now), 40);
  EXPECT_EQ(s->pop(), 30);  // class 3
  EXPECT_EQ(s->pop(), 20);  // class 2, pushed first
  EXPECT_EQ(s->pop(), 21);
  EXPECT_EQ(s->pop(), 40);  // class 1
  EXPECT_EQ(s->pop(), 10);  // class 0
}

TEST(SchedDirected, EdfServesEarliestDeadlineAndParksDeadlineFreeOpsLast) {
  auto s = make_scheduler<int>(SchedPolicy::edf);
  const auto now = std::chrono::steady_clock::now();
  s->push(meta(0, 0, 0, 1, now), 1);                                     // no deadline
  s->push(meta(0, 0, 50, 1, now), 2);                                    // now+50ms
  s->push(meta(0, 0, 10, 1, now), 3);                                    // now+10ms
  s->push(meta(0, 0, 30, 1, now - std::chrono::milliseconds(25)), 4);    // now+5ms
  s->push(meta(0, 0, 0, 1, now), 5);                                     // no deadline
  EXPECT_EQ(s->pop(), 4);
  EXPECT_EQ(s->pop(), 3);
  EXPECT_EQ(s->pop(), 2);
  EXPECT_EQ(s->pop(), 1);  // deadline-free: FIFO among themselves, last
  EXPECT_EQ(s->pop(), 5);
}

TEST(SchedDirected, DrrAlternatesTenantsByByteQuantum) {
  // Two tenants, ops exactly one quantum each: service must alternate
  // strictly even though tenant 0 pushed its whole burst first.
  auto s = make_scheduler<int>(SchedPolicy::fair, kQuantum);
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) s->push(meta(0, 0, 0, kQuantum, now), i);
  for (int i = 0; i < 3; ++i) s->push(meta(1, 0, 0, kQuantum, now), 100 + i);
  EXPECT_EQ(s->pop(), 0);
  EXPECT_EQ(s->pop(), 100);
  EXPECT_EQ(s->pop(), 1);
  EXPECT_EQ(s->pop(), 101);
  EXPECT_EQ(s->pop(), 2);
  EXPECT_EQ(s->pop(), 102);
}

TEST(SchedDirected, DrrSmallOpsShareQuantumLargeOpsWaitForCredit) {
  // Tenant 0 queues one 4-quantum op; tenant 1 queues eight quantum/2 ops.
  // Tenant 1's whole backlog drains while tenant 0 accumulates credit.
  auto s = make_scheduler<int>(SchedPolicy::fair, kQuantum);
  const auto now = std::chrono::steady_clock::now();
  s->push(meta(0, 0, 0, 4 * kQuantum, now), 7);
  for (int i = 0; i < 8; ++i) s->push(meta(1, 0, 0, kQuantum / 2, now), 100 + i);
  std::vector<int> order;
  for (int i = 0; i < 9; ++i) order.push_back(s->pop());
  // The big op lands only after 3 full rotations banked enough deficit —
  // i.e. after at least 6 of tenant 1's small ops.
  const auto at = std::find(order.begin(), order.end(), 7) - order.begin();
  EXPECT_GE(at, 6) << "large op jumped the shared queue";
  // Per-tenant FIFO order always holds.
  std::vector<int> t1;
  for (int id : order) {
    if (id >= 100) t1.push_back(id);
  }
  EXPECT_TRUE(std::is_sorted(t1.begin(), t1.end()));
}

TEST(SchedDirected, DrrDropsTheStateOfDrainedTenants) {
  // Tenant ids come from the client's hello; one that cycles through fresh
  // ids must not grow the server. A drained tenant leaves no state behind.
  DrrScheduler<int> s(kQuantum);
  const auto now = std::chrono::steady_clock::now();
  for (std::uint64_t tenant = 0; tenant < 10'000; ++tenant) {
    s.push(meta(tenant, 0, 0, 1, now), static_cast<int>(tenant));
    EXPECT_EQ(s.pop(), static_cast<int>(tenant));
  }
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.tenants(), 0u);
}

TEST(SchedDirected, SjfServesSmallestFirstFifoAmongEqualSizes) {
  auto s = make_scheduler<int>(SchedPolicy::sjf);
  const auto now = std::chrono::steady_clock::now();
  s->push(meta(0, 3, 10, 100, now), 1);
  s->push(meta(0, 0, 0, 1, now), 2);
  s->push(meta(0, 0, 0, 50, now), 3);
  s->push(meta(0, 0, 0, 1, now), 4);
  EXPECT_EQ(s->pop(), 2);
  EXPECT_EQ(s->pop(), 4);  // same size as 2: push order
  EXPECT_EQ(s->pop(), 3);
  EXPECT_EQ(s->pop(), 1);  // class and deadline do not matter
}

TEST(SchedDirected, TaskQueueRoutesMetadataToThePolicy) {
  // The queue-level surface: a prio TaskQueue pops the high class first.
  TaskQueue<int> q(/*workers_hint=*/1, SchedPolicy::prio);
  const auto now = std::chrono::steady_clock::now();
  SchedMeta low = meta(0, 0, 0, 1, now);
  SchedMeta high = meta(0, kMaxPriorityClass, 0, 1, now);
  ASSERT_TRUE(q.push(1, low));
  ASSERT_TRUE(q.push(2, high));
  ASSERT_TRUE(q.push(3, low));
  EXPECT_EQ(q.policy(), SchedPolicy::prio);
  auto batch = q.pop_batch(3, /*balanced=*/false);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 2);  // high class overtook both low-class pushes
  EXPECT_EQ(batch[1], 1);
  EXPECT_EQ(batch[2], 3);
}

TEST(SchedDirected, PolicyNamesRoundTripAndAliasesParse) {
  for (SchedPolicy p : kAllPolicies) {
    auto parsed = parse_sched_policy(to_string(p));
    ASSERT_TRUE(parsed.has_value()) << to_string(p);
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(parse_sched_policy("priority"), SchedPolicy::prio);  // shared alias
  EXPECT_EQ(parse_sched_policy("sjf"), SchedPolicy::sjf);  // the simulator's, now shared
  EXPECT_FALSE(parse_sched_policy("").has_value());
}

}  // namespace
}  // namespace iofwd::rt
