#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "sim/sync.hpp"
#include "testsupport/testsupport.hpp"

namespace iofwd::sim {
namespace {

// Helper: run one consume and record completion time.
Proc<void> one_consume(FluidResource& r, double units, SimTime& done_at, Engine& eng) {
  co_await r.consume(units);
  done_at = eng.now();
}

Proc<void> one_consume_after(Engine& eng, FluidResource& r, SimTime start, double units,
                             SimTime& done_at) {
  co_await Delay{eng, start};
  co_await r.consume(units);
  done_at = eng.now();
}

TEST(FluidResource, SingleFlowServiceTime) {
  Engine eng;
  FluidResource r(eng, [](int) { return 2.0; }, "r");  // 2 units/ns
  SimTime done = -1;
  eng.spawn(one_consume(r, 100.0, done, eng));
  eng.run();
  EXPECT_EQ(done, 50);  // 100 units at 2/ns
  EXPECT_NEAR(r.total_served(), 100.0, 1e-6);
}

TEST(FluidResource, TwoFlowsShareEqually) {
  Engine eng;
  FluidResource r(eng, [](int) { return 2.0; }, "r");
  SimTime d1 = -1, d2 = -1;
  eng.spawn(one_consume(r, 100.0, d1, eng));
  eng.spawn(one_consume(r, 100.0, d2, eng));
  eng.run();
  // Both flows active the whole time, each gets 1 unit/ns.
  EXPECT_EQ(d1, 100);
  EXPECT_EQ(d2, 100);
}

TEST(FluidResource, ShortFlowLeavesLongFlowSpeedsUp) {
  Engine eng;
  FluidResource r(eng, [](int) { return 2.0; }, "r");
  SimTime d_short = -1, d_long = -1;
  eng.spawn(one_consume(r, 50.0, d_short, eng));
  eng.spawn(one_consume(r, 150.0, d_long, eng));
  eng.run();
  // Phase 1: both at 1/ns until short completes at t=50 (served 50 each).
  // Phase 2: long alone at 2/ns for remaining 100 -> 50 ns more.
  EXPECT_EQ(d_short, 50);
  EXPECT_EQ(d_long, 100);
}

TEST(FluidResource, LateArrivalSlowsExisting) {
  Engine eng;
  FluidResource r(eng, [](int) { return 1.0; }, "r");
  SimTime d1 = -1, d2 = -1;
  eng.spawn(one_consume(r, 100.0, d1, eng));
  eng.spawn(one_consume_after(eng, r, 50, 100.0, d2));
  eng.run();
  // Flow 1: alone for 50ns (50 served), then shares 0.5/ns. 50 left -> 100ns
  // more -> completes at 150. Flow 2: 50 served by t=150, then alone at 1/ns
  // for 50 -> completes at 200.
  EXPECT_EQ(d1, 150);
  EXPECT_EQ(d2, 200);
}

TEST(FluidResource, PerFlowCapLimitsSingleFlow) {
  Engine eng;
  FluidResource r(eng, [](int) { return 10.0; }, "r", /*per_flow_cap=*/1.0);
  SimTime done = -1;
  eng.spawn(one_consume(r, 100.0, done, eng));
  eng.run();
  EXPECT_EQ(done, 100);  // capped at 1/ns despite 10/ns capacity
}

TEST(FluidResource, CapacityFunctionSeesFlowCount) {
  Engine eng;
  // Aggregate capacity *drops* with contention: 4 / n per flow.
  FluidResource r(eng, [](int n) { return 4.0 / n; }, "r");
  SimTime d1 = -1, d2 = -1;
  eng.spawn(one_consume(r, 100.0, d1, eng));
  eng.spawn(one_consume(r, 100.0, d2, eng));
  eng.run();
  // n=2 -> total 2, each 1/ns -> both at t=100.
  EXPECT_EQ(d1, 100);
  EXPECT_EQ(d2, 100);
}

TEST(FluidResource, ZeroUnitsIsImmediate) {
  Engine eng;
  FluidResource r(eng, [](int) { return 1.0; }, "r");
  SimTime done = -1;
  eng.spawn(one_consume(r, 0.0, done, eng));
  eng.run();
  EXPECT_EQ(done, 0);
}

TEST(FluidResource, BusyTimeTracksActivity) {
  Engine eng;
  FluidResource r(eng, [](int) { return 1.0; }, "r");
  SimTime d1 = -1, d2 = -1;
  eng.spawn(one_consume(r, 10.0, d1, eng));
  eng.spawn(one_consume_after(eng, r, 100, 10.0, d2));
  eng.run();
  EXPECT_EQ(r.busy_time(), 20);  // two disjoint 10ns busy periods
}

TEST(FluidResource, ManyFlowsAllComplete) {
  Engine eng;
  FluidResource r(eng, [](int) { return 1.0; }, "r");
  std::vector<SimTime> done(64, -1);
  for (int i = 0; i < 64; ++i) eng.spawn(one_consume(r, 64.0, done[i], eng));
  eng.run();
  for (auto d : done) EXPECT_EQ(d, 64 * 64);
  EXPECT_NEAR(r.total_served(), 64.0 * 64.0, 1e-3);
}

// ------------------------------- Link ---------------------------------------

Proc<void> one_transfer(Link& link, std::uint64_t bytes, SimTime& done_at, Engine& eng) {
  co_await link.transfer(bytes);
  done_at = eng.now();
}

TEST(Link, EffectivePeakAccountsHeaders) {
  Engine eng;
  // BG/P tree: 850 MB/s raw ~ 810.6 MiB/s; 26 B headers per 256 B payload
  // -> effective ~ 736 MiB/s (the paper quotes ~731 with its rounding).
  LinkSpec spec;
  spec.bandwidth_mib_s = 850.0 * 1e6 / static_cast<double>(MiB);
  spec.header_bytes_per_unit = 26;
  spec.payload_unit_bytes = 256;
  Link link(eng, spec, "tree");
  EXPECT_NEAR(link.effective_peak_mib_s(), 731.0, 8.0);
}

TEST(Link, TransferTimeMatchesBandwidth) {
  Engine eng;
  LinkSpec spec;
  spec.bandwidth_mib_s = bytes_per_ns_to_mib_per_s(1.0);  // 1 byte/ns
  Link link(eng, spec, "l");
  SimTime done = -1;
  eng.spawn(one_transfer(link, 1000, done, eng));
  eng.run();
  EXPECT_EQ(done, 1000);
}

TEST(Link, LatencyAddsToTransfer) {
  Engine eng;
  LinkSpec spec;
  spec.bandwidth_mib_s = bytes_per_ns_to_mib_per_s(1.0);
  spec.latency_ns = 500;
  Link link(eng, spec, "l");
  SimTime done = -1;
  eng.spawn(one_transfer(link, 1000, done, eng));
  eng.run();
  EXPECT_EQ(done, 1500);
}

TEST(Link, ZeroByteTransferOnlyLatency) {
  Engine eng;
  LinkSpec spec;
  spec.bandwidth_mib_s = 100.0;
  spec.latency_ns = 42;
  Link link(eng, spec, "l");
  SimTime done = -1;
  eng.spawn(one_transfer(link, 0, done, eng));
  eng.run();
  EXPECT_EQ(done, 42);
}

TEST(Link, SharedFairly) {
  Engine eng;
  LinkSpec spec;
  spec.bandwidth_mib_s = bytes_per_ns_to_mib_per_s(2.0);  // 2 bytes/ns
  Link link(eng, spec, "l");
  SimTime d1 = -1, d2 = -1;
  eng.spawn(one_transfer(link, 1000, d1, eng));
  eng.spawn(one_transfer(link, 1000, d2, eng));
  eng.run();
  EXPECT_EQ(d1, 1000);
  EXPECT_EQ(d2, 1000);
  EXPECT_NEAR(link.total_payload_bytes(), 2000.0, 1e-9);
}

TEST(Link, PerFlowCapEnforced) {
  Engine eng;
  LinkSpec spec;
  spec.bandwidth_mib_s = bytes_per_ns_to_mib_per_s(10.0);
  spec.per_flow_cap_mib_s = bytes_per_ns_to_mib_per_s(1.0);
  Link link(eng, spec, "l");
  SimTime done = -1;
  eng.spawn(one_transfer(link, 100, done, eng));
  eng.run();
  EXPECT_EQ(done, 100);
}

// ------------------------------ CpuPool -------------------------------------

TEST(CpuPool, EffectiveCoresShape) {
  Engine eng;
  CpuSpec spec;
  spec.cores = 4;
  spec.share_penalty = 0.18;
  spec.switch_penalty = 0.05;
  CpuPool cpu(eng, spec, "ion");
  // Monotone up to core count...
  EXPECT_DOUBLE_EQ(cpu.effective_cores(1), 1.0);
  EXPECT_GT(cpu.effective_cores(2), cpu.effective_cores(1));
  EXPECT_GT(cpu.effective_cores(4), cpu.effective_cores(2));
  // ...then *decreasing* beyond it (the paper's 8-thread regression, Fig 11).
  EXPECT_LT(cpu.effective_cores(8), cpu.effective_cores(4));
  EXPECT_LT(cpu.effective_cores(16), cpu.effective_cores(8));
  // Sublinear scaling: 4 cores with cache contention < 4x one core.
  EXPECT_LT(cpu.effective_cores(4), 4.0);
}

TEST(CpuPool, NoPenaltiesMeansLinearUpToCores) {
  Engine eng;
  CpuPool cpu(eng, CpuSpec{.cores = 4}, "c");
  EXPECT_DOUBLE_EQ(cpu.effective_cores(1), 1.0);
  EXPECT_DOUBLE_EQ(cpu.effective_cores(4), 4.0);
  EXPECT_DOUBLE_EQ(cpu.effective_cores(100), 4.0);
}

Proc<void> burn(CpuPool& cpu, double cpu_ns, SimTime& done_at, Engine& eng) {
  co_await cpu.consume(cpu_ns);
  done_at = eng.now();
}

TEST(CpuPool, SingleTaskRunsAtOneCore) {
  Engine eng;
  CpuPool cpu(eng, CpuSpec{.cores = 4}, "c");
  SimTime done = -1;
  eng.spawn(burn(cpu, 1000.0, done, eng));
  eng.run();
  EXPECT_EQ(done, 1000);  // 1000 cpu-ns at 1 core
}

TEST(CpuPool, TasksWithinCoreCountRunInParallel) {
  Engine eng;
  CpuPool cpu(eng, CpuSpec{.cores = 4}, "c");
  std::vector<SimTime> done(4, -1);
  for (auto& d : done) eng.spawn(burn(cpu, 1000.0, d, eng));
  eng.run();
  for (auto d : done) EXPECT_EQ(d, 1000);
}

TEST(CpuPool, OversubscriptionSerializes) {
  Engine eng;
  CpuPool cpu(eng, CpuSpec{.cores = 2}, "c");
  std::vector<SimTime> done(4, -1);
  for (auto& d : done) eng.spawn(burn(cpu, 1000.0, d, eng));
  eng.run();
  // 4 tasks x 1000 cpu-ns on 2 cores = 2000 ns wall (fair sharing, no
  // penalties).
  for (auto d : done) EXPECT_EQ(d, 2000);
}

TEST(CpuPool, SwitchPenaltySlowsOversubscribed) {
  Engine eng;
  CpuSpec spec;
  spec.cores = 2;
  spec.switch_penalty = 0.25;
  spec.switch_saturation = 8.0;
  CpuPool cpu(eng, spec, "c");
  std::vector<SimTime> done(4, -1);
  for (auto& d : done) eng.spawn(burn(cpu, 1000.0, d, eng));
  eng.run();
  // excess = 2, saturating overhead = 0.25*2/(1+2/8) = 0.4
  // -> capacity 2/1.4 cores -> 4000 cpu-ns take 2800 ns.
  for (auto d : done) EXPECT_EQ(d, 2800);
}

TEST(CpuPool, SwitchPenaltySaturates) {
  Engine eng;
  CpuSpec spec;
  spec.cores = 4;
  spec.switch_penalty = 0.05;
  spec.switch_saturation = 8.0;
  CpuPool cpu(eng, spec, "c");
  // The loss approaches switch_penalty * saturation = 40% asymptotically.
  const double floor = 4.0 / (1.0 + 0.05 * 8.0);
  EXPECT_GT(cpu.effective_cores(1000), floor * 0.99);
  EXPECT_LT(cpu.effective_cores(1000), 4.0);
  // Still monotone decreasing in the oversubscribed regime.
  EXPECT_GT(cpu.effective_cores(8), cpu.effective_cores(16));
  EXPECT_GT(cpu.effective_cores(16), cpu.effective_cores(64));
}

// Property: the fluid model conserves work — total served equals the sum of
// all demands, for any arrival pattern and capacity curve.
class FluidConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidConservation, TotalServedEqualsTotalDemand) {
  Engine eng;
  // A wobbly capacity curve exercises the recompute paths.
  FluidResource r(
      eng, [](int n) { return 2.0 / (1.0 + 0.05 * n); }, "r");
  iofwd::Rng rng(GetParam());
  double demand = 0;
  std::vector<SimTime> done(40, -1);
  for (int i = 0; i < 40; ++i) {
    const double units = 1.0 + static_cast<double>(rng.below(5000));
    const auto start = static_cast<SimTime>(rng.below(20000));
    demand += units;
    eng.spawn([](Engine& e, FluidResource& res, SimTime at, double u,
                 SimTime& d) -> Proc<void> {
      co_await Delay{e, at};
      co_await res.consume(u);
      d = e.now();
    }(eng, r, start, units, done[i]));
  }
  eng.run();
  for (auto d : done) EXPECT_GE(d, 0) << "every flow must complete";
  EXPECT_NEAR(r.total_served(), demand, 1e-3);
  EXPECT_EQ(r.active(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidConservation, ::testing::Values(1u, 2u, 3u, 99u, 12345u));

// ---------------------------------------------------------------------------
// Reference model. ScanFluid is FluidResource as it was before the resource
// kept its flows' least remaining work as a member: it rescans every active
// flow on each arrival and completion. Its advance, epsilon and ceil rules
// are the production ones, and it schedules and retimes its timer the same
// way, so driven by the same arrivals on its own engine it must give
// bit-identical completion times, in the same order, and the same work and
// busy-time totals. Replay a failure with IOFWD_TEST_SEED=0x...
// ---------------------------------------------------------------------------
class ScanFluid {
 public:
  ScanFluid(Engine& eng, FluidResource::CapacityFn total_rate, const std::string& /*name*/,
            double per_flow_cap)
      : eng_(eng), total_rate_(std::move(total_rate)), per_flow_cap_(per_flow_cap) {}
  ~ScanFluid() {
    if (timer_armed_) eng_.cancel(timer_);
  }
  ScanFluid(const ScanFluid&) = delete;
  ScanFluid& operator=(const ScanFluid&) = delete;

  struct Consume {
    ScanFluid& r;
    double units;
    bool await_ready() const noexcept { return units <= 0; }
    void await_suspend(std::coroutine_handle<> h) { r.add_flow(units, h); }
    void await_resume() const noexcept {}
  };
  Consume consume(double units) { return Consume{*this, units}; }

  int active() const { return static_cast<int>(flows_.size()); }
  double total_served() const { return total_served_; }
  SimTime busy_time() const { return busy_time_; }

 private:
  static constexpr double kEpsilonUnits = 1e-6;
  struct Flow {
    double remaining;
    std::coroutine_handle<> h;
  };

  void add_flow(double units, std::coroutine_handle<> h) {
    advance();
    flows_.push_back(Flow{units, h});
    reschedule();
  }

  void advance() {
    const SimTime now = eng_.now();
    const SimTime dt = now - last_update_;
    last_update_ = now;
    if (dt <= 0 || flows_.empty()) return;
    const double served_per_flow = rate_per_flow_ * static_cast<double>(dt);
    for (auto& f : flows_) {
      const double s = std::min(f.remaining, served_per_flow);
      f.remaining -= s;
      total_served_ += s;
    }
    busy_time_ += dt;
  }

  void reschedule() {
    if (flows_.empty()) {
      if (timer_armed_) {
        eng_.cancel(timer_);
        timer_armed_ = false;
      }
      rate_per_flow_ = 0;
      return;
    }
    const int n = static_cast<int>(flows_.size());
    rate_per_flow_ = std::min(total_rate_(n) / n, per_flow_cap_);
    double min_rem = std::numeric_limits<double>::infinity();
    for (const auto& f : flows_) min_rem = std::min(min_rem, f.remaining);
    const double dt = std::max(0.0, min_rem - kEpsilonUnits) / rate_per_flow_;
    const SimTime at = eng_.now() + static_cast<SimTime>(std::ceil(dt));
    timer_ = timer_armed_ ? eng_.retime(timer_, at) : eng_.schedule_at(at, [this] { on_timer(); });
    timer_armed_ = true;
  }

  void on_timer() {
    timer_armed_ = false;
    advance();
    std::size_t kept = 0;
    for (const Flow& f : flows_) {
      if (f.remaining <= kEpsilonUnits) {
        total_served_ += f.remaining;
        eng_.schedule_resume_after(0, f.h);
      } else {
        flows_[kept++] = f;
      }
    }
    flows_.resize(kept);
    reschedule();
  }

  Engine& eng_;
  FluidResource::CapacityFn total_rate_;
  double per_flow_cap_;
  std::vector<Flow> flows_;
  SimTime last_update_ = 0;
  double rate_per_flow_ = 0;
  Engine::EventId timer_ = 0;
  bool timer_armed_ = false;
  double total_served_ = 0;
  SimTime busy_time_ = 0;
};

struct Arrival {
  SimTime at;
  double units;
};

struct FluidScenario {
  int capacity_kind;  // 0: constant, 1: falls with n (link contention), 2: CPU pool
  double rate;
  double per_flow_cap;
  std::vector<Arrival> arrivals;
};

// Arrivals come in same-instant bursts of 1 to 128 flows (most small, some
// the size of a pset), separated by gaps from 0 ns up to well past a typical
// service time, so flows join both bursts and a resource mid-service. Units
// mix zero, sub-epsilon, repeated (simultaneous completions) and arbitrary
// values.
FluidScenario random_fluid_scenario(Rng& rng) {
  FluidScenario sc;
  sc.capacity_kind = static_cast<int>(rng.below(3));
  sc.rate = 0.05 + 4.0 * rng.uniform01();
  sc.per_flow_cap =
      rng.below(2) == 0 ? std::numeric_limits<double>::infinity() : 0.01 + rng.uniform01();
  SimTime t = 0;
  std::vector<double> seen;
  const int bursts = 8 + static_cast<int>(rng.below(40));
  for (int b = 0; b < bursts; ++b) {
    const std::uint64_t r = rng.below(10);
    const int size = r < 6 ? 1 + static_cast<int>(rng.below(8))
                     : r < 9 ? 1 + static_cast<int>(rng.below(48))
                             : 64 + static_cast<int>(rng.below(65));
    for (int i = 0; i < size; ++i) {
      const std::uint64_t u = rng.below(100);
      double units;
      if (u < 5) {
        units = 0;
      } else if (u < 10) {
        units = 1e-6 * rng.uniform01();
      } else if (u < 25 && !seen.empty()) {
        units = seen[rng.below(seen.size())];
      } else if (u < 60) {
        units = static_cast<double>(1 + rng.below(1 << 20));
      } else {
        units = 1e5 * rng.uniform01();
      }
      seen.push_back(units);
      sc.arrivals.push_back(Arrival{t, units});
    }
    const std::uint64_t g = rng.below(4);
    t += g == 0 ? 0 : static_cast<SimTime>(rng.below(g == 1 ? 100 : g == 2 ? 100'000 : 10'000'000));
  }
  return sc;
}

FluidResource::CapacityFn scenario_capacity(const FluidScenario& sc) {
  switch (sc.capacity_kind) {
    case 1:
      return [rate = sc.rate](int n) { return n <= 4 ? rate : rate / (1.0 + 0.02 * (n - 4)); };
    case 2:
      return [](int n) {
        const int on_core = std::min(n, 4);
        double cap = on_core / (1.0 + 0.05 * (on_core - 1));
        if (n > 4) cap /= 1.0 + 0.1 * (n - 4) / (1.0 + (n - 4) / 8.0);
        return cap;
      };
    default:
      return [rate = sc.rate](int) { return rate; };
  }
}

struct Completion {
  int flow;
  SimTime at;
  bool operator==(const Completion&) const = default;
};

struct FluidRun {
  std::vector<Completion> done;
  double served = 0;
  SimTime busy = 0;
  std::uint64_t events = 0;
  int peak_active = 0;
};

template <typename Resource>
Proc<void> arrive(Engine& eng, Resource& r, Arrival a, int flow, FluidRun& out) {
  co_await Delay{eng, a.at};
  out.peak_active = std::max(out.peak_active, r.active() + 1);
  co_await r.consume(a.units);
  out.done.push_back(Completion{flow, eng.now()});
}

template <typename Resource>
FluidRun run_fluid(const FluidScenario& sc) {
  Engine eng;
  FluidRun out;
  // A CPU pool caps each task at one core, as CpuPool does.
  Resource r(eng, scenario_capacity(sc), "r", sc.capacity_kind == 2 ? 1.0 : sc.per_flow_cap);
  for (std::size_t i = 0; i < sc.arrivals.size(); ++i) {
    eng.spawn(arrive(eng, r, sc.arrivals[i], static_cast<int>(i), out));
  }
  eng.run();
  out.served = r.total_served();
  out.busy = r.busy_time();
  out.events = eng.events_processed();
  return out;
}

TEST(FluidModel, RandomStreamsMatchFullScanReference) {
  const std::uint64_t seed = testsupport::test_seed("fluid_model", 0xf1d0ull);
  Rng salt(seed);
  int peak = 0;
  std::size_t ties = 0;
  for (int round = 0; round < 40; ++round) {
    Rng rng(salt.next());
    const FluidScenario sc = random_fluid_scenario(rng);
    const FluidRun want = run_fluid<ScanFluid>(sc);
    const FluidRun got = run_fluid<FluidResource>(sc);
    ASSERT_EQ(want.done.size(), sc.arrivals.size());
    std::ostringstream where;
    where << "round " << round << ", replay: IOFWD_TEST_SEED=0x" << std::hex << seed;
    ASSERT_EQ(got.done.size(), want.done.size()) << where.str();
    for (std::size_t i = 0; i < want.done.size(); ++i) {
      ASSERT_EQ(got.done[i], want.done[i])
          << where.str() << ": completion #" << i << " is flow " << got.done[i].flow << " at "
          << got.done[i].at << ", reference flow " << want.done[i].flow << " at "
          << want.done[i].at;
    }
    EXPECT_EQ(got.served, want.served) << where.str();
    EXPECT_EQ(got.busy, want.busy) << where.str();
    EXPECT_EQ(got.events, want.events) << where.str();
    peak = std::max(peak, got.peak_active);
    for (std::size_t i = 1; i < got.done.size(); ++i) ties += got.done[i].at == got.done[i - 1].at;
  }
  // The streams must reach pset-sized bursts and simultaneous completions.
  EXPECT_GE(peak, 100);
  EXPECT_GT(ties, 0u);
}

}  // namespace
}  // namespace iofwd::sim
