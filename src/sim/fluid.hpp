// Fluid-flow (processor-sharing) resource models.
//
// These are the hardware substitution at the heart of the reproduction (see
// DESIGN.md Sec. 2): network links and CPU pools are modeled as resources
// whose instantaneous capacity is divided equally among the flows active on
// them. When a flow arrives or departs after simulated time has passed,
// every active flow's progress is advanced; then the next completion event is
// recomputed from the least remaining work, which the resource keeps up to
// date as it goes, so a burst of same-instant arrivals costs O(1) each and
// not a scan of the active flows. Within the fluid
// abstraction this is exact, and it is what makes the paper's contention
// phenomena (ION threads fighting over 4 slow cores, a shared tree link)
// emerge from first principles instead of being curve-fitted.
//
// Two concrete resources are built on the shared machinery:
//
//  * Link      — capacity in bytes/ns, optional per-flow rate cap, and a
//                fixed per-byte wire overhead (the tree network's 26 bytes
//                of headers per 256-byte payload, paper Sec. III-A).
//  * CpuPool   — capacity in core-ns/ns. A task consumes "cpu-ns". The
//                aggregate capacity degrades with the number of runnable
//                tasks: a memory/cache-contention factor applies up to the
//                core count, and a context-switch penalty applies beyond it.
//                Process-grade switches (CIOD) cost more than thread-grade
//                switches (ZOID), which the paper credits for ZOID's edge.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace iofwd::sim {

// Generic processor-sharing resource. Units are abstract ("work"); rate is
// work/ns. Flows receive min(fair share, per-flow cap).
class FluidResource {
 public:
  // total_rate(n): aggregate service rate with n active flows (work/ns).
  using CapacityFn = std::function<double(int)>;

  FluidResource(Engine& eng, CapacityFn total_rate, std::string name,
                double per_flow_cap = std::numeric_limits<double>::infinity());
  ~FluidResource();
  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;

  // Awaitable: co_await res.consume(units). Completes when `units` of work
  // have been served to this flow under fair sharing.
  struct Consume {
    FluidResource& r;
    double units;

    bool await_ready() const noexcept { return units <= 0; }
    void await_suspend(std::coroutine_handle<> h) { r.add_flow(units, h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Consume consume(double units) { return Consume{*this, units}; }

  [[nodiscard]] int active() const { return static_cast<int>(flows_.size()); }
  [[nodiscard]] const std::string& name() const { return name_; }

  // Observability: total work served and the integral of busy time.
  [[nodiscard]] double total_served() const { return total_served_; }
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }
  [[nodiscard]] double utilization(SimTime elapsed) const {
    return elapsed > 0 ? static_cast<double>(busy_time_) / static_cast<double>(elapsed) : 0.0;
  }

  // Instantaneous per-flow rate (for tests/diagnostics).
  [[nodiscard]] double current_per_flow_rate() const;

 private:
  struct Flow {
    double remaining;
    std::coroutine_handle<> h;
  };

  void add_flow(double units, std::coroutine_handle<> h);
  void advance();       // integrate progress since last event
  void reschedule();    // plan the next completion event
  void on_timer();      // completion event fired

  Engine& eng_;
  CapacityFn total_rate_;
  std::string name_;
  double per_flow_cap_;

  std::vector<Flow> flows_;
  // Least `remaining` over flows_ (infinity when empty), kept by advance(),
  // add_flow() and on_timer() so reschedule() needs no scan.
  double min_remaining_ = std::numeric_limits<double>::infinity();
  SimTime last_update_ = 0;
  double rate_per_flow_ = 0;  // current service rate per flow
  Engine::EventId timer_ = 0;
  bool timer_armed_ = false;

  double total_served_ = 0;
  SimTime busy_time_ = 0;
};

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------
struct LinkSpec {
  double bandwidth_mib_s = 0;  // payload-agnostic raw capacity
  // Wire overhead: header bytes added per `payload_unit` bytes of payload.
  // The BG/P collective network adds 16 B of forwarding header plus 10 B of
  // hardware header per 256 B payload (paper Sec. III-A).
  double header_bytes_per_unit = 0;
  double payload_unit_bytes = 256;
  // Per-flow rate cap in MiB/s (e.g., a single TCP stream on a given core).
  double per_flow_cap_mib_s = std::numeric_limits<double>::infinity();
  // Fixed one-way propagation latency added to every transfer.
  SimTime latency_ns = 0;
  // Arbitration contention: aggregate capacity degrades once more than
  // `contention_free_flows` flows share the link:
  //   capacity(n) = raw / (1 + contention_per_flow * max(0, n - free)).
  // Models the BG/P tree's packet-arbitration losses with many concurrent
  // senders (the >32-CN degradation of Fig. 4).
  double contention_per_flow = 0.0;
  int contention_free_flows = 0;
};

class Link {
 public:
  Link(Engine& eng, const LinkSpec& spec, std::string name);

  // Transfer `payload_bytes` across the link: propagation latency, then the
  // wire bytes (payload + headers) served under fair sharing.
  Proc<void> transfer(std::uint64_t payload_bytes);

  // Effective peak payload throughput in MiB/s after header overhead.
  [[nodiscard]] double effective_peak_mib_s() const;

  [[nodiscard]] int active() const { return fluid_.active(); }
  [[nodiscard]] double total_payload_bytes() const { return total_payload_; }
  [[nodiscard]] const LinkSpec& spec() const { return spec_; }

 private:
  [[nodiscard]] double wire_bytes(std::uint64_t payload) const;

  Engine& eng_;
  LinkSpec spec_;
  double overhead_factor_;  // wire bytes per payload byte
  FluidResource fluid_;
  double total_payload_ = 0;
};

// ---------------------------------------------------------------------------
// CpuPool
// ---------------------------------------------------------------------------
struct CpuSpec {
  int cores = 4;
  // Cache/memory contention: fractional slowdown per additional concurrently
  // running task (up to `cores`). 0 = perfect scaling.
  double share_penalty = 0.0;
  // Scheduling overhead once runnable tasks exceed cores: fractional
  // capacity loss per excess task. Thread switches are cheap; process
  // switches (CIOD) are several times dearer.
  double switch_penalty = 0.0;
  // The overhead saturates: each quantum pays roughly one context switch no
  // matter how long the run queue is, so the loss approaches
  // switch_penalty * switch_saturation asymptotically rather than growing
  // without bound.
  double switch_saturation = 8.0;
};

class CpuPool {
 public:
  CpuPool(Engine& eng, const CpuSpec& spec, std::string name);

  // Awaitable: charge `cpu_ns` nanoseconds of single-core work.
  [[nodiscard]] FluidResource::Consume consume(double cpu_ns) { return fluid_.consume(cpu_ns); }

  // Aggregate effective capacity (in cores) with n runnable tasks. Exposed
  // for tests and for the calibration notes in EXPERIMENTS.md.
  [[nodiscard]] double effective_cores(int runnable) const;

  [[nodiscard]] int active() const { return fluid_.active(); }
  [[nodiscard]] const CpuSpec& spec() const { return spec_; }
  [[nodiscard]] double total_cpu_ns() const { return fluid_.total_served(); }

 private:
  CpuSpec spec_;
  FluidResource fluid_;
};

}  // namespace iofwd::sim
