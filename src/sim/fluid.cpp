#include "sim/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/units.hpp"
#include "sim/sync.hpp"

namespace iofwd::sim {

namespace {
// Work below this threshold counts as complete (absorbs rounding residue
// from integer event times).
constexpr double kEpsilonUnits = 1e-6;
}  // namespace

FluidResource::FluidResource(Engine& eng, CapacityFn total_rate, std::string name,
                             double per_flow_cap)
    : eng_(eng),
      total_rate_(std::move(total_rate)),
      name_(std::move(name)),
      per_flow_cap_(per_flow_cap) {}

FluidResource::~FluidResource() {
  if (timer_armed_) eng_.cancel(timer_);
}

double FluidResource::current_per_flow_rate() const { return rate_per_flow_; }

void FluidResource::add_flow(double units, std::coroutine_handle<> h) {
  advance();
  flows_.push_back(Flow{units, h});
  min_remaining_ = std::min(min_remaining_, units);
  reschedule();
}

void FluidResource::advance() {
  const SimTime now = eng_.now();
  const SimTime dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0 || flows_.empty()) return;

  const double served_per_flow = rate_per_flow_ * static_cast<double>(dt);
  double min_rem = std::numeric_limits<double>::infinity();
  for (auto& f : flows_) {
    const double s = std::min(f.remaining, served_per_flow);
    f.remaining -= s;
    total_served_ += s;
    min_rem = std::min(min_rem, f.remaining);
  }
  min_remaining_ = min_rem;
  busy_time_ += dt;
}

void FluidResource::reschedule() {
  if (flows_.empty()) {
    if (timer_armed_) {
      eng_.cancel(timer_);
      timer_armed_ = false;
    }
    rate_per_flow_ = 0;
    return;
  }

  const int n = static_cast<int>(flows_.size());
  const double total = total_rate_(n);
  assert(total > 0 && "fluid resource capacity must be positive while flows are active");
  rate_per_flow_ = std::min(total / n, per_flow_cap_);

  // Ceil so no completion fires early; the epsilon sweep in on_timer()
  // absorbs the sub-nanosecond residue.
  const double dt = std::max(0.0, min_remaining_ - kEpsilonUnits) / rate_per_flow_;
  const SimTime at = eng_.now() + static_cast<SimTime>(std::ceil(dt));
  // An armed timer moves in place: no new callback, and the same id that
  // cancel + schedule would give.
  timer_ = timer_armed_ ? eng_.retime(timer_, at) : eng_.schedule_at(at, [this] { on_timer(); });
  timer_armed_ = true;
}

void FluidResource::on_timer() {
  timer_armed_ = false;
  advance();

  // Complete every flow whose remaining work is (numerically) zero, in
  // arrival order, and keep the survivors in arrival order.
  std::size_t kept = 0;
  double min_rem = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    if (f.remaining <= kEpsilonUnits) {
      total_served_ += f.remaining;  // account the residue
      eng_.schedule_resume_after(0, f.h);
    } else {
      flows_[kept++] = f;
      min_rem = std::min(min_rem, f.remaining);
    }
  }
  assert(kept < flows_.size() && "completion timer fired with no completed flow");
  flows_.resize(kept);
  min_remaining_ = min_rem;
  reschedule();
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

Link::Link(Engine& eng, const LinkSpec& spec, std::string name)
    : eng_(eng),
      spec_(spec),
      overhead_factor_(1.0 + (spec.payload_unit_bytes > 0
                                  ? spec.header_bytes_per_unit / spec.payload_unit_bytes
                                  : 0.0)),
      fluid_(
          eng,
          [rate = mib_per_s_to_bytes_per_ns(spec.bandwidth_mib_s), k = spec.contention_per_flow,
           free = spec.contention_free_flows](int n) {
            if (k <= 0 || n <= free) return rate;
            return rate / (1.0 + k * static_cast<double>(n - free));
          },
          std::move(name), mib_per_s_to_bytes_per_ns(spec.per_flow_cap_mib_s)) {}

double Link::wire_bytes(std::uint64_t payload) const {
  return static_cast<double>(payload) * overhead_factor_;
}

double Link::effective_peak_mib_s() const {
  return spec_.bandwidth_mib_s / overhead_factor_;
}

Proc<void> Link::transfer(std::uint64_t payload_bytes) {
  if (spec_.latency_ns > 0) co_await Delay{eng_, spec_.latency_ns};
  if (payload_bytes > 0) {
    total_payload_ += static_cast<double>(payload_bytes);
    co_await fluid_.consume(wire_bytes(payload_bytes));
  }
}

// ---------------------------------------------------------------------------
// CpuPool
// ---------------------------------------------------------------------------

CpuPool::CpuPool(Engine& eng, const CpuSpec& spec, std::string name)
    : spec_(spec),
      // The capacity callback captures `this`, which is safe: FluidResource
      // is non-copyable and non-movable, so CpuPool is pinned too, and
      // effective_cores() only reads spec_, initialized before fluid_.
      // Per-flow cap of 1.0: a single task cannot use more than one core.
      fluid_(
          eng, [this](int n) { return effective_cores(n); }, std::move(name),
          /*per_flow_cap=*/1.0) {}

double CpuPool::effective_cores(int runnable) const {
  if (runnable <= 0) return 0;
  const int on_core = std::min(runnable, spec_.cores);
  // Cache/memory-bus contention among co-running tasks.
  double cap = static_cast<double>(on_core) /
               (1.0 + spec_.share_penalty * static_cast<double>(on_core - 1));
  // Scheduling overhead once runnable > cores (saturating).
  if (runnable > spec_.cores) {
    const double excess = static_cast<double>(runnable - spec_.cores);
    const double sat = spec_.switch_saturation > 0 ? excess / spec_.switch_saturation : 0.0;
    cap /= 1.0 + spec_.switch_penalty * excess / (1.0 + sat);
  }
  return cap;
}

}  // namespace iofwd::sim
