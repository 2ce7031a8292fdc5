// Forwarder: the abstract I/O-forwarding mechanism under study, plus the
// data-path building blocks every mechanism composes.
//
// Four concrete mechanisms reproduce the paper's comparison:
//   * CIOD             — process-per-CN proxies, synchronous (Sec. II-B1)
//   * ZOID             — thread-per-CN, synchronous (Sec. II-B2)
//   * ZOID+sched       — shared FIFO work queue + worker pool (Sec. IV)
//   * ZOID+sched+async — the above plus BML-backed async staging (Sec. IV)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <memory>
#include <string>

#include "bgp/machine.hpp"
#include "core/status.hpp"
#include "obs/metrics.hpp"
#include "rt/descriptor_db.hpp"
#include "proto/types.hpp"
#include "rt/scheduler.hpp"
#include "sim/chrome_trace.hpp"
#include "sim/process.hpp"

namespace iofwd::proto {

enum class Mechanism { ciod, zoid, zoid_sched, zoid_sched_async };

[[nodiscard]] std::string to_string(Mechanism m);

struct ForwarderConfig {
  // Worker-pool size for the scheduled mechanisms ("can be controlled via an
  // environment variable during job submission", Sec. IV). The paper finds 4
  // to be the sweet spot on the 4-core ION (Fig. 11).
  int workers = 4;
  // Maximum I/O requests a worker multiplexes through one event-loop pass.
  int multiplex_depth = 8;
  // Balance each worker's batch against the current queue length instead of
  // always grabbing multiplex_depth (the paper's "simple load-balancing
  // heuristic"). Ablation: bench/abl_load_balance.
  bool balanced_batches = true;
  // Work-queue ordering policy (fifo = the paper's design; sjf and prio are
  // the extensions it suggests). The runtime's policies, see
  // proto/sim_task_queue.hpp.
  rt::SchedPolicy policy = rt::SchedPolicy::fifo;
  // BML budget for async staging (env-controlled in the paper).
  std::uint64_t bml_bytes = 512ull << 20;
  std::uint64_t bml_min_class = 4096;
  // Fault hook: invoked at delivery; non-ok statuses exercise the deferred
  // error path. Default: everything succeeds.
  std::function<Status(int cn_id, std::uint64_t bytes)> fault_hook;
  // Record per-operation spans and queue-depth counters into a Chrome-trace
  // (chrome://tracing / Perfetto) log, retrievable via Forwarder::tracer().
  bool trace_ops = false;
  // Shared metric registry for the "fwd.*" namespace (null = the forwarder
  // owns a private one). See DESIGN.md §11.
  obs::MetricRegistry* registry = nullptr;
};

class Forwarder {
 public:
  Forwarder(bgp::Machine& machine, bgp::Pset& pset, RunMetrics& metrics, ForwarderConfig cfg);
  virtual ~Forwarder() = default;
  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  // Forwarded POSIX-like calls, as seen from a compute node. Each returns
  // when the *application* may continue: after full completion for the
  // synchronous mechanisms, after staging for async writes.
  virtual sim::Proc<Status> open(int cn_id, int fd);
  virtual sim::Proc<Status> write(int cn_id, int fd, std::uint64_t bytes, SinkTarget sink) = 0;
  virtual sim::Proc<Status> read(int cn_id, int fd, std::uint64_t bytes, SinkTarget source) = 0;
  virtual sim::Proc<Status> close(int cn_id, int fd);
  // Attribute query; always synchronous (Sec. IV). In the async mechanism
  // it first drains the descriptor's in-flight operations.
  virtual sim::Proc<Status> fstat(int cn_id, int fd);

  // Wait until everything accepted so far has been delivered (needed by the
  // async mechanism before stopping a benchmark clock).
  virtual sim::Proc<void> drain();

  // Stop worker processes (no-op for thread-per-CN mechanisms). The workers
  // exit once the engine runs their wake-ups, so call this and let the
  // engine run dry before destroying a forwarder.
  virtual void shutdown() {}

  [[nodiscard]] rt::DescriptorDb& descriptors() { return db_; }
  [[nodiscard]] const sim::ChromeTracer* tracer() const { return tracer_.get(); }
  // The "fwd.*" metrics (DESIGN.md §11) — owned unless
  // ForwarderConfig::registry was set.
  [[nodiscard]] obs::MetricRegistry& registry() const { return *reg_; }

 protected:
  // --- shared data-path pieces -------------------------------------------
  // Two-step control exchange CN->ION (params, then ready-to-send), plus the
  // handler wake-up on the ION. `wake_cost_ns` differs: thread (ZOID) vs
  // process (CIOD).
  sim::Proc<void> control_exchange(sim::SimTime wake_cost_ns);

  // Payload moving CN->ION over the tree: wire transfer and the handler's
  // per-byte reception/copy cost progress concurrently.
  sim::Proc<void> tree_data_in(std::uint64_t bytes);
  // ION->CN for reads, plus the completion ack for writes.
  sim::Proc<void> tree_data_out(std::uint64_t bytes);
  sim::Proc<void> tree_ack();

  // ION-side CPU cost to push `bytes` into the sink (TCP stack, GPFS client).
  [[nodiscard]] double sink_cpu_cost_ns(const SinkTarget& sink, std::uint64_t bytes) const;

  // The non-CPU remainder of delivery: NIC links, DA node reception,
  // storage service. For reads this models the fetch direction.
  sim::Proc<void> sink_wire(SinkTarget sink, std::uint64_t bytes);

  // Record delivery into the run metrics and apply the fault hook.
  Status deliver(int cn_id, std::uint64_t bytes);

  // Small coroutine adapters (awaitables cannot be passed to when_all
  // directly; these wrap a single resource consumption as a Proc).
  sim::Proc<void> consume_cpu(double cpu_ns);
  sim::Proc<void> da_cpu(bgp::DaNode& da, double cpu_ns);
  sim::Proc<void> cn_inject(std::uint64_t bytes);
  [[nodiscard]] double tree_recv_cost_ns_b() const;

  // Optional per-op span guard (empty when tracing is off).
  [[nodiscard]] std::optional<sim::ChromeTracer::Span> trace_span(const char* name, int tid) {
    if (tracer_) return tracer_->span(name, "op", tid);
    return std::nullopt;
  }

  bgp::Machine& machine_;
  bgp::Pset& pset_;
  RunMetrics& metrics_;
  ForwarderConfig cfg_;
  rt::DescriptorDb db_;
  std::unique_ptr<sim::ChromeTracer> tracer_;

  // Registry-backed metrics ("fwd.*").
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* reg_;  // never null
  obs::Counter& c_ops_enqueued_;
  obs::Counter& c_worker_batches_;
  obs::Counter& c_worker_tasks_;
  obs::Counter& c_memory_blocked_;
  obs::Counter& c_bml_blocked_;
  obs::Gauge& g_max_queue_depth_;

  sim::Engine& eng_;
  const bgp::MachineConfig& mc_;
};

// Factory covering all four mechanisms.
std::unique_ptr<Forwarder> make_forwarder(Mechanism m, bgp::Machine& machine, bgp::Pset& pset,
                                          RunMetrics& metrics, ForwarderConfig cfg = {});

}  // namespace iofwd::proto
