#include "wl/priority.hpp"

#include <gtest/gtest.h>

namespace iofwd::wl {
namespace {

PriorityParams quick() {
  PriorityParams p;
  p.bulk_iterations = 30;
  p.interactive_iterations = 30;
  return p;
}

TEST(PriorityWorkload, ProducesMetrics) {
  const auto r = run_priority(proto::Mechanism::zoid_sched, bgp::MachineConfig::intrepid(), {},
                              quick());
  EXPECT_GT(r.bulk_throughput_mib_s, 0);
  EXPECT_GT(r.interactive_mean_latency_us, 0);
  EXPECT_GE(r.interactive_p99_latency_us, r.interactive_mean_latency_us);
  EXPECT_GT(r.bulk_mean_latency_ms, 0);
}

TEST(PriorityWorkload, PrioritySchedulingCutsInteractiveLatency) {
  // The headline of the paper's suggested extension: under a constrained
  // worker pool, priority scheduling protects small operations.
  const auto cfg = bgp::MachineConfig::intrepid();
  proto::ForwarderConfig fifo;
  fifo.workers = 2;
  fifo.policy = rt::SchedPolicy::fifo;
  proto::ForwarderConfig prio = fifo;
  prio.policy = rt::SchedPolicy::prio;

  const auto r_fifo = run_priority(proto::Mechanism::zoid_sched, cfg, fifo, quick());
  const auto r_prio = run_priority(proto::Mechanism::zoid_sched, cfg, prio, quick());
  EXPECT_LT(r_prio.interactive_p99_latency_us, 0.5 * r_fifo.interactive_p99_latency_us);
  // Bulk throughput is not materially harmed.
  EXPECT_GT(r_prio.bulk_throughput_mib_s, 0.9 * r_fifo.bulk_throughput_mib_s);
}

TEST(PriorityWorkload, SjfAlsoHelpsSmallOps) {
  const auto cfg = bgp::MachineConfig::intrepid();
  proto::ForwarderConfig fifo;
  fifo.workers = 2;
  proto::ForwarderConfig sjf = fifo;
  sjf.policy = rt::SchedPolicy::sjf;
  const auto r_fifo = run_priority(proto::Mechanism::zoid_sched, cfg, fifo, quick());
  const auto r_sjf = run_priority(proto::Mechanism::zoid_sched, cfg, sjf, quick());
  EXPECT_LT(r_sjf.interactive_p99_latency_us, r_fifo.interactive_p99_latency_us);
}

}  // namespace
}  // namespace iofwd::wl
