// Ablation: work-queue scheduling policies (paper Sec. IV suggests taking
// "data sizes into account" and "separate queues based on the priority of
// data" — here both are implemented and measured).
//
// Workload (synchronous staging, so queue wait is application-visible):
// 56 CNs stream bulk 1 MiB checkpoints while 8 CNs issue sporadic
// 64 KiB high-priority messages. FIFO makes the small messages wait behind
// bulk chunks; SJF and priority scheduling cut their latency, ideally
// without hurting bulk throughput.
#include "bench_common.hpp"
#include "wl/priority.hpp"

int main(int argc, char** argv) {
  using namespace iofwd;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const auto cfg = bgp::MachineConfig::intrepid();

  wl::PriorityParams p;
  p.bulk_iterations = args.iters(200);
  p.interactive_iterations = args.iters(200);

  analysis::FigureReport rep("abl_sched_policy",
                             "Ablation: queue policy under mixed bulk+interactive load",
                             "policy", "see series");
  const std::pair<rt::SchedPolicy, const char*> rows[] = {
      {rt::SchedPolicy::fifo, "fifo"}, {rt::SchedPolicy::sjf, "sjf"},
      {rt::SchedPolicy::prio, "priority"}};
  for (const auto& [pol, x] : rows) {
    proto::ForwarderConfig fc;
    fc.policy = pol;
    // Two workers instead of four: the pool (not the tree) becomes the
    // bottleneck, so the queue carries a standing backlog — the regime
    // where ordering policy matters.
    fc.workers = 2;
    const auto r = wl::run_priority(proto::Mechanism::zoid_sched, cfg, fc, p);
    rep.add(x, "bulk MiB/s", r.bulk_throughput_mib_s);
    rep.add(x, "interactive p50 us", r.interactive_mean_latency_us);
    rep.add(x, "interactive p99 us", r.interactive_p99_latency_us);
    rep.add(x, "bulk p50 ms", r.bulk_mean_latency_ms);
  }
  analysis::emit(rep);

  const double fifo_p99 = *rep.get("fifo", "interactive p99 us");
  const double prio_p99 = *rep.get("priority", "interactive p99 us");
  std::printf("priority scheduling cuts interactive p99 latency by %.0f%%\n",
              100.0 * (1.0 - prio_p99 / fifo_p99));
  return 0;
}
