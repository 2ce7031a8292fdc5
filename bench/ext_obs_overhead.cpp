// Extension experiment: observability overhead gate (src/obs/).
//
// The metric registry is always on in the op path — every forwarded op costs
// a handful of sharded counter adds, one histogram record, and one flight-
// recorder entry. DESIGN.md §11 budgets that at <2% of the op. This bench
// measures both sides of the ratio and fails (exit 1) if the budget is
// blown, so CI gates regressions in the instrumentation primitives:
//
//   1. primitive costs — ns per Counter::add, Gauge::set, Histogram::record,
//      FlightRecorder::record, measured over a tight loop, min of reps;
//   2. op cost — per-op wall time of 256 KiB writes driven through the real
//      IonServer + Client (MemBackend, work-queue-async), best of reps;
//   3. share — (per-op instrumentation ns) / (per-op ns), using the op-path
//      mix (3 counters + 2 gauges + 1 histogram + 1 flight record).
//
// Using the best (fastest) op rep makes the gate conservative: the share is
// computed against the cheapest op the machine can produce.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/units.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"

namespace {

using namespace iofwd;

constexpr double kBudgetPct = 2.0;
constexpr std::uint64_t kChunk = 256_KiB;

// Per-op instrumentation mix on the server write path (handle_write +
// observe_op): ops/bytes/filter counters, queue-depth gauge samples, the
// latency histogram, and the flight-recorder entry.
constexpr int kCountersPerOp = 3;
constexpr int kGaugesPerOp = 2;

template <typename F>
double min_ns_per_iter(int reps, int iters, F&& body) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body(i);
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    best = std::min(best, ns / iters);
  }
  return best;
}

double server_ns_per_write(int writes, int reps) {
  double best = 1e18;
  const std::vector<std::byte> chunk(kChunk, std::byte{0x42});
  for (int r = 0; r < reps; ++r) {
    rt::ServerConfig cfg;
    cfg.exec = rt::ExecModel::work_queue_async;
    rt::IonServer server(std::make_unique<rt::MemBackend>(), cfg);
    auto [a, b] = rt::SocketTransport::make_socketpair().value();
    server.serve(std::move(a));
    rt::Client client(std::move(b));
    (void)client.open(1, "bench");
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < writes; ++i) {
      (void)client.write(1, static_cast<std::uint64_t>(i) * kChunk, chunk);
    }
    (void)client.fsync(1);  // barrier: async acks land before the clock stops
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    (void)client.close(1);
    server.stop();
    best = std::min(best, ns / writes);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const int prim_iters = args.quick ? 200000 : 2000000;
  const int writes = args.iters(2000);
  const int reps = args.quick ? 2 : 3;

  obs::MetricRegistry reg;
  obs::Counter& ctr = reg.counter("bench.ctr");
  obs::Gauge& gauge = reg.gauge("bench.gauge");
  obs::Histogram& hist = reg.histogram("bench.hist");
  obs::FlightRecorder fr(256);

  const double ctr_ns = min_ns_per_iter(reps, prim_iters, [&](int) { ctr.inc(); });
  const double gauge_ns =
      min_ns_per_iter(reps, prim_iters, [&](int i) { gauge.set(i); });
  const double hist_ns = min_ns_per_iter(
      reps, prim_iters, [&](int i) { hist.record(static_cast<std::uint64_t>(i) & 0xffff); });
  const double fr_ns = min_ns_per_iter(
      reps, prim_iters / 10, [&](int i) { fr.record("write", i, kChunk, 100, 0); });

  const double op_ns = server_ns_per_write(writes, reps);
  const double inst_ns =
      kCountersPerOp * ctr_ns + kGaugesPerOp * gauge_ns + hist_ns + fr_ns;
  const double share_pct = 100.0 * inst_ns / op_ns;
  const double gib_s = static_cast<double>(kChunk) / op_ns;  // bytes/ns == GiB-ish/s

  analysis::DiagTable t("ext_obs_overhead: registry cost on the 256 KiB write path");
  t.add("Counter::add", ctr_ns, "ns/op, sharded relaxed fetch_add");
  t.add("Gauge::set", gauge_ns, "ns/op");
  t.add("Histogram::record", hist_ns, "ns/op, log2 bucket + sum + max");
  t.add("FlightRecorder::record", fr_ns, "ns/op, mutex + ring push");
  t.add("server write op", op_ns, "ns/op, best of reps, MemBackend");
  t.add("server write throughput", gib_s, "GB/s equivalent");
  t.add("instrumentation / op", inst_ns,
        "ns: 3 counters + 2 gauges + histogram + flight record");
  t.add("overhead share", share_pct, "% of op, budget < 2%");
  std::fputs(t.render().c_str(), stdout);

  if (share_pct >= kBudgetPct) {
    std::fprintf(stderr, "FAIL: observability overhead %.3f%% >= %.1f%% budget\n",
                 share_pct, kBudgetPct);
    return 1;
  }
  std::printf("PASS: observability overhead %.3f%% < %.1f%% budget\n", share_pct, kBudgetPct);
  return 0;
}
