// Extension experiment: multi-ION cluster scaling (DESIGN.md §14).
//
// The paper scales one ION against its pset; the cluster subsystem scales
// the ION count itself. This bench holds the client population fixed at 64
// RoutingClients and grows the fleet 1 -> 8 IonServer shards, with every
// shard's backend modeling a device of fixed per-shard service capacity
// (a ~120 µs sleep per backend write over a MemBackend, executed by the
// shard's synchronous work queue). One shard therefore serializes the whole
// population through one device; eight shards serve eight devices in
// parallel — the aggregate must scale with the fleet, not the client count.
//
// Each client opens 8 descriptors (a fixed workload shape, independent of
// the fleet size); rendezvous hashing spreads those descriptors across
// however many shards exist, so the *same* workload rebalances itself as
// the fleet grows — exactly what the RoutingClient promises.
//
// Gate (exit 1): aggregate throughput at 8 shards >= 3x the 1-shard point,
// best-of-reps on both sides. The latency-bound backend keeps the gate
// about service-capacity scaling, not host core count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "cluster/ion_cluster.hpp"
#include "cluster/routing_client.hpp"
#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"

namespace {

using namespace iofwd;

constexpr int kClients = 64;
constexpr int kFdsPerClient = 8;
constexpr std::size_t kWriteBytes = 16_KiB;
constexpr auto kDeviceLatency = std::chrono::microseconds(120);

// A fixed-service-rate device: every write costs kDeviceLatency before the
// MemBackend absorbs it. With a synchronous work queue in front, this is
// the per-shard bottleneck the fleet multiplies.
class SlowBackend final : public rt::IoBackend {
 public:
  Status open(int fd, const std::string& path) override { return mem_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    std::this_thread::sleep_for(kDeviceLatency);
    return mem_.write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return mem_.read(fd, offset, out);
  }
  Status fsync(int fd) override { return mem_.fsync(fd); }
  Status close(int fd) override { return mem_.close(fd); }
  Result<std::uint64_t> size(int fd) override { return mem_.size(fd); }

 private:
  rt::MemBackend mem_;
};

// Aggregate MiB/s: 64 clients, each writing `writes` x 16 KiB round-robin
// across its 8 descriptors, against a `shards`-wide cluster.
double aggregate_mibs(int shards, int writes, int reps) {
  double best = 0.0;
  const std::vector<std::byte> chunk(kWriteBytes, std::byte{0x5a});
  for (int r = 0; r < reps; ++r) {
    cluster::IonClusterConfig ccfg;
    ccfg.shards = shards;
    ccfg.server.exec = rt::ExecModel::work_queue;  // the device is the bottleneck
    ccfg.server.workers = 1;
    ccfg.server.bml_bytes = 64_MiB;
    cluster::IonCluster fleet([](int) { return std::make_unique<SlowBackend>(); }, ccfg);

    std::vector<std::unique_ptr<cluster::RoutingClient>> cs;
    cs.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      std::vector<cluster::RoutingClient::ShardLink> links;
      for (int s = 0; s < shards; ++s) {
        auto [srv, cl] = rt::SocketTransport::make_socketpair().value();
        fleet.serve(s, std::move(srv));
        cluster::RoutingClient::ShardLink link;
        link.stream = std::move(cl);
        links.push_back(std::move(link));
      }
      cs.push_back(std::make_unique<cluster::RoutingClient>(std::move(links)));
      for (int f = 0; f < kFdsPerClient; ++f) {
        const int fd = 1 + c * kFdsPerClient + f;
        if (!cs.back()->open(fd, "clu" + std::to_string(fd)).is_ok()) {
          std::fprintf(stderr, "open failed for client %d fd %d\n", c, fd);
          return 0.0;
        }
      }
    }

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        cluster::RoutingClient& cl = *cs[static_cast<std::size_t>(c)];
        for (int i = 0; i < writes; ++i) {
          const int fd = 1 + c * kFdsPerClient + i % kFdsPerClient;
          (void)cl.write(fd, static_cast<std::uint64_t>(i / kFdsPerClient) * kWriteBytes,
                         chunk);
        }
        // Barrier on every descriptor: async acks land before the clock stops.
        for (int f = 0; f < kFdsPerClient; ++f) {
          (void)cl.fsync(1 + c * kFdsPerClient + f);
        }
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    fleet.stop();
    const double total_mib =
        static_cast<double>(kClients) * writes * static_cast<double>(kWriteBytes) / (1 << 20);
    best = std::max(best, total_mib / secs);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const int reps = args.quick ? 1 : 3;
  // Constant total volume per point; enough writes per client that every
  // shard point spends its time in steady state, not setup.
  const int writes = args.quick ? 24 : 96;

  const int points[] = {1, 2, 4, 8};
  double mibs[std::size(points)] = {};
  analysis::DiagTable t("ext_cluster: aggregate throughput vs ION shard count (64 clients)");
  for (std::size_t i = 0; i < std::size(points); ++i) {
    mibs[i] = aggregate_mibs(points[i], writes, reps);
    t.add(std::to_string(points[i]) + " shards", mibs[i],
          "MiB/s aggregate, " + std::to_string(kClients) + " clients x " +
              std::to_string(writes) + " x " + bench::mib(kWriteBytes) +
              " writes, best of " + std::to_string(reps));
  }

  const double ratio = mibs[0] > 0 ? mibs[3] / mibs[0] : 0.0;
  t.add("8/1 ratio", ratio, "gate: >= 3.0 (the fleet must scale service capacity)");
  std::fputs(t.render().c_str(), stdout);

  if (ratio < 3.0) {
    std::fprintf(stderr, "FAIL: 8-shard throughput is only %.2fx the 1-shard point (< 3x)\n",
                 ratio);
    return 1;
  }
  std::printf("PASS: 8 shards deliver %.2fx the 1-shard aggregate\n", ratio);
  return 0;
}
