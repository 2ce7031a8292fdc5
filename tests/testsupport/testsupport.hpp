// Shared test harness for runtime end-to-end tests (README "Test harness").
//
// Nearly every rt/fault/obs test builds the same little cluster by hand: a
// MemBackend (usually behind a FaultyBackend), an IonServer with a few config
// knobs, one or more in-process clients, and a drain-then-snapshot check at
// the end. TestCluster packages exactly that shape — and nothing more: tests
// that pin unusual wiring (private registries, raw socketpairs) keep building
// by hand.
//
//   testsupport::ClusterOptions o;
//   o.server.exec = rt::ExecModel::work_queue_async;
//   o.clients = 4;
//   testsupport::TestCluster tc(o);
//   tc.client(0).open(1, "f");
//   ...
//   EXPECT_EQ(tc.drain_and_snapshot("f"), expected_bytes);
//
// Sharded deployments (src/cluster/): set options.shards > 0 and the server
// under test becomes an IonCluster of N IonServer shards, every client a
// RoutingClient over N connections — and because client() hands back the
// rt::ForwardingClient interface, the same fault-plan/cut/redial spec runs
// unchanged against one ION or a fleet. shards == 0 keeps the classic
// single-server wiring byte-for-byte.
//
// Seeded tests pull their seed through test_seed(), which honors the
// IOFWD_TEST_SEED environment override and logs the seed in use, so any
// randomized failure reproduces from the line the run printed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ion_cluster.hpp"
#include "cluster/routing_client.hpp"
#include "fault/decorators.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "rt/transport.hpp"

namespace iofwd::testsupport {

// A non-owning IoBackend view. The chaos harness hands each server chain a
// BorrowedBackend over a TestCluster-owned MemBackend, so killing and
// restarting a shard (which destroys and rebuilds its whole backend chain)
// leaves the terminal storage intact — the MemBackend plays the PFS, and
// the PFS survives an ION crash.
class BorrowedBackend final : public rt::IoBackend {
 public:
  explicit BorrowedBackend(rt::IoBackend& inner) : inner_(inner) {}

  Status open(int fd, const std::string& path) override { return inner_.open(fd, path); }
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override {
    return inner_.write(fd, offset, data);
  }
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override {
    return inner_.read(fd, offset, out);
  }
  Status fsync(int fd) override { return inner_.fsync(fd); }
  Status close(int fd) override { return inner_.close(fd); }
  Result<std::uint64_t> size(int fd) override { return inner_.size(fd); }

 private:
  rt::IoBackend& inner_;
};

// Seeded pseudo-random payload bytes (the pattern() helper formerly copied
// into each test file).
std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed);

// The seed a randomized test should run with: `dflt` unless the
// IOFWD_TEST_SEED environment variable overrides it (decimal or 0x hex).
// Logs "<label>: seed 0x..." either way, so every failure report carries
// the seed needed to replay it.
std::uint64_t test_seed(const char* label, std::uint64_t dflt);

// True when net.core.wmem_max lets the transport's 2 MiB SO_SNDBUF request
// through unclamped (the kernel then reports 4 MiB). Tests that pin
// frame-sized AF_UNIX send buffers GTEST_SKIP otherwise.
bool unix_send_buffers_unclamped();

// Shrinks `end`'s send buffer so the kernel reports `bytes` for SO_SNDBUF
// (Linux doubles the request, so this asks for half; it also raises tiny
// values to its floor of about 4.5 KiB). An AF_UNIX sender can have only
// that many bytes in flight, so a server end set to a few KiB makes large
// replies park in the send queue. False if setsockopt(2) fails.
[[nodiscard]] bool set_send_buffer(rt::SocketTransport& end, std::size_t bytes);

// A hand-rolled server on `end` (one side of a socketpair) for tests of a
// client's reply handling: it reads one request, answers with an ok reply
// header for seq + `seq_shift` claiming `claimed` payload bytes, sends
// `sent` of them, then closes. A client that trusted an oversized claim
// would wait for the rest and then fail with shutdown, not protocol_error.
std::jthread claiming_server(std::unique_ptr<rt::SocketTransport> end, std::uint64_t claimed,
                             std::size_t sent, std::uint64_t seq_shift = 0);

struct ClusterOptions {
  rt::ServerConfig server;      // knobs pass through untouched
  rt::ClientConfig client;      // config for the initial clients
  int clients = 1;              // clients dialed in at construction
  // Send buffer of both ends of every dialed socketpair (set_send_buffer);
  // 0 keeps the transport's frame-sized default.
  std::size_t send_buffer_bytes = 0;
  // Sharded mode: > 0 builds an IonCluster of this many IonServer shards
  // (each with `server` as its config template) and every client becomes a
  // RoutingClient over one connection per shard. 0 = the classic single
  // IonServer.
  int shards = 0;
  // Cluster-wide burst-buffer budget (sharded mode only; 0 = no budget).
  std::uint64_t cluster_bb_bytes = 0;
  double cluster_bb_high_watermark = 0.75;
  double cluster_bb_low_watermark = 0.50;
  // Per-shard circuit-breaker tuning applied to every RoutingClient
  // (sharded mode; the breaker is always on — defaults only bite after an
  // inner client exhausts its reconnect budget).
  cluster::HealthConfig breaker;
  // Give the burst buffer a write-ahead journal under a fresh mkdtemp root
  // (removed at destruction). Ignored when server.bb_journal_dir is already
  // set. Required for kill_shard()/restart_shard() to recover acked writes.
  bool bb_journal = false;
  // Wrap the MemBackend in a FaultyBackend driven by this plan (a fresh,
  // empty plan is created when null, so tests can always add rules later
  // through backend_plan()). Sharded mode: one shared plan drives every
  // shard's FaultyBackend.
  std::shared_ptr<fault::FaultPlan> backend_plan;
  // Wrap the backend chain in a RetryingBackend (applied above the faults).
  const fault::RetryPolicy* retry = nullptr;
  // Wrap every dialed client stream in a FaultyStream driven by this plan.
  std::shared_ptr<fault::FaultPlan> stream_plan;
  // Give the initial clients the cluster's redial factory, so transport
  // faults reconnect-and-replay instead of surfacing.
  bool reconnectable = false;
  // Point cfg.tracer at the cluster-owned RuntimeTracer.
  bool with_tracer = false;
};

class TestCluster {
 public:
  explicit TestCluster(ClusterOptions opts = {});
  ~TestCluster();

  // The server under test. Classic mode ignores `i`; sharded mode returns
  // shard i.
  [[nodiscard]] rt::IonServer& server(int i = 0);
  // The sharded deployment, or nullptr in classic mode.
  [[nodiscard]] cluster::IonCluster* ion_cluster() { return cluster_.get(); }
  [[nodiscard]] int shards() const { return cluster_ ? cluster_->shards() : 1; }

  [[nodiscard]] rt::MemBackend& mem(int shard = 0) {
    return *mems_.at(static_cast<std::size_t>(shard));
  }
  [[nodiscard]] fault::FaultPlan& backend_plan() { return *backend_plan_; }
  [[nodiscard]] obs::MetricRegistry& registry() { return registry_; }
  [[nodiscard]] obs::RuntimeTracer& tracer() { return tracer_; }

  // The application-facing client surface: an rt::Client in classic mode, a
  // cluster::RoutingClient in sharded mode. Specs written against this
  // interface run unchanged in both.
  [[nodiscard]] rt::ForwardingClient& client(std::size_t i = 0) { return *clients_.at(i); }
  // The same client downcast to its sharded type (sharded mode only) — for
  // per-shard stats attribution in cluster tests.
  [[nodiscard]] cluster::RoutingClient& routing_client(std::size_t i = 0);
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

  // One more client dialed into the live server, with its own fault wiring.
  struct ClientSpec {
    rt::ClientConfig cfg;
    // Wrap this client's initial stream in a FaultyStream driven by this
    // plan (falls back to the cluster-wide options.stream_plan). Sharded
    // mode: applies to every shard connection unless shard_stream_plans
    // overrides it.
    std::shared_ptr<fault::FaultPlan> stream_plan;
    // Sharded mode: per-shard stream plans (index = shard), so injected
    // faults — and their fired() accounting — attribute to one shard.
    // Shorter than the shard count is fine; missing entries fall back to
    // stream_plan.
    std::vector<std::shared_ptr<fault::FaultPlan>> shard_stream_plans;
    // Kill the initial connection after this many written bytes (the old
    // CuttingStream budget; 0 = no budget).
    std::uint64_t cut_after_write_bytes = 0;
    // Sharded mode: apply the cut budget only to this shard's connection
    // (-1 = every shard connection gets its own budget).
    int cut_shard = -1;
    bool reconnectable = false;
    // Redialed streams normally come up clean (a cut line is repaired by
    // redialing); set this to wrap every redial in stream_plan too — the
    // "whole fabric is flaky" shape of the integrity chaos tests.
    bool faulty_redials = false;
  };
  std::size_t add_client(ClientSpec spec);
  std::size_t add_client(rt::ClientConfig cfg = {}) {
    ClientSpec spec;
    spec.cfg = cfg;
    return add_client(std::move(spec));
  }

  // A StreamFactory dialing fresh connections into this server, each wrapped
  // per the explicit plan given here (NOT the cluster-wide stream_plan: a
  // redial is a fresh physical line). This is what reconnectable clients
  // redial through. Sharded mode: dials into `shard`.
  [[nodiscard]] rt::StreamFactory factory(
      std::shared_ptr<fault::FaultPlan> stream_plan = nullptr, int shard = 0);

  // Process-level chaos (sharded mode only). kill_shard hard-crashes shard
  // i: its connections drop, staged state evaporates, the journal directory
  // survives as the crash image. restart_shard rebuilds it over the SAME
  // MemBackend (the PFS survives the crash) and replays the journal, so
  // every previously acked write is readable again.
  void kill_shard(int i);
  void restart_shard(int i);

  // The journal root in use ("" when bb_journal was off).
  [[nodiscard]] const std::string& journal_dir() const { return journal_root_; }

  // Quiesce the server: joins receiver lanes/threads, drains the task queue
  // and the burst buffer. Idempotent (the destructor calls it too).
  void stop();

  // stop(), then return the terminal backend's bytes for `path` — the
  // standard end-of-test integrity check.
  std::vector<std::byte> drain_and_snapshot(const std::string& path);

  // The live backend's bytes for `path`, without quiescing first. Sharded
  // mode searches every shard's MemBackend (a path lives on exactly the
  // shard its descriptor routed to).
  [[nodiscard]] std::vector<std::byte> snapshot(const std::string& path) const;

 private:
  [[nodiscard]] Result<std::unique_ptr<rt::ByteStream>> dial(
      int shard, const std::shared_ptr<fault::FaultPlan>& stream_plan,
      std::uint64_t cut_after_write_bytes = 0);
  [[nodiscard]] std::unique_ptr<rt::IoBackend> make_backend_chain(int shard);

  ClusterOptions opts_;
  obs::MetricRegistry registry_;
  obs::RuntimeTracer tracer_;
  std::string journal_root_;   // mkdtemp root when bb_journal; removed in dtor
  bool owns_journal_root_ = false;
  // The terminal MemBackends, owned here (not by the chains) so a shard
  // restart rebuilds its chain over the same storage. Declared before the
  // servers, which hold BorrowedBackend views into them.
  std::vector<std::unique_ptr<rt::MemBackend>> owned_mems_;
  std::vector<rt::MemBackend*> mems_;  // flat view for snapshot()
  std::shared_ptr<fault::FaultPlan> backend_plan_;
  std::unique_ptr<rt::IonServer> server_;          // classic mode
  std::unique_ptr<cluster::IonCluster> cluster_;   // sharded mode
  std::vector<std::unique_ptr<rt::ForwardingClient>> clients_;
};

}  // namespace iofwd::testsupport
