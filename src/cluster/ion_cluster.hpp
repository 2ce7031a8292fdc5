// IonCluster: a fleet of IonServer shards managed as one unit.
//
// The paper scales one ION serving a pset of compute nodes; production scale
// (ROADMAP open item 2) means many IONs with the descriptor space
// partitioned across them. IonCluster owns N shards — each a full IonServer
// with its own backend, burst buffer, worker pool, and epoll receiver lanes
// — plus the two pieces of genuinely shared state:
//
//   * the ShardMap every router agrees on (descriptor id -> shard), and
//   * the ClusterBbBudget, so aggregate staged bytes across every shard's
//     burst buffer respect one global watermark (DESIGN.md §14).
//
// Crash survival (DESIGN.md §16): kill_shard(i) hard-stops one shard the way
// a SIGKILL would — in-memory staged state is discarded, connections drop,
// nothing is drained — while its journal directory survives as the crash
// image. restart_shard(i) rebuilds that shard from scratch; the fresh
// IonServer's burst buffer replays the journal before accepting traffic, so
// every write acked before the kill is readable after the restart. Each
// shard's journal lives in its own subdirectory of the configured root
// (bb_journal_dir/shard<i>), so crash images never cross shards.
//
// Observability: each shard runs against a cluster-owned private registry
// (metric names like "server.ops" are fixed, so shards cannot share one),
// and metrics() merges the per-shard snapshots under
// "cluster.shard.<i>.*" plus cluster-level "cluster.*" values.
//
// Lifecycle: shards start at construction, stop() quiesces the whole fleet;
// drain_shard(i) quiesces one shard (acked writes + burst buffer) while its
// siblings keep serving — the building block for rolling maintenance.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "bb/bb_budget.hpp"
#include "cluster/health.hpp"
#include "cluster/shard_map.hpp"
#include "obs/metrics.hpp"
#include "rt/server.hpp"
#include "rt/transport.hpp"

namespace iofwd::cluster {

struct IonClusterConfig {
  int shards = 1;  // clamped to >= 1
  // Template applied to every shard. Per-shard fields the cluster overrides:
  // `registry` (cluster-owned private registry per shard),
  // `bb_cluster_budget` (pointed at the shared budget when enabled), and
  // `bb_journal_dir` (suffixed with "/shard<i>" so crash images stay
  // per-shard).
  rt::ServerConfig server;
  // Global staging budget across every shard's burst buffer. 0 disables the
  // budget (shards enforce only their local watermarks).
  std::uint64_t cluster_bb_bytes = 0;
  double cluster_bb_high_watermark = 0.75;
  double cluster_bb_low_watermark = 0.50;
};

class IonCluster {
 public:
  // Builds the backend for shard i. Called once per shard at construction,
  // in order — and again by restart_shard(i), so a factory that wants
  // crash-survivable *backend* state (e.g. tests' path-keyed MemBackend)
  // must return a view over storage it keeps outside the server.
  using BackendFactory = std::function<std::unique_ptr<rt::IoBackend>(int shard)>;

  IonCluster(BackendFactory make_backend, IonClusterConfig cfg);
  ~IonCluster();  // stop()
  IonCluster(const IonCluster&) = delete;
  IonCluster& operator=(const IonCluster&) = delete;

  [[nodiscard]] int shards() const { return static_cast<int>(servers_.size()); }
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  [[nodiscard]] rt::IonServer& shard(int i) { return *servers_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const rt::IonServer& shard(int i) const {
    return *servers_.at(static_cast<std::size_t>(i));
  }
  // The shared staging accountant, or nullptr when cluster_bb_bytes == 0.
  [[nodiscard]] bb::ClusterBbBudget* budget() { return budget_.get(); }

  // Hand a connected stream / listener to one shard.
  void serve(int shard_idx, std::unique_ptr<rt::ByteStream> stream);
  void serve_listener(int shard_idx, std::unique_ptr<rt::Listener> listener);

  // Quiesce shard i — its acked writes execute and its burst buffer flushes —
  // while every other shard keeps serving. Connections to shard i stay open.
  void drain_shard(int i);

  // Crash shard i: connections drop, staged state is discarded, the global
  // budget is released, the journal directory is left as the crash image.
  // The shard stays down (ops routed at it fail) until restart_shard(i).
  void kill_shard(int i);

  // Rebuild shard i from its backend factory and journal: the old server is
  // destroyed, a fresh one constructed in its place (its burst buffer
  // replays the journal during construction), the map epoch is bumped so
  // routers notice the generation change. Safe after kill_shard(i) or on a
  // cleanly stopped shard.
  void restart_shard(int i);

  // The cluster's view of shard i's health (driven by kill/restart, not by
  // traffic — RoutingClient's breakers track the client side independently).
  [[nodiscard]] HealthState shard_state(int i) const;

  // Stop the whole fleet (drain + join every shard). Idempotent.
  void stop();

  // Merged point-in-time view: every shard's registry under
  // "cluster.shard.<i>.*" plus cluster-level gauges/counters —
  //   cluster.shards, cluster.epoch,
  //   cluster.bb.capacity, cluster.bb.staged_bytes,
  //   cluster.bb.staged_high_watermark, cluster.bb.denials,
  //   cluster.health.shard.<i> (HealthState as integer),
  //   cluster.health.kills, cluster.health.restarts.
  [[nodiscard]] obs::Snapshot metrics() const;

 private:
  // The per-shard ServerConfig: template + registry + shared budget + the
  // shard's private journal subdirectory.
  [[nodiscard]] rt::ServerConfig shard_server_config(int i);

  IonClusterConfig cfg_;
  BackendFactory make_backend_;  // kept for restart_shard()
  ShardMap map_;
  std::unique_ptr<bb::ClusterBbBudget> budget_;
  std::vector<std::unique_ptr<obs::MetricRegistry>> registries_;
  std::vector<std::unique_ptr<rt::IonServer>> servers_;

  mutable std::mutex health_mu_;
  std::vector<HealthState> states_;  // per shard; healthy | down only
  std::uint64_t kills_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace iofwd::cluster
