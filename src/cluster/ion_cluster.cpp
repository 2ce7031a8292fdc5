#include "cluster/ion_cluster.hpp"

#include <cassert>
#include <string>
#include <utility>

namespace iofwd::cluster {

IonCluster::IonCluster(BackendFactory make_backend, IonClusterConfig cfg)
    : cfg_(std::move(cfg)), make_backend_(std::move(make_backend)), map_(cfg_.shards) {
  assert(make_backend_ && "IonCluster needs a backend factory");
  if (cfg_.cluster_bb_bytes > 0) {
    budget_ = std::make_unique<bb::ClusterBbBudget>(
        cfg_.cluster_bb_bytes, cfg_.cluster_bb_high_watermark, cfg_.cluster_bb_low_watermark);
  }
  const int n = map_.shards();
  registries_.reserve(static_cast<std::size_t>(n));
  servers_.reserve(static_cast<std::size_t>(n));
  states_.assign(static_cast<std::size_t>(n), HealthState::healthy);
  for (int i = 0; i < n; ++i) {
    registries_.push_back(std::make_unique<obs::MetricRegistry>());
    servers_.push_back(std::make_unique<rt::IonServer>(make_backend_(i), shard_server_config(i)));
  }
}

IonCluster::~IonCluster() { stop(); }

rt::ServerConfig IonCluster::shard_server_config(int i) {
  rt::ServerConfig scfg = cfg_.server;
  scfg.registry = registries_.at(static_cast<std::size_t>(i)).get();
  scfg.bb_cluster_budget = budget_.get();
  if (!cfg_.server.bb_journal_dir.empty()) {
    // Per-shard crash images: shard i journals under <root>/shard<i>, so a
    // restart replays exactly its own acked extents and never a sibling's.
    scfg.bb_journal_dir = cfg_.server.bb_journal_dir + "/shard" + std::to_string(i);
  }
  return scfg;
}

void IonCluster::serve(int shard_idx, std::unique_ptr<rt::ByteStream> stream) {
  shard(shard_idx).serve(std::move(stream));
}

void IonCluster::serve_listener(int shard_idx, std::unique_ptr<rt::Listener> listener) {
  shard(shard_idx).serve_listener(std::move(listener));
}

void IonCluster::drain_shard(int i) { shard(i).drain(); }

void IonCluster::kill_shard(int i) {
  // Crash semantics: connections drop and staged state evaporates without a
  // drain; the journal directory on disk is the only survivor. The global
  // budget is released inside crash_discard(), so siblings regain headroom
  // immediately.
  shard(i).crash_stop();
  std::scoped_lock lk(health_mu_);
  states_.at(static_cast<std::size_t>(i)) = HealthState::down;
  ++kills_;
}

void IonCluster::restart_shard(int i) {
  const auto k = static_cast<std::size_t>(i);
  // Destroy the old server BEFORE replacing its registry: the server (and
  // its burst buffer) hold Counter/Gauge references into the registry, so
  // the registry must outlive it.
  servers_.at(k).reset();
  registries_.at(k) = std::make_unique<obs::MetricRegistry>();
  // The fresh server's burst buffer replays the shard's journal during
  // construction — every extent acked before the crash is re-staged (or
  // written through) before the shard can see traffic.
  servers_.at(k) = std::make_unique<rt::IonServer>(make_backend_(i), shard_server_config(i));
  // Routers comparing epochs see the generation move even though the
  // key->shard function is unchanged.
  map_.bump_epoch();
  std::scoped_lock lk(health_mu_);
  states_.at(k) = HealthState::healthy;
  ++restarts_;
}

HealthState IonCluster::shard_state(int i) const {
  std::scoped_lock lk(health_mu_);
  return states_.at(static_cast<std::size_t>(i));
}

void IonCluster::stop() {
  // Servers stop in shard order; each stop() drains its own burst buffer, so
  // the shared budget is fully unstaged once the loop completes. A crashed
  // shard's stop() is a no-op (stopping_ already set).
  for (auto& s : servers_) s->stop();
}

obs::Snapshot IonCluster::metrics() const {
  obs::Snapshot out;
  for (int i = 0; i < shards(); ++i) {
    obs::merge_prefixed(out, shard(i).metrics(),
                        "cluster.shard." + std::to_string(i) + ".");
  }
  out.gauges["cluster.shards"] = shards();
  out.gauges["cluster.epoch"] = static_cast<std::int64_t>(map_.epoch());
  if (budget_) {
    out.gauges["cluster.bb.capacity"] = static_cast<std::int64_t>(budget_->capacity());
    out.gauges["cluster.bb.staged_bytes"] = static_cast<std::int64_t>(budget_->staged_bytes());
    out.gauges["cluster.bb.staged_high_watermark"] =
        static_cast<std::int64_t>(budget_->staged_high_water());
    out.counters["cluster.bb.denials"] = budget_->denials();
    out.counters["cluster.bb.over_releases"] = budget_->over_releases();
  }
  {
    std::scoped_lock lk(health_mu_);
    for (int i = 0; i < shards(); ++i) {
      out.gauges["cluster.health.shard." + std::to_string(i)] =
          static_cast<std::int64_t>(states_.at(static_cast<std::size_t>(i)));
    }
    out.counters["cluster.health.kills"] = kills_;
    out.counters["cluster.health.restarts"] = restarts_;
  }
  return out;
}

}  // namespace iofwd::cluster
