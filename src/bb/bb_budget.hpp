// ClusterBbBudget: cluster-wide burst-buffer capacity accounting.
//
// Each shard's BurstBufferBackend admits a write only after reserving the
// bytes here (try_stage), and releases them whenever an extent leaves its
// cache (unstage) — flush, eviction, write-through consolidation, or close.
// The aggregate staged byte count therefore never exceeds the global
// capacity, no matter how skewed the per-shard load is. This is the shared
// burst-buffer contention model of Kopanski & Rzadca made concrete: local
// per-shard watermarks still drive each shard's flusher hysteresis, but the
// *cluster* watermarks are ORed in, so a hot shard's pressure wakes the
// whole fleet's flushers via the pressure-poke subscription.
//
// It lives in bb/ because the burst buffer is its only consumer: each
// shard's cache holds a pointer to it, and the cluster layer (which owns one
// per fleet) sits above bb in the library graph.
//
// Thread-safety: stage/unstage are lock-free atomics on the hot path; the
// subscriber list takes a small mutex only on subscribe/unsubscribe and on
// the (rare) high-watermark crossing that fires the pokes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace iofwd::bb {

class ClusterBbBudget {
 public:
  // `capacity` bytes shared by every shard; high/low are fractions of it
  // (same convention as the per-shard BurstBufferConfig watermarks).
  explicit ClusterBbBudget(std::uint64_t capacity, double high_watermark = 0.75,
                           double low_watermark = 0.5)
      : capacity_(capacity),
        high_bytes_(static_cast<std::uint64_t>(static_cast<double>(capacity) * high_watermark)),
        low_bytes_(static_cast<std::uint64_t>(static_cast<double>(capacity) * low_watermark)) {}

  ClusterBbBudget(const ClusterBbBudget&) = delete;
  ClusterBbBudget& operator=(const ClusterBbBudget&) = delete;

  // Reserve `n` bytes of cluster capacity. Fails (and counts a denial)
  // when the reservation would push aggregate staged bytes past capacity.
  [[nodiscard]] bool try_stage(std::uint64_t n) {
    std::uint64_t cur = staged_.load(std::memory_order_relaxed);
    for (;;) {
      if (cur + n > capacity_) {
        denials_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (staged_.compare_exchange_weak(cur, cur + n, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        break;
      }
    }
    const std::uint64_t now = cur + n;
    // Track the high-water mark of aggregate staging (monotone; raced CAS
    // losers just retry with a larger candidate).
    std::uint64_t hw = staged_high_water_.load(std::memory_order_relaxed);
    while (now > hw &&
           !staged_high_water_.compare_exchange_weak(hw, now, std::memory_order_relaxed)) {
    }
    // Crossing the global high watermark turns every shard's flusher on.
    if (cur < high_bytes_ && now >= high_bytes_) poke_all();
    return true;
  }

  // Release `n` previously staged bytes. Clamped against the current
  // reservation: a release racing a crash-discard's bulk release (or any
  // accounting bug upstream) must not wrap the counter to ~2^64, which would
  // silently disable admission control fleet-wide. Excess bytes are dropped
  // and counted in over_releases() instead.
  void unstage(std::uint64_t n) {
    std::uint64_t cur = staged_.load(std::memory_order_relaxed);
    std::uint64_t take;
    do {
      take = cur < n ? cur : n;
    } while (!staged_.compare_exchange_weak(cur, cur - take, std::memory_order_acq_rel,
                                            std::memory_order_relaxed));
    if (take < n) over_releases_.fetch_add(1, std::memory_order_relaxed);
    if (take == 0) return;
    const std::uint64_t prev = cur;
    // Dropping below low turns the hysteresis back off; waking waiters once
    // more lets stalled writers past the (now clear) global gate.
    if (prev >= low_bytes_ && prev - take < low_bytes_) poke_all();
  }

  // Hysteresis terms a shard ORs into its own over_high()/over_low():
  // the fleet flushes while the *aggregate* is hot, even on cold shards.
  [[nodiscard]] bool over_high() const {
    return staged_.load(std::memory_order_acquire) >= high_bytes_;
  }
  [[nodiscard]] bool over_low() const {
    return staged_.load(std::memory_order_acquire) >= low_bytes_;
  }

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t staged_bytes() const {
    return staged_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t staged_high_water() const {
    return staged_high_water_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t denials() const {
    return denials_.load(std::memory_order_relaxed);
  }
  // Releases (partially) dropped by the clamp above — nonzero means some
  // caller double-released or released after a crash-discard already
  // returned its bytes.
  [[nodiscard]] std::uint64_t over_releases() const {
    return over_releases_.load(std::memory_order_relaxed);
  }

  // Register a pressure poke (a shard's "notify my flushers" hook).
  // Returns a token for unsubscribe(); shards unsubscribe before teardown.
  std::uint64_t subscribe(std::function<void()> poke) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint64_t token = next_token_++;
    subs_.emplace_back(token, std::move(poke));
    return token;
  }

  void unsubscribe(std::uint64_t token) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = subs_.begin(); it != subs_.end(); ++it) {
      if (it->first == token) {
        subs_.erase(it);
        return;
      }
    }
  }

 private:
  void poke_all() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [token, poke] : subs_) poke();
  }

  const std::uint64_t capacity_;
  const std::uint64_t high_bytes_;
  const std::uint64_t low_bytes_;
  std::atomic<std::uint64_t> staged_{0};
  std::atomic<std::uint64_t> staged_high_water_{0};
  std::atomic<std::uint64_t> denials_{0};
  std::atomic<std::uint64_t> over_releases_{0};

  std::mutex mu_;
  std::uint64_t next_token_ = 1;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> subs_;
};

}  // namespace iofwd::bb
