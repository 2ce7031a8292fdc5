// Retry with capped exponential backoff for transient backend failures.
//
// The paper's deferred-error design (Sec. IV) reports asynchronous failures
// on a later operation — but a transient EIO from a congested file system
// should never get that far. RetryingBackend sits between the executing
// layer (server workers, burst-buffer flushers) and the terminal backend
// and retries operations whose error the classifier deems transient, with
// capped exponential backoff, seeded jitter (so a thundering herd of
// workers desynchronizes deterministically), and a per-op attempt budget.
// Permanent errors (bad descriptor, invalid argument) surface immediately.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "rt/backend.hpp"

namespace iofwd::fault {

// Error classifier: transient errors are worth retrying (the same call may
// succeed a moment later); permanent ones never will.
[[nodiscard]] bool is_transient(Errc e);

struct RetryPolicy {
  int max_attempts = 4;  // total tries per op, including the first (1 = no retry)
  std::chrono::microseconds base_backoff{100};
  std::chrono::microseconds max_backoff{20'000};
  double jitter = 0.5;        // backoff scaled by uniform [1-jitter, 1+jitter]
  std::uint64_t seed = 0x5eed;  // jitter rng stream
  // Shared metric registry for the "retry.*" namespace (null = the backend
  // owns a private one). See DESIGN.md §11.
  obs::MetricRegistry* registry = nullptr;
};

class RetryingBackend final : public rt::IoBackend {
 public:
  RetryingBackend(std::unique_ptr<rt::IoBackend> inner, RetryPolicy policy = {});

  Status open(int fd, const std::string& path) override;
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override;
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override;
  Status fsync(int fd) override;
  Status close(int fd) override;
  Result<std::uint64_t> size(int fd) override;

  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }
  [[nodiscard]] rt::IoBackend& inner() { return *inner_; }
  // The "retry.*" counters (attempts, retries, giveups, backoff_ns; DESIGN.md
  // §11) — owned unless RetryPolicy::registry was set.
  [[nodiscard]] obs::MetricRegistry& registry() const { return *reg_; }

 private:
  // Retry loop shared by every op: calls `op` up to max_attempts times,
  // backing off between transient failures.
  template <typename Op>
  auto with_retries(Op&& op) -> decltype(op());

  // Backoff for the attempt that just failed (1-based), jittered.
  [[nodiscard]] std::chrono::nanoseconds backoff_for(int attempt);

  std::unique_ptr<rt::IoBackend> inner_;
  RetryPolicy policy_;

  std::mutex rng_mu_;
  Rng rng_;

  // Registry-backed counters ("retry.*").
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* reg_;  // never null
  obs::Counter& c_attempts_;
  obs::Counter& c_retries_;
  obs::Counter& c_giveups_;
  obs::Counter& c_backoff_ns_;
};

}  // namespace iofwd::fault
