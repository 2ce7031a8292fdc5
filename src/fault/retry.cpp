#include "fault/retry.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

namespace iofwd::fault {

bool is_transient(Errc e) {
  switch (e) {
    case Errc::io_error:       // congested/ flaky storage: worth another try
    case Errc::timed_out:      // deadline pressure may clear
    case Errc::would_block:    // resource momentarily unavailable
    case Errc::checksum_error: // bits flipped in flight: a resend is fresh bits
      return true;
    case Errc::ok:
    case Errc::bad_descriptor:
    case Errc::invalid_argument:
    case Errc::no_memory:
    case Errc::not_connected:
    case Errc::message_too_large:
    case Errc::protocol_error:
    case Errc::shutdown:
    case Errc::deferred_io_error:
    case Errc::unsupported:
    case Errc::internal:
      return false;
  }
  return false;
}

RetryingBackend::RetryingBackend(std::unique_ptr<rt::IoBackend> inner, RetryPolicy policy)
    : inner_(std::move(inner)),
      policy_(policy),
      rng_(policy.seed),
      owned_registry_(policy.registry != nullptr ? nullptr
                                                 : std::make_unique<obs::MetricRegistry>()),
      reg_(policy.registry != nullptr ? policy.registry : owned_registry_.get()),
      c_attempts_(reg_->counter("retry.attempts")),
      c_retries_(reg_->counter("retry.retries")),
      c_giveups_(reg_->counter("retry.giveups")),
      c_backoff_ns_(reg_->counter("retry.backoff_ns")) {
  assert(inner_ && "RetryingBackend needs an inner backend");
  policy_.max_attempts = std::max(1, policy_.max_attempts);
  policy_.jitter = std::clamp(policy_.jitter, 0.0, 1.0);
}

std::chrono::nanoseconds RetryingBackend::backoff_for(int attempt) {
  auto backoff = std::chrono::duration_cast<std::chrono::microseconds>(
      policy_.base_backoff * (1ll << std::min(attempt - 1, 20)));
  backoff = std::min(backoff, policy_.max_backoff);
  double scale = 1.0;
  if (policy_.jitter > 0.0) {
    std::scoped_lock lock(rng_mu_);
    scale = 1.0 - policy_.jitter + 2.0 * policy_.jitter * rng_.uniform01();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::micro>(
          static_cast<double>(backoff.count()) * scale));
}

template <typename Op>
auto RetryingBackend::with_retries(Op&& op) -> decltype(op()) {
  for (int attempt = 1;; ++attempt) {
    c_attempts_.inc();
    auto r = op();
    const Errc code = r.is_ok() ? Errc::ok : r.status().code();
    if (code == Errc::ok || !is_transient(code)) return r;
    if (attempt >= policy_.max_attempts) {
      c_giveups_.inc();
      return r;
    }
    const auto delay = backoff_for(attempt);
    std::this_thread::sleep_for(delay);
    c_backoff_ns_.add(static_cast<std::uint64_t>(delay.count()));
    c_retries_.inc();
  }
}

namespace {
// Adapter so with_retries can treat Status like Result (status()/is_ok()).
struct StatusLike {
  Status st;
  [[nodiscard]] bool is_ok() const { return st.is_ok(); }
  [[nodiscard]] Status status() const { return st; }
};
}  // namespace

Status RetryingBackend::open(int fd, const std::string& path) {
  return with_retries([&] { return StatusLike{inner_->open(fd, path)}; }).st;
}

Result<std::uint64_t> RetryingBackend::write(int fd, std::uint64_t offset,
                                             std::span<const std::byte> data) {
  return with_retries([&] { return inner_->write(fd, offset, data); });
}

Result<std::uint64_t> RetryingBackend::read(int fd, std::uint64_t offset,
                                            std::span<std::byte> out) {
  return with_retries([&] { return inner_->read(fd, offset, out); });
}

Status RetryingBackend::fsync(int fd) {
  return with_retries([&] { return StatusLike{inner_->fsync(fd)}; }).st;
}

Status RetryingBackend::close(int fd) {
  return with_retries([&] { return StatusLike{inner_->close(fd)}; }).st;
}

Result<std::uint64_t> RetryingBackend::size(int fd) {
  return with_retries([&] { return inner_->size(fd); });
}

}  // namespace iofwd::fault
