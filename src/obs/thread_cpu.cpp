#include "obs/thread_cpu.hpp"

#include <time.h>

#include <algorithm>

namespace iofwd::obs {

namespace {
std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

RoleCpu::Member::Member(RoleCpu& role) : role_(role), self_(::pthread_self()) {
  std::scoped_lock lk(role_.mu_);
  role_.live_.push_back(self_);
}

RoleCpu::Member::~Member() {
  const std::uint64_t used = clock_ns(CLOCK_THREAD_CPUTIME_ID);
  std::scoped_lock lk(role_.mu_);
  role_.exited_ns_ += used;
  role_.live_.erase(std::find(role_.live_.begin(), role_.live_.end(), self_));
}

std::uint64_t RoleCpu::total_us() const {
  std::scoped_lock lk(mu_);
  std::uint64_t ns = exited_ns_;
  for (const pthread_t t : live_) {
    clockid_t id{};
    if (::pthread_getcpuclockid(t, &id) == 0) ns += clock_ns(id);
  }
  return ns / 1000;
}

}  // namespace iofwd::obs
