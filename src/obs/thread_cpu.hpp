// CPU time of one thread role (ROADMAP item 13): the receive lanes, the
// workers or the flushers. Each thread of the role holds a RoleCpu::Member
// for its lifetime. total_us() reads every live member's CPU clock
// (pthread_getcpuclockid) and adds what members that already exited used,
// so nothing is sampled per op or per loop pass: a clock read costs a
// syscall, which only the snapshot pays.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <mutex>
#include <vector>

namespace iofwd::obs {

class RoleCpu {
 public:
  // Registers the calling thread with the role until destroyed; on
  // destruction the thread's CPU time so far moves into the exited total.
  class Member {
   public:
    explicit Member(RoleCpu& role);
    ~Member();
    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;

   private:
    RoleCpu& role_;
    pthread_t self_;
  };

  // CPU time, user plus system, of every thread the role has had.
  [[nodiscard]] std::uint64_t total_us() const;

 private:
  mutable std::mutex mu_;
  std::vector<pthread_t> live_;  // a member leaves under mu_ before it exits
  std::uint64_t exited_ns_ = 0;
};

}  // namespace iofwd::obs
