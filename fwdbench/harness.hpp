// Shared plumbing for the forwarding benchmark: run options, sample
// distributions, failure accounting, the metric report, deterministic
// payload patterns, the scratch directory, the in-memory span store and the
// timing decorators that traced runs wrap around the runtime's public
// ByteStream and IoBackend interfaces.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/metrics.hpp"
#include "rt/backend.hpp"
#include "rt/transport.hpp"

namespace fwdbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double usecs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test fault injection: "flip" corrupts one byte of one verified
  // result, "error" issues one op on a descriptor that was never opened.
  std::string inject;
  std::string run_dir = ".bench_run";  // scratch root, relative to the checkout
  std::string trace_out;               // Chrome-trace path (traced runs)
};

// Sample set with nearest-rank percentiles.
class Dist {
 public:
  void add(double x) { v_.push_back(x); }
  void merge(const Dist& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] double pct(double q) const;
  [[nodiscard]] double median() const { return pct(0.5); }
  // A percentile is resolved when at least ten samples lie beyond it.
  [[nodiscard]] bool resolved(double q) const {
    return (1.0 - q) * static_cast<double>(v_.size()) >= 10.0;
  }

 private:
  std::vector<double> v_;
};

// Per-call latencies in µs, in log-linear buckets (128 per power of two, so
// a percentile is within 0.8% of the exact one). Its memory is fixed, so a
// run's peak RSS does not grow with the number of calls it makes.
class LatencyHist {
 public:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 40;  // 2^-10 µs .. 2^30 µs
  void add(double us);
  void merge(const LatencyHist& o);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double pct(double q) const;
  [[nodiscard]] double median() const { return pct(0.5); }
  [[nodiscard]] bool resolved(double q) const {
    return (1.0 - q) * static_cast<double>(n_) >= 10.0;
  }

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kSub * kOctaves, 0);
  std::size_t n_ = 0;
};

// Ops attempted and ops that failed: returned an error, or whose bytes or
// results failed verification. The first few failures are described on
// stderr.
class Tally {
 public:
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n, std::memory_order_relaxed); }
  void fail(const std::string& what);
  // One op: counts it, and counts it failed when `st` is not ok.
  bool check(const iofwd::Status& st, const char* what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  bool resolved = true;
  std::string how;  // how the value was formed, for the printed table
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples,
           std::string how, bool resolved = true);
  // Median and p99 (or unresolved) of per-call latencies.
  void add_latency(const std::string& stem, const LatencyHist& d);
  void print(const std::string& title) const;
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

// Deterministic payload bytes for (a, b, c) keys: each 4 KiB chunk is a
// window of one seeded random buffer, stamped with its keys and chunk index,
// so a flipped, stale or misplaced chunk fails verification.
class Pattern {
 public:
  static constexpr std::size_t kChunk = 4096;
  Pattern(std::uint64_t seed, std::size_t max_block);
  void fill(std::span<std::byte> out, std::uint64_t a, std::uint64_t b, std::uint64_t c) const;
  // Number of 4 KiB chunks of `got` that differ from fill(a, b, c).
  [[nodiscard]] std::size_t mismatches(std::span<const std::byte> got, std::uint64_t a,
                                       std::uint64_t b, std::uint64_t c) const;

 private:
  [[nodiscard]] std::size_t base(std::uint64_t a, std::uint64_t b, std::uint64_t c) const;
  std::uint64_t seed_;
  std::vector<std::byte> random_;
};

// A directory under the run root, removed with everything in it when the
// object goes away.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// Filesystem type name of `path` (tmpfs, ext4, ...).
[[nodiscard]] std::string fs_type(const std::string& path);
// Write `bytes` at `offset` of a plain file, creating it (fixture set-up).
void write_file_at(const std::string& path, std::uint64_t offset, std::span<const std::byte> bytes);
// Read a plain file into `out` from `offset`; returns the bytes read.
std::size_t read_file_at(const std::string& path, std::uint64_t offset, std::span<std::byte> out);
// Bind this process (and every thread it starts later) to the last CPU it
// may run on; returns that CPU's number.
int pin_to_one_cpu();
// Kernel thread ids of this process.
[[nodiscard]] std::vector<pid_t> thread_ids();

// In-memory Chrome-trace events, written once at exit. Capped so a long
// traced run stays loadable; statistics never depend on the cap.
class SpanStore {
 public:
  static constexpr std::size_t kMaxEvents = 300000;
  explicit SpanStore(Clock::time_point epoch) : epoch_(epoch) {}
  void complete(const std::string& name, const char* cat, int pid, long tid, Clock::time_point t0,
                Clock::time_point t1, const std::string& args_json);
  void thread_name(int pid, long tid, const std::string& name);
  void process_name(int pid, const std::string& name);
  // Writes {"traceEvents": [...]} with `extra` (a comma-joined event list,
  // such as the server tracer's array body) appended.
  iofwd::Status write(const std::string& path, const std::string& extra) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> events_;
  std::size_t dropped_ = 0;
};

// Time a client spends inside its stream during one call: request bytes
// handed to the kernel (send) and reply bytes awaited (wait). One per client
// thread; every stream of that client adds to it.
struct StreamClock {
  double send_us = 0;
  double wait_us = 0;
  void reset() { send_us = wait_us = 0; }
};

// ByteStream decorator that adds its blocking call times to a StreamClock.
class TimedStream final : public iofwd::rt::ByteStream {
 public:
  TimedStream(std::unique_ptr<iofwd::rt::ByteStream> inner, StreamClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}
  iofwd::Status read_exact(void* buf, std::size_t n) override;
  iofwd::Status write_all(const void* buf, std::size_t n) override;
  void close() override { inner_->close(); }
  int read_readiness_fd() override { return inner_->read_readiness_fd(); }
  iofwd::Result<std::size_t> read_some(void* buf, std::size_t n) override {
    return inner_->read_some(buf, n);
  }
  int write_readiness_fd() override { return inner_->write_readiness_fd(); }
  iofwd::Result<std::size_t> write_some(const void* buf, std::size_t n) override {
    return inner_->write_some(buf, n);
  }
  iofwd::Result<std::size_t> writev_some(
      std::span<const std::span<const std::byte>> iov) override {
    return inner_->writev_some(iov);
  }

 private:
  std::unique_ptr<iofwd::rt::ByteStream> inner_;
  StreamClock& clock_;
};

// One call a server made into its storage backend.
struct BackendCall {
  char op;  // 'o' open, 'w' write, 'r' read, 's' fsync, 'c' close, 'z' size
  int fd;
  std::uint64_t offset;
  std::uint64_t len;
  Clock::time_point t0;
  Clock::time_point t1;
  pid_t tid;
};

class CallLog {
 public:
  void push(const BackendCall& c) {
    std::scoped_lock lk(mu_);
    calls_.push_back(c);
  }
  [[nodiscard]] std::vector<BackendCall> take() {
    std::scoped_lock lk(mu_);
    return std::move(calls_);
  }

 private:
  std::mutex mu_;
  std::vector<BackendCall> calls_;
};

// IoBackend decorator that logs every call with its calling thread.
class TimedBackend final : public iofwd::rt::IoBackend {
 public:
  TimedBackend(std::unique_ptr<iofwd::rt::IoBackend> inner, CallLog& log)
      : inner_(std::move(inner)), log_(log) {}
  iofwd::Status open(int fd, const std::string& path) override;
  iofwd::Result<std::uint64_t> write(int fd, std::uint64_t offset,
                                     std::span<const std::byte> data) override;
  iofwd::Result<std::uint64_t> read(int fd, std::uint64_t offset,
                                    std::span<std::byte> out) override;
  iofwd::Status fsync(int fd) override;
  iofwd::Status close(int fd) override;
  iofwd::Result<std::uint64_t> size(int fd) override;

 private:
  std::unique_ptr<iofwd::rt::IoBackend> inner_;
  CallLog& log_;
};

// Which server threads are workers, learned from the threads a server
// constructor starts: its burst-buffer flushers first, then its workers.
// Every other thread (flushers, receiver lanes running fsync/close drains
// inline) counts with the flushers.
struct ThreadRoles {
  std::set<pid_t> workers;
  bool known = true;
  // Record the threads `servers` server constructions started, given the
  // thread ids from before them.
  void learn(const std::vector<pid_t>& before, int servers, int flushers_each, int workers_each);
  [[nodiscard]] bool is_worker(pid_t t) const { return workers.contains(t); }
};

// Counter/gauge deltas and end-of-phase histograms of one or more servers
// across the measured phase of one or more rounds.
class ServerDeltas {
 public:
  void add(const iofwd::obs::Snapshot& before, const iofwd::obs::Snapshot& after);
  // Sum over servers and rounds of (after - before) for a counter or gauge.
  [[nodiscard]] double delta(const std::string& name) const;
  // Same, over every counter named `prefix`, an optional index, then
  // `suffix` (per-lane counters such as server.rt.lane.<i>.wakeups).
  [[nodiscard]] double delta_matching(const std::string& prefix, const std::string& suffix) const;
  // Largest end-of-phase value of a gauge.
  [[nodiscard]] double gauge_max(const std::string& name) const;
  // Median over servers and rounds of one end-of-phase histogram percentile
  // (q = 0.5 or 0.99); names match as in delta_matching, and the per-lane
  // histograms of one server are pooled by sample count.
  [[nodiscard]] double hist_pct(const std::string& prefix, const std::string& suffix,
                                double q) const;
  [[nodiscard]] std::size_t servers() const { return pairs_.size(); }

 private:
  std::vector<std::pair<iofwd::obs::Snapshot, iofwd::obs::Snapshot>> pairs_;
};

}  // namespace fwdbench
