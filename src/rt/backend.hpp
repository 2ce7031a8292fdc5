// I/O backends: what the ION server executes forwarded operations against.
//
//   * MemBackend  — in-memory files; the default for tests and examples,
//                   and the analogue of streaming to analysis-node memory.
//   * FileBackend — real files under a root directory (posix pread/pwrite),
//                   the GPFS-client analogue for a deployment. Large writes
//                   made inside a WriteBehindScope start their own disk
//                   writeback (write-behind).
//   * NullBackend — /dev/null semantics (the Fig. 4 microbenchmark).
//
// Backends are called concurrently from worker threads and must be
// thread-safe. Failure injection lives in fault/decorators.hpp
// (fault::FaultyBackend), which wraps any of these.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"

namespace iofwd::rt {

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual Status open(int fd, const std::string& path) = 0;
  virtual Result<std::uint64_t> write(int fd, std::uint64_t offset,
                                      std::span<const std::byte> data) = 0;
  virtual Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) = 0;
  virtual Status fsync(int fd) = 0;
  virtual Status close(int fd) = 0;
  // Attribute query: current file size in bytes.
  virtual Result<std::uint64_t> size(int fd) = 0;
};

class NullBackend final : public IoBackend {
 public:
  Status open(int, const std::string&) override { return Status::ok(); }
  Result<std::uint64_t> write(int, std::uint64_t, std::span<const std::byte> data) override {
    return static_cast<std::uint64_t>(data.size());
  }
  Result<std::uint64_t> read(int, std::uint64_t, std::span<std::byte> out) override {
    std::fill(out.begin(), out.end(), std::byte{0});
    return static_cast<std::uint64_t>(out.size());
  }
  Status fsync(int) override { return Status::ok(); }
  Status close(int) override { return Status::ok(); }
  Result<std::uint64_t> size(int) override { return 0ull; }
};

class MemBackend final : public IoBackend {
 public:
  Status open(int fd, const std::string& path) override;
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override;
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override;
  Status fsync(int fd) override;
  Status close(int fd) override;
  Result<std::uint64_t> size(int fd) override;

  // Test inspection: a copy of the file content (empty if unknown path).
  [[nodiscard]] std::vector<std::byte> snapshot(const std::string& path) const;

 private:
  struct File {
    std::string path;
    std::vector<std::byte> data;
  };
  mutable std::shared_mutex mu_;
  std::map<int, std::shared_ptr<File>> open_;
  std::map<std::string, std::shared_ptr<File>> by_path_;
};

// A thread-local flag that holds while a scope object lives on the calling
// thread; scopes nest. A flag rather than an IoBackend call, so it reaches a
// backend through any decorator (fault injection, timing) that forwards on
// the calling thread, and IoBackend's signature stays as it is.
template <class Tag>
class ThreadScope {
 public:
  ThreadScope() : outer_(std::exchange(active_, true)) {}
  ~ThreadScope() { active_ = outer_; }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

  [[nodiscard]] static bool active() { return active_; }

 private:
  static inline thread_local bool active_ = false;
  bool outer_;
};

// Write-behind (DESIGN.md §9). While a WriteBehindScope lives on a thread,
// FileBackend starts disk writeback of every large write that thread makes.
// The burst buffer opens one around its write-back of staged extents and
// around an acked write it sends straight to the backend, both of which an
// fsync or close barrier follows; other writes skip it, because without a
// following fsync the extra call is pure cost.
using WriteBehindScope = ThreadScope<struct WriteBehindTag>;

// Acked write (DESIGN.md §9). The server opens an AckedWriteScope around the
// execution of a write it has already acknowledged (async staging). The
// burst buffer may then send a large fresh write straight to the backend
// instead of staging it, because staging it buys no latency for the client.
using AckedWriteScope = ThreadScope<struct AckedWriteTag>;

class FileBackend final : public IoBackend {
 public:
  // Inside a WriteBehindScope, a write of at least this many bytes asks the
  // kernel to start writing the range back right away
  // (sync_file_range(SYNC_FILE_RANGE_WRITE), which does not wait), so a
  // later fsync waits only for what is still in flight. Smaller writes skip
  // it: for them the extra call costs more than the fsync it shortens.
  static constexpr std::size_t kWriteBehindBytes = 64 * 1024;

  explicit FileBackend(std::string root) : root_(std::move(root)) {}

  Status open(int fd, const std::string& path) override;
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override;
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override;
  Status fsync(int fd) override;
  Status close(int fd) override;
  Result<std::uint64_t> size(int fd) override;

  // Writeback requests the kernel accepted. A refused one (e.g. on a file
  // that is not a regular one) is not counted and never fails the write.
  [[nodiscard]] std::uint64_t writebacks() const { return writebacks_.load(); }

 private:
  Result<int> host_fd(int fd) const;

  std::string root_;
  std::atomic<std::uint64_t> writebacks_{0};
  mutable std::shared_mutex mu_;
  std::map<int, int> open_;  // forwarded fd -> host fd
};

}  // namespace iofwd::rt
