// FaultPlan-driven decorators for the two fault domains of the runtime:
//
//   * FaultyBackend : rt::IoBackend — injects backend faults (EIO at flush
//     time, slow storage) below the server/burst-buffer stack.
//   * FaultyStream : rt::ByteStream — injects transport faults: connections
//     cut after a byte budget (the old test-local CuttingStream), dropped
//     mid-roundtrip, or slowed down.
//
// Both consult a shared FaultPlan, so one seeded schedule can coordinate
// transport and backend faults in a single chaos run. These replace the
// ad-hoc per-test helpers (CuttingStream, MemBackend::FaultHook).
#pragma once

#include <functional>
#include <memory>

#include "fault/plan.hpp"
#include "rt/backend.hpp"
#include "rt/transport.hpp"

namespace iofwd::fault {

class FaultyBackend final : public rt::IoBackend {
 public:
  FaultyBackend(std::unique_ptr<rt::IoBackend> inner, std::shared_ptr<FaultPlan> plan);

  Status open(int fd, const std::string& path) override;
  Result<std::uint64_t> write(int fd, std::uint64_t offset,
                              std::span<const std::byte> data) override;
  Result<std::uint64_t> read(int fd, std::uint64_t offset, std::span<std::byte> out) override;
  Status fsync(int fd) override;
  Status close(int fd) override;
  Result<std::uint64_t> size(int fd) override;

  [[nodiscard]] FaultPlan& plan() { return *plan_; }
  [[nodiscard]] rt::IoBackend& inner() { return *inner_; }

  // Fired when a FaultAction::crash rule hits one of this backend's ops.
  // The hook runs on the server worker thread executing the op, so it must
  // NOT synchronously stop/join that server (deadlock) — signal a chaos
  // driver thread instead (the harness sets a flag the test thread polls,
  // then calls kill_shard() from outside). Set before serving traffic.
  void set_crash_hook(std::function<void()> hook) { crash_hook_ = std::move(hook); }

 private:
  // Consult the plan; sleeps injected latency. Non-ok = bounce the op
  // (after firing the crash hook when the verdict is a crash).
  Status gate(OpKind k);

  std::unique_ptr<rt::IoBackend> inner_;
  std::shared_ptr<FaultPlan> plan_;
  std::function<void()> crash_hook_;
};

struct StreamFaultConfig {
  // Kill the connection once this end has written >= this many bytes
  // (CuttingStream semantics: the prefix is delivered, then the line drops).
  // 0 = no byte budget.
  std::uint64_t cut_after_write_bytes = 0;
};

class FaultyStream final : public rt::ByteStream {
 public:
  FaultyStream(std::unique_ptr<rt::ByteStream> inner, std::shared_ptr<FaultPlan> plan,
               StreamFaultConfig cfg = {});
  // Byte-budget-only convenience (the old CuttingStream constructor).
  FaultyStream(std::unique_ptr<rt::ByteStream> inner, std::uint64_t cut_after_write_bytes);

  Status read_exact(void* buf, std::size_t n) override;
  Status write_all(const void* buf, std::size_t n) override;
  void close() override;

  // Readiness forwards to the inner stream so a fault-wrapped connection can
  // still live on an epoll receiver/send lane. read_some consults the plan
  // only AFTER a successful inner read: would_block polls must not consume
  // injections, or fired() accounting would drift from delivered faults.
  // write_some consults it BEFORE the inner write (like write_all) but only
  // once per frame-sized attempt that makes progress — a would_block result
  // refunds nothing because the plan was consulted first; keeping the
  // blocking and non-blocking write paths consistent matters more than
  // refunds, and latency injections on a would_block still model a slow NIC.
  [[nodiscard]] int readiness_fd() override { return inner_->readiness_fd(); }
  Result<std::size_t> read_some(void* buf, std::size_t n) override;
  Result<std::size_t> write_some(const void* buf, std::size_t n) override;

  [[nodiscard]] FaultPlan& plan() { return *plan_; }

 private:
  std::unique_ptr<rt::ByteStream> inner_;
  std::shared_ptr<FaultPlan> plan_;
  StreamFaultConfig cfg_;
  std::mutex mu_;
  std::uint64_t written_ = 0;
  bool cut_ = false;
};

}  // namespace iofwd::fault
