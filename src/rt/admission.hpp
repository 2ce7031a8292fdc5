// Write admission (DESIGN.md §10): the one decision on how a forwarded write
// executes. The paper has a single backpressure rule — a write the BML cannot
// stage waits for queued I/O to free space (§IV) — and every degrade path of
// the server is a verdict of admit() plus its reason. admit() is pure apart
// from its two probes, which it runs in a fixed order and only where their
// answer can change the verdict: a timed-out lease passes through unprobed,
// only an async write can be demoted and so only it is metered, and a
// throttled write does not step the hysteresis.
#pragma once

#include <array>
#include <cstdint>

namespace iofwd::rt {

enum class ExecModel { thread_per_client, work_queue, work_queue_async };

[[nodiscard]] inline const char* to_string(ExecModel m) {
  switch (m) {
    case ExecModel::thread_per_client: return "thread_per_client";
    case ExecModel::work_queue: return "work_queue";
    case ExecModel::work_queue_async: return "work_queue_async";
  }
  return "?";
}

enum class Verdict : std::uint8_t {
  inline_exec,  // execute on the receive lane, reply on completion
  sync_stage,   // queue for the workers, reply on completion
  async_stage,  // queue for the workers, reply "staged" now
  passthrough,  // no BML lease: execute inline from the heap payload
};

enum class AdmitReason : std::uint8_t {
  none,           // the exec model's own path
  bml_wait,       // no BML lease within stall_ms
  tenant_budget,  // the tenant's QoS token bucket is empty
  queue_depth,    // the task queue is in degraded (sync-staging) mode
};

struct Admission {
  Verdict verdict;
  AdmitReason reason;
  friend bool operator==(const Admission&, const Admission&) = default;
};

// Every outcome admit() can return, one per row of DESIGN.md §10's table.
// The server counts each under server.admit.<verdict>.<reason>.
inline constexpr std::array<Admission, 6> kAdmissions{{
    {Verdict::passthrough, AdmitReason::bml_wait},
    {Verdict::inline_exec, AdmitReason::none},
    {Verdict::sync_stage, AdmitReason::none},
    {Verdict::sync_stage, AdmitReason::tenant_budget},
    {Verdict::sync_stage, AdmitReason::queue_depth},
    {Verdict::async_stage, AdmitReason::none},
}};

[[nodiscard]] inline const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::inline_exec: return "inline_exec";
    case Verdict::sync_stage: return "sync_stage";
    case Verdict::async_stage: return "async_stage";
    case Verdict::passthrough: return "passthrough";
  }
  return "?";
}

[[nodiscard]] inline const char* to_string(AdmitReason r) {
  switch (r) {
    case AdmitReason::none: return "none";
    case AdmitReason::bml_wait: return "bml_wait";
    case AdmitReason::tenant_budget: return "tenant_budget";
    case AdmitReason::queue_depth: return "queue_depth";
  }
  return "?";
}

// within_budget() answers (and debits) the writer's tenant budget;
// queue_deep() steps the queue-depth hysteresis and returns its mode.
template <class BudgetProbe, class DepthProbe>
[[nodiscard]] Admission admit(ExecModel exec, bool leased, BudgetProbe&& within_budget,
                              DepthProbe&& queue_deep) {
  if (!leased) return {Verdict::passthrough, AdmitReason::bml_wait};
  if (exec == ExecModel::thread_per_client) return {Verdict::inline_exec, AdmitReason::none};
  if (exec == ExecModel::work_queue) return {Verdict::sync_stage, AdmitReason::none};
  if (!within_budget()) return {Verdict::sync_stage, AdmitReason::tenant_budget};
  if (queue_deep()) return {Verdict::sync_stage, AdmitReason::queue_depth};
  return {Verdict::async_stage, AdmitReason::none};
}

}  // namespace iofwd::rt
