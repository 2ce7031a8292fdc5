// The paper's contribution: I/O scheduling with a shared FIFO work queue and
// a worker-thread pool, optionally combined with asynchronous data staging
// through the BML (Sec. IV, Figs. 7-8).
//
// Reception stays thread-per-CN (ZOID threads); instead of *executing* the
// I/O, the ZOID thread enqueues an I/O task. A small pool of worker threads
// (launched at startup, size via configuration) drains the queue, each
// worker multiplexing several tasks through one poll-based event-loop pass.
//
// Synchronous staging (async_staging = false): the application blocks until
// the worker completed the I/O — this is the "I/O scheduling" mechanism.
// Asynchronous staging (async_staging = true): data ops return as soon as
// the payload is copied into a BML buffer; completion status is recorded in
// the descriptor database and surfaced on subsequent operations.
#pragma once

#include <memory>
#include <vector>

#include "proto/bml.hpp"
#include "proto/forwarder.hpp"
#include "proto/sim_task_queue.hpp"

namespace iofwd::proto {

class QueueForwarder final : public Forwarder {
 public:
  QueueForwarder(bgp::Machine& machine, bgp::Pset& pset, RunMetrics& metrics, ForwarderConfig cfg,
                 bool async_staging);
  ~QueueForwarder() override;

  sim::Proc<Status> write(int cn_id, int fd, std::uint64_t bytes, SinkTarget sink) override;
  sim::Proc<Status> read(int cn_id, int fd, std::uint64_t bytes, SinkTarget source) override;
  sim::Proc<Status> close(int cn_id, int fd) override;
  sim::Proc<Status> fstat(int cn_id, int fd) override;

  sim::Proc<void> drain() override;
  void shutdown() override;

  [[nodiscard]] bool async_staging() const { return async_staging_; }
  [[nodiscard]] const Bml& bml() const { return bml_; }

 private:
  struct QTask {
    int cn_id = 0;
    int fd = -1;
    std::uint64_t seq = 0;  // descriptor-DB sequence (async data ops)
    OpType type = OpType::write;
    std::uint64_t bytes = 0;
    SinkTarget sink;
    std::uint64_t bml_class = 0;       // BML bytes to return (async)
    sim::SimEvent* completion = nullptr;  // set on delivery (sync staging)
    Status* out_status = nullptr;         // where to report (sync staging)
  };

  sim::Proc<void> worker_loop(int worker_id);
  sim::Proc<void> finish_task(QTask t);
  void enqueue(QTask t);
  void notify_op_completed();
  [[nodiscard]] int batch_target() const;

  bool async_staging_;
  Bml bml_;
  SimTaskQueue<QTask> queue_;
  std::uint64_t outstanding_ = 0;
  int live_workers_ = 0;  // worker_loop frames that have not returned
  std::uint64_t bml_blocked_counted_ = 0;  // bml_.blocked_acquires() in fwd.bml_blocked
  std::vector<std::shared_ptr<sim::SimEvent>> completion_ticks_;
};

}  // namespace iofwd::proto
