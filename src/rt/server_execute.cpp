// IonServer execute stage: the worker pool, backend writes and reads, and
// the descriptor database behind async staging's deferred errors.
#include <cassert>
#include <optional>
#include <string>

#include "bb/burst_buffer.hpp"
#include "rt/server.hpp"
#include "rt/server_lane.hpp"

namespace iofwd::rt {

namespace {
// Most tasks one worker takes per event-loop pass; pop_batch balances the
// actual batch against the backlog (the paper's load-balancing heuristic).
constexpr int kMultiplexDepth = 8;
}  // namespace

bool IonServer::past_deadline(const FrameHeader& req,
                              std::chrono::steady_clock::time_point arrival) {
  if (req.deadline_ms == 0) return false;
  return std::chrono::steady_clock::now() - arrival >= std::chrono::milliseconds(req.deadline_ms);
}

Status IonServer::consume_deferred(int fd) {
  std::scoped_lock lock(db_mu_);
  Status st = db_.consume_pending_error(fd);
  if (!st.is_ok() && st.code() != Errc::bad_descriptor) {
    c_deferred_errors_.inc();
  }
  return st;
}

void IonServer::drain_descriptor(int fd) {
  std::unique_lock lock(db_mu_);
  db_cv_.wait(lock, [&] { return db_.in_flight(fd) == 0; });
}

void IonServer::note_completed(int fd, std::uint64_t seq, const Status& st) {
  std::scoped_lock lock(db_mu_);
  db_.complete_op(fd, seq, st);
  db_cv_.notify_all();
}

void IonServer::worker_loop(int lane) {
  const obs::RoleCpu::Member cpu(worker_cpu_);
  if (tracer_ != nullptr) tracer_->set_thread_name(lane, "worker " + std::to_string(lane));
  while (true) {
    auto batch = queue_.pop_batch(kMultiplexDepth);
    if (batch.empty()) return;  // queue closed and drained
    tasks_in_flight_.fetch_add(batch.size(), std::memory_order_acq_rel);
    if (tracer_ != nullptr) {
      tracer_->counter("queue_depth", static_cast<double>(queue_.size()));
    }
    for (auto& t : batch) {
      h_queue_wait_us_.record(us_since(t.arrival));
      execute_task(t, lane);
      tasks_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

Status IonServer::do_write(const FrameHeader& req, Buffer& lease, std::vector<std::byte> heap) {
  if (filters_.empty()) {
    const std::span<const std::byte> data =
        lease.valid() ? std::span<const std::byte>(lease.data(), req.payload_len)
                      : std::span<const std::byte>(heap);
    auto r = backend_->write(req.fd, req.offset, data);
    lease.release();  // back to the BML pool as early as possible
    return r.is_ok() ? Status::ok() : r.status();
  }
  // Data-filtering offload: transform on the ION's otherwise idle cycles,
  // then write the (possibly reduced) payload at the mapped offset. The
  // chain transforms in place, so a leased payload moves out of BML once
  // and the lease goes back to the pool before the backend write.
  if (lease.valid()) {
    heap.assign(lease.data(), lease.data() + req.payload_len);
    lease.release();
  }
  const std::uint64_t before = heap.size();
  Status st = filters_.apply(req.fd, req.offset, heap);
  if (!st.is_ok()) return st;
  c_filter_bytes_in_.add(before);
  c_filter_bytes_out_.add(heap.size());
  auto r = backend_->write(req.fd, filters_.map_offset(req.offset), heap);
  return r.is_ok() ? Status::ok() : r.status();
}

void IonServer::execute_task(Task& t, int lane) {
  std::optional<obs::RuntimeTracer::Span> sp;
  if (tracer_ != nullptr) sp.emplace(tracer_->span(opcode_name(t.req.op), "op", lane));
  // Deadline enforcement: an op whose budget ran out while queued bounces
  // with timed_out without touching the backend. For async-staged writes the
  // bounce follows the deferred-error path (the staged ack already went out).
  if (past_deadline(t.req, t.arrival)) {
    t.payload.release();
    c_deadline_expired_.inc();
    const Status st(Errc::timed_out, "deadline expired in queue");
    // Observe before note_completed: completion releases fsync/close drain
    // barriers, so recording first keeps op metrics and flight-recorder
    // entries ordered before anything the barrier unblocks.
    observe_op(t.req, t.arrival, st);
    if (t.verdict == Verdict::async_stage) {
      note_completed(t.req.fd, t.db_seq, st);
    } else {
      enqueue_reply(*t.conn, t.req, st);
    }
    return;
  }
  if (t.req.op == OpCode::write) {
    // The client already has its ack: the burst buffer may send a large
    // fresh write straight to the backend rather than stage it (DESIGN.md §9).
    std::optional<AckedWriteScope> acked;
    if (t.verdict == Verdict::async_stage) acked.emplace();
    const Status st = do_write(t.req, t.payload, {});
    acked.reset();
    observe_op(t.req, t.arrival, st);  // before note_completed — see above
    if (t.verdict == Verdict::async_stage) {
      note_completed(t.req.fd, t.db_seq, st);
    } else {
      enqueue_reply(*t.conn, t.req, st);
    }
    return;
  }
  assert(t.req.op == OpCode::read);
  // Zero-copy fast path: a read fully covered by one staged extent pins the
  // extent's lease and replies straight out of the cache — the payload is
  // never copied, and the pin keeps the bytes alive until the lane's last
  // writev for this reply is accepted (DESIGN.md §15).
  if (bb_ != nullptr) {
    if (auto pin = bb_->read_pinned(t.req.fd, t.req.offset, t.req.payload_len)) {
      observe_op(t.req, t.arrival, Status::ok());
      ReplyPayload p;
      p.bytes = pin->bytes;
      p.bb_pin = std::move(pin->lease);
      enqueue_reply(*t.conn, t.req, Status::ok(), std::move(p));
      return;
    }
  }
  auto buf = pool_.acquire(t.req.payload_len);
  if (!buf.is_ok()) {
    finish_op(*t.conn, t.req, t.arrival, buf.status());
    return;
  }
  Buffer out = std::move(buf).value();
  auto r = backend_->read(t.req.fd, t.req.offset,
                          std::span<std::byte>(out.data(), t.req.payload_len));
  if (!r.is_ok()) {
    finish_op(*t.conn, t.req, t.arrival, r.status());
    return;
  }
  observe_op(t.req, t.arrival, Status::ok());
  // The BML lease rides the queue with the reply: the backend read landed in
  // `out`, the entry views it, and the pool gets the buffer back only after
  // the kernel has gathered the last byte. No reply memcpy.
  ReplyPayload p;
  p.bytes = std::span<const std::byte>(out.data(), r.value());
  p.bml = std::move(out);
  enqueue_reply(*t.conn, t.req, Status::ok(), std::move(p));
}

}  // namespace iofwd::rt
