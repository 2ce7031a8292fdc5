// IonServer receive stage (DESIGN.md §13): receiver lanes, frame assembly
// (on_header/on_frame) and the admission of writes and reads into
// the execute stage.
#include <algorithm>
#include <optional>

#include "core/log.hpp"
#include "rt/server.hpp"
#include "rt/server_lane.hpp"

namespace iofwd::rt {

SchedMeta IonServer::sched_meta(const ClientConn& conn, const FrameHeader& req,
                                std::chrono::steady_clock::time_point arrival) {
  SchedMeta m;
  m.tenant = conn.tenant.load(std::memory_order_relaxed);
  m.klass = req.klass;
  m.deadline_ms = req.deadline_ms;
  m.bytes = req.payload_len;
  m.arrival = arrival;
  return m;
}

bool IonServer::degraded_now(std::size_t queue_depth) {
  if (cfg_.degraded_queue_depth == 0) return false;
  const auto now = std::chrono::steady_clock::now();
  std::scoped_lock lock(degraded_mu_);
  if (!degraded_mode_) {
    if (queue_depth >= cfg_.degraded_queue_depth) {
      degraded_mode_ = true;
      degraded_since_ = now;
      c_degraded_enters_.inc();
    }
  } else if (queue_depth <= cfg_.degraded_queue_depth / 4) {
    degraded_mode_ = false;
    c_degraded_ns_.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - degraded_since_).count()));
  }
  return degraded_mode_;
}

void IonServer::lane_loop(Lane& lane) {
  const obs::RoleCpu::Member cpu(lane_cpu_);
  std::vector<Event> ready;
  std::vector<std::byte> scratch(64 * 1024);
  while (true) {
    ready.clear();
    if (!lane.loop.wait(ready)) break;
    lane.c_wakeups.inc();
    if (ready.empty()) continue;  // bare wake
    const auto t0 = std::chrono::steady_clock::now();
    for (const Event& ev : ready) {
      const std::uint64_t key = ev.key;
      std::shared_ptr<ClientConn> conn;
      {
        std::scoped_lock lock(lane.mu);
        auto it = lane.conns.find(key);
        if (it == lane.conns.end()) continue;  // dropped earlier this pass
        conn = it->second;
      }
      if (ev.writable) on_send_ready(*conn);
      if (!ev.readable) continue;
      // Edge-triggered contract: drain to would_block before re-arming.
      while (true) {
        // Direct receive: a parsed header's payload is read straight into
        // its staging buffer; headers and discarded payloads use scratch.
        const std::span<std::byte> dest = conn->assembler.payload_dest();
        const bool direct = !dest.empty();
        auto r = direct ? conn->stream->read_some(dest.data(), dest.size())
                        : conn->stream->read_some(scratch.data(), scratch.size());
        if (!r.is_ok()) {
          if (r.code() == Errc::would_block) break;
          drop_lane_conn(lane, key, *conn, r.code());  // EOF or hard error
          break;
        }
        lane.c_bytes.add(r.value());
        const auto frame_done = [&] { return on_frame(conn); };
        const auto header_done = [&](std::span<const std::byte, FrameHeader::kWireSize> hdr) {
          return on_header(*conn, hdr);
        };
        if (Status st = direct ? conn->assembler.commit(r.value(), frame_done)
                               : conn->assembler.feed(std::span<const std::byte>(
                                                          scratch.data(), r.value()),
                                                      header_done, frame_done);
            !st.is_ok()) {
          drop_lane_conn(lane, key, *conn, st.code());
          break;
        }
      }
    }
    lane.h_loop_us.record(us_since(t0));
  }
}

void IonServer::drop_lane_conn(Lane& lane, std::uint64_t key, ClientConn& conn, Errc reason) {
  if (conn.poll_fd >= 0) lane.loop.remove(conn.poll_fd);
  {
    // Undeliverable replies die with the connection; their leases return.
    std::scoped_lock lk(conn.send_mu);
    abort_send_queue_locked(conn);
  }
  // Dropping a client (corrupt header, protocol violation, peer EOF) shuts
  // our endpoint down at once: a client blocked in read_exact for a reply to
  // its (corrupted, never-executed) request wakes with EOF and redials,
  // even while a queued task still holds this connection (and its fd) open.
  conn.stream->close();
  conn.assembler.reset();
  conn.rx = RxPending{};  // releases any staged BML lease / heap payload
  bool erased = false;
  {
    std::scoped_lock lock(lane.mu);
    erased = lane.conns.erase(key) > 0;
  }
  if (erased) {
    lane.n_conns.fetch_sub(1, std::memory_order_relaxed);
    lane.g_open_connections.set(
        static_cast<std::int64_t>(lane.n_conns.load(std::memory_order_relaxed)));
    if (fr_) fr_->record("lane_drop", lane.index, 0, 0, static_cast<int>(reason));
  }
}

Result<FrameAssembler::Sink> IonServer::on_header(
    ClientConn& conn, std::span<const std::byte, FrameHeader::kWireSize> hdr_bytes) {
  auto hdr = FrameHeader::decode(hdr_bytes);
  if (!hdr.is_ok()) {
    // A corrupted header is unrecoverable on this connection: the framing
    // is lost (payload_len is untrustworthy), so drop the client and let
    // its reconnect-and-replay path recover. Protocol violations (valid
    // CRC, bad fields) are a hostile or broken peer — also dropped.
    if (hdr.code() == Errc::checksum_error) {
      c_header_crc_errors_.inc();
      if (fr_) fr_->record("hdr_crc_error", -1, 0, 0, static_cast<int>(hdr.code()));
    } else {
      c_frames_rejected_.inc();
      if (fr_) fr_->record("frame_rejected", -1, 0, 0, static_cast<int>(hdr.code()));
    }
    IOFWD_LOG_WARN("dropping client: %s", hdr.status().to_string().c_str());
    return hdr.status();
  }
  const FrameHeader req = hdr.value();
  const auto arrival = std::chrono::steady_clock::now();
  if (req.type != MsgType::request) {
    c_frames_rejected_.inc();
    IOFWD_LOG_WARN("unexpected frame type from client");
    return Status(Errc::protocol_error, "unexpected frame type");
  }
  // Ops that carry no request payload must say so: a nonzero payload_len
  // would desynchronize the stream (those bytes were never sent, or worse,
  // are a smuggled frame). `read` passes the requested length here and
  // `open`/`write` legitimately carry payloads.
  if (req.payload_len != 0 &&
      (req.op == OpCode::close || req.op == OpCode::fsync || req.op == OpCode::fstat ||
       req.op == OpCode::shutdown || req.op == OpCode::hello || req.op == OpCode::ping)) {
    c_frames_rejected_.inc();
    IOFWD_LOG_WARN("dropping client: unexpected payload on %s", opcode_name(req.op));
    return Status(Errc::protocol_error, "unexpected payload");
  }
  // hello is control-plane: it gets its own counter and stays out of
  // server.ops so op accounting still means "forwarded I/O calls".
  // Protocol chatter (hello negotiation, ping probes) is not forwarded I/O.
  if (req.op != OpCode::hello && req.op != OpCode::ping) c_ops_.inc();

  RxPending& rx = conn.rx;
  rx = RxPending{};
  rx.req = req;
  rx.arrival = arrival;

  FrameAssembler::Sink sink;
  switch (req.op) {
    case OpCode::open:
      rx.staging = RxPending::Staging::heap;
      rx.heap.resize(req.payload_len);
      sink = {req.payload_len, rx.heap.data()};
      break;
    case OpCode::write: {
      // Staging space comes from the BML pool under a bounded wait, chosen
      // before the payload bytes are consumed, so backpressure lands before
      // the payload is read off the stream. The lease outcome is admit()'s input at frame completion: a timed-out
      // lease receives into plain heap memory and passes through.
      auto buf = pool_.try_acquire(req.payload_len);
      if (!buf.is_ok() && buf.code() == Errc::would_block) {
        buf = cfg_.stall_ms > 0
                  ? pool_.acquire_for(req.payload_len, std::chrono::milliseconds(cfg_.stall_ms))
                  : pool_.acquire(req.payload_len);
      }
      if (buf.is_ok()) {
        rx.staging = RxPending::Staging::bml;
        rx.bml = std::move(buf).value();
        sink = {req.payload_len, rx.bml.data()};
      } else if (buf.code() == Errc::timed_out) {
        rx.staging = RxPending::Staging::heap;
        rx.heap.resize(req.payload_len);
        sink = {req.payload_len, rx.heap.data()};
      } else {
        // Oversize request: swallow the payload without storing it, bounce
        // at frame completion.
        rx.staging = RxPending::Staging::discard;
        rx.bounce = buf.status();
        sink = {req.payload_len, nullptr};
      }
      break;
    }
    default:
      // read's payload_len is the requested length, not wire bytes; the
      // zero-payload ops were validated above.
      sink = {0, nullptr};
      break;
  }
  return sink;
}

Status IonServer::on_frame(const std::shared_ptr<ClientConn>& conn) {
  RxPending& rx = conn->rx;
  const FrameHeader req = rx.req;
  switch (req.op) {
    case OpCode::hello:
      handle_hello(*conn, req);
      break;
    case OpCode::ping:
      handle_ping(*conn, req);
      break;
    case OpCode::open:
      handle_open(*conn, req, rx.heap, rx.arrival);
      break;
    case OpCode::write:
      handle_write(conn, rx);
      break;
    case OpCode::read:
      handle_read(conn, req, rx.arrival);
      break;
    case OpCode::fsync:
      handle_fsync(*conn, req, rx.arrival);
      break;
    case OpCode::fstat:
      handle_fstat(*conn, req, rx.arrival);
      break;
    case OpCode::close:
      handle_close(*conn, req, rx.arrival);
      break;
    case OpCode::shutdown:
      enqueue_reply(*conn, req, Status::ok());
      // The goodbye must beat the teardown: drop_lane_conn closes the stream
      // as soon as we return shutdown, so flush the queue first.
      flush_send_queue_blocking(*conn);
      rx = RxPending{};
      return Status(Errc::shutdown, "client requested shutdown");
  }
  rx = RxPending{};  // drop payload staging before the next frame
  return Status::ok();
}

void IonServer::handle_write(const std::shared_ptr<ClientConn>& conn, RxPending& rx) {
  const FrameHeader req = rx.req;
  const auto arrival = rx.arrival;
  if (rx.staging == RxPending::Staging::discard) {
    // Oversize request: the assembler already swallowed the payload; bounce.
    finish_op(*conn, req, arrival, rx.bounce);
    return;
  }
  c_bytes_in_.add(req.payload_len);
  const std::span<const std::byte> data =
      rx.staging == RxPending::Staging::bml
          ? std::span<const std::byte>(rx.bml.data(), req.payload_len)
          : std::span<const std::byte>(rx.heap.data(), rx.heap.size());

  // Verify the payload checksum before the bytes reach the BML staging path
  // or the descriptor database — a flipped bit bounces here, synchronously,
  // so the staged early-ack can never acknowledge corrupt data.
  if (!req.payload_crc_ok(data)) {
    rx.bml.release();
    c_payload_crc_errors_.inc();
    if (fr_) fr_->record("payload_crc_error", req.fd, req.payload_len, 0,
                         static_cast<int>(Errc::checksum_error));
    finish_op(*conn, req, arrival, Status(Errc::checksum_error, "write payload crc mismatch"));
    return;
  }

  // Deferred-error gate (async mode): surface the oldest unreported error
  // instead of executing this operation. It runs before admit() so a
  // bounced write debits no tenant tokens and steps no hysteresis.
  if (cfg_.exec == ExecModel::work_queue_async) {
    if (Status deferred = consume_deferred(req.fd); !deferred.is_ok()) {
      finish_op(*conn, req, arrival, deferred);
      return;
    }
  }

  const SchedMeta meta = sched_meta(*conn, req, arrival);
  const Admission adm = admit(
      cfg_.exec, rx.staging == RxPending::Staging::bml,
      [&] { return !qos_ || qos_->admit(meta.tenant, req.payload_len); },
      [&] { return degraded_now(queue_.size()); });
  const auto row = std::find(kAdmissions.begin(), kAdmissions.end(), adm);
  c_admit_[static_cast<std::size_t>(row - kAdmissions.begin())]->inc();
  Task t{.conn = conn, .req = req, .payload = std::move(rx.bml), .verdict = adm.verdict,
         .arrival = arrival};

  switch (adm.verdict) {
    case Verdict::passthrough: {
      // The BML wait expired at header time: execute inline, synchronously
      // — slower, but bounded and correct.
      c_bml_timeouts_.inc();
      c_degraded_passthrough_.inc();
      std::optional<obs::RuntimeTracer::Span> sp;
      if (tracer_ != nullptr) sp.emplace(tracer_->span("write (passthrough)", "op", kInlineLane));
      finish_op(*conn, req, arrival, do_write(req, t.payload /* no lease */, std::move(rx.heap)));
      return;
    }
    case Verdict::inline_exec:
      execute_task(t, kInlineLane);
      return;
    case Verdict::sync_stage:
      if (adm.reason != AdmitReason::none) c_degraded_sync_writes_.inc();
      if (!queue_.push(std::move(t), meta)) {
        enqueue_reply(*conn, req, Status(Errc::shutdown, "server stopping"));
      }
      break;
    case Verdict::async_stage: {
      std::uint64_t seq_val = 0;
      {
        std::scoped_lock lock(db_mu_);
        auto seq = db_.begin_op(req.fd);
        if (!seq) {
          enqueue_reply(*conn, req, Status(Errc::bad_descriptor, "fd not open"));
          return;
        }
        seq_val = *seq;
      }
      t.db_seq = seq_val;
      // Early acknowledgement: the application is unblocked as soon as the
      // payload sits in the BML buffer.
      enqueue_reply(*conn, req, Status::ok(), {}, /*staged=*/true);
      if (!queue_.push(std::move(t), meta)) {
        // Server stopping: mark the op completed so close-drain cannot hang.
        note_completed(req.fd, seq_val, Status(Errc::shutdown, "server stopping"));
      }
      break;
    }
  }
  if (tracer_ != nullptr) {
    tracer_->counter("queue_depth", static_cast<double>(queue_.size()));
    tracer_->counter("bml_in_use", static_cast<double>(pool_.in_use()));
  }
}

void IonServer::handle_read(const std::shared_ptr<ClientConn>& conn, const FrameHeader& req,
                            std::chrono::steady_clock::time_point arrival) {
  if (cfg_.exec == ExecModel::work_queue_async) {
    // Read barrier: in-flight writes on this descriptor land first.
    drain_descriptor(req.fd);
    if (Status deferred = consume_deferred(req.fd); !deferred.is_ok()) {
      finish_op(*conn, req, arrival, deferred);
      return;
    }
  }
  Task t;
  t.conn = conn;
  t.req = req;
  t.arrival = arrival;
  const SchedMeta meta = sched_meta(*conn, req, arrival);
  if (cfg_.exec == ExecModel::thread_per_client) {
    execute_task(t, kInlineLane);
  } else if (!queue_.push(std::move(t), meta)) {
    enqueue_reply(*conn, req, Status(Errc::shutdown, "server stopping"));
  }
}

}  // namespace iofwd::rt
