// IonServer control and lifecycle: construction, serve/feed_bytes, stop,
// metrics, and the inline control ops (hello, ping, open, close, fsync,
// fstat). The pipeline stages live in server_receive.cpp,
// server_execute.cpp and server_reply.cpp.
#include "rt/server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string>

#include "bb/burst_buffer.hpp"
#include "rt/server_lane.hpp"

namespace iofwd::rt {

namespace {
int default_recv_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}
}  // namespace

IonServer::IonServer(std::unique_ptr<IoBackend> backend, ServerConfig cfg)
    : owned_registry_(cfg.registry != nullptr ? nullptr
                                              : std::make_unique<obs::MetricRegistry>()),
      reg_(cfg.registry != nullptr ? cfg.registry : owned_registry_.get()),
      backend_(std::move(backend)),
      cfg_(cfg),
      pool_(cfg.bml_bytes),
      queue_(cfg.workers, cfg.sched, cfg.sched_quantum_bytes),
      tracer_(cfg.tracer),
      fr_(cfg.flight_recorder_ops > 0
              ? std::make_unique<obs::FlightRecorder>(cfg.flight_recorder_ops)
              : nullptr),
      c_ops_(reg_->counter("server.ops")),
      c_bytes_in_(reg_->counter("server.bytes_in")),
      c_bytes_out_(reg_->counter("server.bytes_out")),
      c_deferred_errors_(reg_->counter("server.deferred_errors")),
      c_filter_bytes_in_(reg_->counter("server.filter_bytes_in")),
      c_filter_bytes_out_(reg_->counter("server.filter_bytes_out")),
      c_deadline_expired_(reg_->counter("server.deadline_expired")),
      c_bml_timeouts_(reg_->counter("server.bml_timeouts")),
      c_degraded_passthrough_(reg_->counter("server.degraded_passthrough_ops")),
      c_degraded_sync_writes_(reg_->counter("server.degraded_sync_writes")),
      c_degraded_enters_(reg_->counter("server.degraded_enters")),
      c_degraded_ns_(reg_->counter("server.degraded_ns")),
      c_hellos_(reg_->counter("server.integrity.hellos")),
      c_header_crc_errors_(reg_->counter("server.integrity.header_crc_errors")),
      c_payload_crc_errors_(reg_->counter("server.integrity.payload_crc_errors")),
      c_frames_rejected_(reg_->counter("server.integrity.frames_rejected")),
      c_conns_refused_(reg_->counter("server.conns_refused")),
      c_replies_enqueued_(reg_->counter("server.reply.enqueued")),
      c_replies_sent_(reg_->counter("server.reply.sent")),
      c_reply_queue_full_(reg_->counter("server.reply.queue_full")),
      c_reply_peer_gone_(reg_->counter("server.reply.peer_gone")),
      c_reply_copy_bytes_(reg_->counter("server.reply.payload_copy_bytes")),
      h_write_lat_us_(reg_->histogram("server.write_latency_us")),
      h_read_lat_us_(reg_->histogram("server.read_latency_us")),
      h_queue_wait_us_(reg_->histogram("server.sched.queue_wait_us")),
      g_queue_depth_(reg_->gauge("server.queue_depth")),
      g_queue_max_depth_(reg_->gauge("server.queue_max_depth")),
      g_queue_batches_(reg_->gauge("server.queue_batches")),
      g_bml_in_use_(reg_->gauge("server.bml_in_use")),
      g_bml_blocked_(reg_->gauge("server.bml_blocked")),
      g_bml_high_watermark_(reg_->gauge("server.bml_high_watermark")),
      g_cpu_us_lane_(reg_->gauge("server.cpu_us.lane")),
      g_cpu_us_worker_(reg_->gauge("server.cpu_us.worker")),
      g_cpu_us_flusher_(reg_->gauge("server.cpu_us.flusher")) {
  assert(backend_ && "IonServer needs a backend");
  reg_->gauge("server.sched.policy").set(static_cast<std::int64_t>(cfg_.sched));
  for (std::size_t i = 0; i < kAdmissions.size(); ++i) {
    c_admit_[i] = &reg_->counter(std::string("server.admit.") + to_string(kAdmissions[i].verdict) +
                                 "." + to_string(kAdmissions[i].reason));
  }
  if (cfg_.qos.enabled()) qos_ = std::make_unique<QosGovernor>(cfg_.qos, *reg_);
  if (cfg_.bb_bytes > 0) {
    bb::BurstBufferConfig bcfg;
    bcfg.capacity_bytes = cfg_.bb_bytes;
    bcfg.high_watermark = cfg_.bb_high_watermark;
    bcfg.low_watermark = cfg_.bb_low_watermark;
    bcfg.flushers = cfg_.bb_flushers;
    bcfg.max_stall_ms = cfg_.stall_ms;
    bcfg.registry = reg_;  // one namespace: "server.*" + "bb.*"
    bcfg.cluster_budget = cfg_.bb_cluster_budget;
    bcfg.journal_dir = cfg_.bb_journal_dir;
    bcfg.journal_fsync = cfg_.bb_journal_fsync;
    auto wrapped = std::make_unique<bb::BurstBufferBackend>(std::move(backend_), bcfg);
    bb_ = wrapped.get();
    backend_ = std::move(wrapped);
  }
  if (cfg_.exec != ExecModel::thread_per_client) {
    std::scoped_lock lock(threads_mu_);
    for (int i = 0; i < cfg_.workers; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  }
  if (tracer_ != nullptr) tracer_->set_thread_name(kInlineLane, "inline (receivers)");
}

IonServer::~IonServer() { stop(); }

void IonServer::ensure_lanes_locked() {
  if (!lanes_.empty()) return;
  const int n = cfg_.recv_lanes > 0 ? cfg_.recv_lanes : default_recv_lanes();
  for (int i = 0; i < n; ++i) {
    auto lane = std::make_unique<Lane>(*reg_, i);
    if (!lane->loop.valid()) break;  // out of fds: serve() refuses
    lanes_.push_back(std::move(lane));
  }
  for (auto& lane : lanes_) {
    lane->thread = std::jthread([this, l = lane.get()] { lane_loop(*l); });
  }
}

void IonServer::serve(std::unique_ptr<ByteStream> stream) {
  auto conn = std::make_shared<ClientConn>();
  conn->stream = std::move(stream);
  std::scoped_lock lock(threads_mu_);
  if (stopping_) {
    conn->stream->close();
    return;
  }
  conn->poll_fd = conn->stream->readiness_fd();
  if (conn->poll_fd >= 0) {
    ensure_lanes_locked();
    if (!lanes_.empty()) {
      // Least-connections balancing across the lane pool (the paper's
      // least-loaded-worker heuristic applied to receive).
      Lane* lane = lanes_.front().get();
      for (const auto& l : lanes_) {
        if (l->n_conns.load(std::memory_order_relaxed) <
            lane->n_conns.load(std::memory_order_relaxed)) {
          lane = l.get();
        }
      }
      const std::uint64_t key = next_conn_key_++;
      conn->lane = lane;
      conn->lane_key = key;
      {
        std::scoped_lock lane_lock(lane->mu);
        lane->conns.emplace(key, conn);
      }
      lane->n_conns.fetch_add(1, std::memory_order_relaxed);
      if (lane->loop.add(conn->poll_fd, key).is_ok()) {
        lane->c_connections.inc();
        lane->g_open_connections.set(
            static_cast<std::int64_t>(lane->n_conns.load(std::memory_order_relaxed)));
        return;
      }
      // Registration failed (fd limit?): unwind, then refuse below.
      {
        std::scoped_lock lane_lock(lane->mu);
        lane->conns.erase(key);
      }
      lane->n_conns.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // Refused: the stream cannot be polled, or no lane could take it.
  c_conns_refused_.inc();
  if (fr_) fr_->record("conn_refused", conn->poll_fd, 0, 0, static_cast<int>(Errc::unsupported));
  conn->stream->close();
}

void IonServer::feed_bytes(std::span<const std::byte> bytes) {
  auto pair = SocketTransport::make_socketpair();
  if (!pair.is_ok()) return;
  auto [server_end, peer] = std::move(pair).value();
  serve(std::move(server_end));
  // The peer writes the script from a helper thread and half-closes, while
  // this thread drains replies so the lane's send queue never backs up. EOF
  // on the peer means the lane dropped the connection: after the last byte,
  // or earlier on a fatal frame.
  std::jthread writer([&out = *peer, bytes] {
    (void)out.write_all(bytes.data(), bytes.size());
    ::shutdown(out.fd(), SHUT_WR);
  });
  std::vector<std::byte> sink(64 * 1024);
  while (true) {
    const ssize_t n = ::recv(peer->fd(), sink.data(), sink.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
  }
}

void IonServer::serve_listener(std::unique_ptr<Listener> listener) {
  std::scoped_lock lock(threads_mu_);
  listener_ = std::move(listener);
  threads_.emplace_back([this] {
    while (!stopping_) {
      auto t = listener_->accept();
      if (!t.is_ok()) break;
      serve(std::move(t).value());
    }
  });
}

void IonServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second caller: wait for the first to have finished by taking the lock.
    std::scoped_lock lock(threads_mu_);
    return;
  }
  teardown_for_stop();
  if (bb_) bb_->drain_all();  // shutdown drains every descriptor's extents
}

void IonServer::crash_stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    std::scoped_lock lock(threads_mu_);
    return;
  }
  // Same orderly thread/connection teardown as stop() — the "crash" is about
  // state, not threads: once every worker is joined, the burst buffer drops
  // its staged extents unflushed and freezes the journal as the crash image.
  teardown_for_stop();
  if (bb_) bb_->crash_discard();
}

void IonServer::teardown_for_stop() {
  if (listener_) listener_->close();
  // The lanes' maps hold every live connection; a dropped one left its map
  // (and closed its stream) already. stopping_ is set and serve() checks it
  // under threads_mu_, so lanes_ is immutable from here on.
  {
    std::scoped_lock lock(threads_mu_);
    for (auto& lane : lanes_) {
      std::scoped_lock lane_lock(lane->mu);
      for (auto& [key, c] : lane->conns) c->stream->close();
    }
  }
  // Join receiver lanes before closing the queue: a lane mid-handler may
  // still depend on workers making progress (BML releases, drain barriers).
  for (auto& lane : lanes_) lane->loop.close();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  queue_.close();
  std::vector<std::jthread> to_join;
  {
    std::scoped_lock lock(threads_mu_);
    to_join.swap(threads_);
  }
  to_join.clear();  // jthread joins on destruction
  // Every producer is joined: discard undeliverable queued replies so their
  // BML leases and burst-buffer pins return before the pool/cache teardown
  // invariants (bml_in_use == 0, cached bytes drainable) are checked.
  for (auto& lane : lanes_) {
    std::scoped_lock lane_lock(lane->mu);
    for (auto& [key, c] : lane->conns) {
      std::scoped_lock lk(c->send_mu);
      abort_send_queue_locked(*c);
    }
  }
}

void IonServer::drain() {
  // Once the callers hold a reply for every op they sent, only an
  // async-staged write can still be unexecuted. It is begun in db_ before
  // its early ack and completed after it executes, so this also covers a
  // write still on its way into the queue or just popped from it.
  {
    std::unique_lock lock(db_mu_);
    db_cv_.wait(lock, [&] { return !db_.any_in_flight(); });
  }
  if (bb_) bb_->drain_all();
}

obs::Snapshot IonServer::metrics() const {
  // Queue/pool state lives outside the registry; mirror it into gauges so
  // one Snapshot is self-contained for rendering and shipping.
  g_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  g_queue_max_depth_.set(static_cast<std::int64_t>(queue_.max_depth()));
  g_queue_batches_.set(static_cast<std::int64_t>(queue_.batches()));
  g_bml_in_use_.set(static_cast<std::int64_t>(pool_.in_use()));
  g_bml_blocked_.set(static_cast<std::int64_t>(pool_.blocked_acquires()));
  g_bml_high_watermark_.set(static_cast<std::int64_t>(pool_.high_watermark()));
  g_cpu_us_lane_.set(static_cast<std::int64_t>(lane_cpu_.total_us()));
  g_cpu_us_worker_.set(static_cast<std::int64_t>(worker_cpu_.total_us()));
  if (bb_) {
    bb_->refresh_gauges();
    g_cpu_us_flusher_.set(static_cast<std::int64_t>(bb_->flusher_cpu_us()));
  }
  {
    // The hysteresis only re-evaluates on the next write, so a server that
    // degraded and then went idle would never close its interval: accrue
    // the open part now and restart it from here.
    std::scoped_lock lock(degraded_mu_);
    if (degraded_mode_) {
      const auto now = std::chrono::steady_clock::now();
      c_degraded_ns_.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - degraded_since_).count()));
      degraded_since_ = now;
    }
  }
  return reg_->snapshot();
}

void IonServer::observe_op(const FrameHeader& req,
                           std::chrono::steady_clock::time_point arrival, const Status& st) {
  const std::uint64_t lat_us = us_since(arrival);
  if (req.op == OpCode::write) {
    h_write_lat_us_.record(lat_us);
  } else if (req.op == OpCode::read) {
    h_read_lat_us_.record(lat_us);
  }
  if (fr_) {
    fr_->record(opcode_name(req.op), req.fd, req.payload_len, lat_us,
                static_cast<int>(st.code()));
  }
}

void IonServer::finish_op(ClientConn& conn, const FrameHeader& req,
                          std::chrono::steady_clock::time_point arrival, const Status& st) {
  observe_op(req, arrival, st);
  enqueue_reply(conn, req, st);
}

void IonServer::handle_hello(ClientConn& conn, const FrameHeader& req) {
  // Version negotiation (DESIGN.md §12): the client advertises its highest
  // supported version; both sides settle on the minimum. The reply header's
  // version field carries the verdict. A v0 client never sends hello and
  // the connection simply stays at version 0 (no payload checksums).
  const std::uint16_t negotiated = std::min(req.version, cfg_.max_wire_version);
  conn.version.store(negotiated, std::memory_order_relaxed);
  // hello carries no file offset; the field doubles as the tenant (client/
  // job) id that keys fair-share scheduling and the QoS buckets (§17). A v0
  // client never says hello and stays tenant 0.
  conn.tenant.store(req.offset, std::memory_order_relaxed);
  c_hellos_.inc();
  enqueue_reply(conn, req, Status::ok());
}

void IonServer::handle_ping(ClientConn& conn, const FrameHeader& req) {
  // Liveness probe (DESIGN.md §16): answered inline on the receiver, never
  // queued behind forwarded I/O — a wedged work queue still answers pings,
  // which is exactly what the health layer wants to distinguish "slow" from
  // "gone". No descriptor, no payload, no deferred-error gate.
  enqueue_reply(conn, req, Status::ok());
}

void IonServer::handle_open(ClientConn& conn, const FrameHeader& req,
                            std::span<const std::byte> path_bytes,
                            std::chrono::steady_clock::time_point arrival) {
  if (!req.payload_crc_ok(path_bytes)) {
    // Framing is intact (the header CRC passed), so the connection is still
    // usable: bounce just this op and let the client replay it.
    c_payload_crc_errors_.inc();
    if (fr_) fr_->record("payload_crc_error", req.fd, req.payload_len, 0,
                         static_cast<int>(Errc::checksum_error));
    finish_op(conn, req, arrival, Status(Errc::checksum_error, "open path crc mismatch"));
    return;
  }
  std::string path;
  if (!path_bytes.empty()) {
    path.assign(reinterpret_cast<const char*>(path_bytes.data()), path_bytes.size());
  }
  Status st;
  {
    std::scoped_lock lock(db_mu_);
    if (!db_.open_descriptor(req.fd)) {
      st = Status(Errc::invalid_argument, "fd already open");
    }
  }
  if (st.is_ok()) {
    st = backend_->open(req.fd, path);
    if (!st.is_ok()) {
      std::scoped_lock lock(db_mu_);
      (void)db_.close_descriptor(req.fd);
    }
  }
  finish_op(conn, req, arrival, st);
}

void IonServer::handle_close(ClientConn& conn, const FrameHeader& req,
                             std::chrono::steady_clock::time_point arrival) {
  std::optional<obs::RuntimeTracer::Span> sp;
  if (tracer_ != nullptr) sp.emplace(tracer_->span(opcode_name(req.op), "op", kInlineLane));
  // Close drains: all async operations must land so the final status
  // (including deferred errors) is accurate.
  drain_descriptor(req.fd);
  Status deferred;
  {
    std::scoped_lock lock(db_mu_);
    deferred = db_.close_descriptor(req.fd);
  }
  if (!deferred.is_ok() && deferred.code() != Errc::bad_descriptor) {
    c_deferred_errors_.inc();
  }
  Status be = backend_->close(req.fd);
  finish_op(conn, req, arrival, deferred.is_ok() ? be : deferred);
}

void IonServer::handle_fsync(ClientConn& conn, const FrameHeader& req,
                             std::chrono::steady_clock::time_point arrival) {
  std::optional<obs::RuntimeTracer::Span> sp;
  if (tracer_ != nullptr) sp.emplace(tracer_->span(opcode_name(req.op), "op", kInlineLane));
  drain_descriptor(req.fd);
  if (Status deferred = consume_deferred(req.fd); !deferred.is_ok()) {
    finish_op(conn, req, arrival, deferred);
    return;
  }
  if (past_deadline(req, arrival)) {
    // The drain barrier outlived the op's budget: bounce without executing.
    c_deadline_expired_.inc();
    finish_op(conn, req, arrival, Status(Errc::timed_out, "deadline expired in drain"));
    return;
  }
  finish_op(conn, req, arrival, backend_->fsync(req.fd));
}

void IonServer::handle_fstat(ClientConn& conn, const FrameHeader& req,
                             std::chrono::steady_clock::time_point arrival) {
  // Attribute queries are synchronous (Sec. IV): drain in-flight async
  // writes so the size is accurate, surface deferred errors first.
  drain_descriptor(req.fd);
  if (Status deferred = consume_deferred(req.fd); !deferred.is_ok()) {
    finish_op(conn, req, arrival, deferred);
    return;
  }
  if (past_deadline(req, arrival)) {
    c_deadline_expired_.inc();
    finish_op(conn, req, arrival, Status(Errc::timed_out, "deadline expired in drain"));
    return;
  }
  auto sz = backend_->size(req.fd);
  if (!sz.is_ok()) {
    finish_op(conn, req, arrival, sz.status());
    return;
  }
  std::byte payload[8];
  const std::uint64_t v = sz.value();
  std::memcpy(payload, &v, 8);
  observe_op(req, arrival, Status::ok());
  // The 8-byte size lives on this stack frame: the one reply whose payload
  // is copied onto the queue (counted in server.reply.payload_copy_bytes).
  ReplyPayload p;
  p.bytes = std::span<const std::byte>(payload, 8);
  p.copy = true;
  enqueue_reply(conn, req, Status::ok(), std::move(p));
}

}  // namespace iofwd::rt
