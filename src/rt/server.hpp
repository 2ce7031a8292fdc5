// IonServer: the real I/O-forwarding daemon.
//
// Pluggable execution models mirror the paper's mechanisms:
//   * thread_per_client  — ZOID's baseline: each operation executes inline
//     on the receive lane that decoded it, then replies (synchronous).
//   * work_queue         — I/O scheduling: receivers enqueue tasks into the
//     shared FIFO; a worker pool drains it with batched multiplexing; the
//     client still blocks until completion (synchronous staging).
//   * work_queue_async   — adds asynchronous data staging: writes are
//     copied into a BML buffer and acknowledged immediately ("staged");
//     completion status is recorded in the descriptor database and
//     surfaced on the next operation on that descriptor (deferred errors),
//     on fsync, or on close.
//
// Semantics notes (documented guarantees):
//   * open/close/fsync are always synchronous (paper Sec. IV).
//   * In async mode, a read on a descriptor first drains that descriptor's
//     in-flight writes (read barrier), so read-after-write is consistent.
//   * Overlapping async writes to the same region may complete in any
//     order (as with POSIX AIO).
//   * A deferred error is returned by the next operation on the
//     descriptor, which is then NOT executed; the error is consumed.
//   * With the burst buffer enabled (ServerConfig::bb_bytes > 0), staged
//     writes additionally land in a write-back extent cache (src/bb/) that
//     serves read-your-writes directly from cached extents and drains to the
//     inner backend in the background; its flush errors follow the same
//     deferred-error rules.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/thread_cpu.hpp"
#include "obs/trace.hpp"
#include "rt/descriptor_db.hpp"
#include "rt/admission.hpp"
#include "rt/backend.hpp"
#include "rt/event_loop.hpp"
#include "rt/filter.hpp"
#include "rt/frame_assembler.hpp"
#include "rt/bml.hpp"
#include "rt/qos.hpp"
#include "rt/scheduler.hpp"
#include "rt/task_queue.hpp"
#include "rt/transport.hpp"
#include "rt/wire.hpp"

namespace iofwd::bb {
class BurstBufferBackend;
class ClusterBbBudget;
}  // namespace iofwd::bb

namespace iofwd::rt {

struct ServerConfig {
  ExecModel exec = ExecModel::work_queue_async;
  int workers = 4;           // paper's sweet spot on a 4-core ION (Fig. 11)
  // Receiver lanes (DESIGN.md §13): a fixed pool of epoll event-loop threads
  // that multiplex every pollable connection, replacing thread-per-connection
  // receive. New connections go to the lane with the fewest — the paper's
  // least-loaded-worker heuristic. 0 = min(4, hardware_concurrency).
  int recv_lanes = 0;
  // Per-connection bound on queued-but-unsent reply bytes (headers +
  // payloads) in the asynchronous send path (DESIGN.md §15). A connection
  // whose peer stops reading accumulates gather descriptors until this cap,
  // then is dropped (counted in server.reply.queue_full) — bounding server
  // memory against slow readers the same way the BML pool bounds receives.
  std::uint64_t send_queue_bytes = 4ull << 20;
  std::uint64_t bml_bytes = 256ull << 20;
  // Burst-buffer staging cache (src/bb/): when bb_bytes > 0 the backend is
  // wrapped in a write-back extent cache with its own flusher pool, which
  // absorbs non-sequential checkpoint bursts and drains in the background.
  std::uint64_t bb_bytes = 0;  // 0 = disabled
  double bb_high_watermark = 0.75;
  double bb_low_watermark = 0.50;
  int bb_flushers = 2;
  // Cluster-wide staging budget (src/cluster/, DESIGN.md §14): when set, the
  // burst buffer reserves every cached byte against this shared accountant,
  // so the fleet's aggregate staged bytes respect one global watermark. Null
  // = standalone server (per-shard watermarks only). Must outlive the server.
  bb::ClusterBbBudget* bb_cluster_budget = nullptr;
  // Burst-buffer write-ahead journal (DESIGN.md §16): when non-empty (and
  // bb_bytes > 0), every staged extent is journaled in this directory before
  // its ack and replayed into the cache on startup, making a shard crash
  // recoverable with zero acked-data loss. Empty = no journal.
  std::string bb_journal_dir;
  bool bb_journal_fsync = false;  // fdatasync per append (host-crash durability)
  // Graceful degradation (DESIGN.md §10, decided by rt::admit()). A writer
  // waits at most stall_ms for staging space — a BML lease, or room in the
  // burst buffer — then passes through inline or writes through to the
  // inner backend (0 = wait forever, the pre-resilience behavior).
  std::uint32_t stall_ms = 100;
  // Async staging switches to synchronous staging when the task-queue depth
  // reaches degraded_queue_depth and back once it falls to a quarter of it
  // (0 = never degrade).
  std::uint64_t degraded_queue_depth = 0;
  // Work-queue dispatch policy (DESIGN.md §17): fifo (the paper's order,
  // default), prio (header priority classes), edf (earliest deadline_ms
  // first), fair (deficit round-robin on bytes across tenants). FIFO is
  // byte-for-byte the pre-scheduler behavior.
  SchedPolicy sched = SchedPolicy::fifo;
  std::uint64_t sched_quantum_bytes = kDefaultDrrQuantum;  // fair policy only
  // Per-tenant admission control (DESIGN.md §17): token buckets on bytes and
  // ops per tenant. An async write that exceeds its tenant's budget is not
  // rejected — it is demoted to synchronous staging exactly like the
  // queue-depth hysteresis, so the hot tenant absorbs its own backpressure.
  // Other exec models have nothing to demote and are not metered. Both
  // rates zero = QoS off.
  QosConfig qos;
  // Observability (src/obs/, DESIGN.md §11). Every server counter lives in
  // an obs::MetricRegistry under the "server." prefix, read through
  // IonServer::metrics(). A null registry means the server creates a private
  // one; pass a shared registry to aggregate several subsystems (retry, bb,
  // client) into a single namespace for analysis::metrics_table.
  obs::MetricRegistry* registry = nullptr;
  // Wall-clock Chrome-trace sink (ion_daemon --trace-out): per-op spans on
  // worker-lane tids plus queue-depth and BML-in-use counter tracks. Null =
  // tracing off (zero hot-path cost beyond one branch).
  obs::RuntimeTracer* tracer = nullptr;
  // Completed-op flight-recorder ring (dumped on SIGUSR1). 0 = disabled.
  std::size_t flight_recorder_ops = 256;
  // Highest wire-protocol version offered during hello negotiation
  // (DESIGN.md §12). kProtoVersion enables per-payload CRC32C with v1
  // clients; 0 emulates a legacy server (checksums stay off).
  std::uint16_t max_wire_version = kProtoVersion;
};

class IonServer {
 public:
  IonServer(std::unique_ptr<IoBackend> backend, ServerConfig cfg);
  ~IonServer();
  IonServer(const IonServer&) = delete;
  IonServer& operator=(const IonServer&) = delete;

  // Serve a connected stream: register it with the least-loaded receiver
  // lane (DESIGN.md §13). Its replies go through the asynchronous send path:
  // bounded per-connection gather queues drained by the lane under EPOLLOUT
  // (DESIGN.md §15). A stream without a readiness fd, or one no lane can
  // register (out of fds), is refused: closed, recorded in the flight
  // recorder and counted in server.conns_refused. The lane owns the
  // connection; dropping it (EOF, error) releases the stream and its fd.
  void serve(std::unique_ptr<ByteStream> stream);

  // Accept clients from a listener (UNIX or TCP) until stop() (spawns a
  // thread).
  void serve_listener(std::unique_ptr<Listener> listener);

  // Fuzz/robustness entry point (DESIGN.md §12): serve() one end of a
  // socketpair, write exactly `bytes` into the other end from a helper
  // thread and half-close it, and read and discard the replies here until
  // EOF. Returns once the lane has consumed every byte or dropped the
  // connection. This is the precise path a hostile or bit-flipped peer
  // reaches — lane receive, direct payload reads, the async reply queue —
  // and tests/fuzz/server_bytes_fuzz.cpp drives it with arbitrary inputs;
  // the checked-in corpus replays through it under ctest.
  void feed_bytes(std::span<const std::byte> bytes);

  // Install a data-filtering chain (in-situ analytics / data reduction,
  // paper Sec. VII). Must be called before clients are served; applied to
  // every forwarded write by the executing worker.
  void set_filter_chain(FilterChain chain) { filters_ = std::move(chain); }

  // Drain the queue, close client streams, join every thread. Idempotent.
  void stop();

  // Simulate a process crash (DESIGN.md §16): tear down connections and
  // threads like stop(), but DISCARD every staged burst-buffer extent
  // instead of flushing it — in-memory state dies, the write-ahead journal
  // files stay on disk as the crash image a restarted server recovers from.
  // Idempotent with stop(); whichever runs first wins.
  void crash_stop();

  // Quiesce without shutting down: wait until the task queue and every
  // in-flight worker task have drained, then flush the burst buffer.
  // Connections stay open and new ops keep flowing afterward — this is the
  // shard-aware drain a cluster uses to quiesce one ION while its siblings
  // keep serving. Callers stop issuing ops to this server first (the quiesce
  // assumption); concurrent traffic just keeps drain() polling longer.
  void drain();

  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

  // The registry behind metrics() — server-owned unless ServerConfig::registry
  // was set. Shared handles stay valid for the server's lifetime.
  [[nodiscard]] obs::MetricRegistry& registry() const { return *reg_; }
  // Unified point-in-time view of every metric, by the names in DESIGN.md
  // §11. Refreshes the queue/pool/burst-buffer gauges and accrues an open
  // degraded interval into server.degraded_ns first, so the snapshot is
  // self-contained.
  [[nodiscard]] obs::Snapshot metrics() const;
  // Completed-op ring, or nullptr when flight_recorder_ops == 0.
  [[nodiscard]] const obs::FlightRecorder* flight_recorder() const { return fr_.get(); }

  // The burst-buffer cache wrapping the backend, or nullptr when disabled.
  [[nodiscard]] const bb::BurstBufferBackend* burst_buffer() const { return bb_; }

 private:
  struct Lane;  // receiver lane: epoll loop + its connections (server_lane.hpp)

  // Receive-side state of the op currently being reassembled. Only the one
  // lane thread that owns the connection touches it, so it needs no locking.
  // Staging is chosen at header time, so BML backpressure lands before the
  // payload bytes are consumed.
  struct RxPending {
    enum class Staging { none, bml, heap, discard };
    FrameHeader req{};
    std::chrono::steady_clock::time_point arrival{};
    Staging staging = Staging::none;
    Buffer bml;                    // staged write payload (BML lease)
    std::vector<std::byte> heap;   // open path / pass-through write payload
    Status bounce;                 // discard: replied once the bytes are consumed
  };

  // One queued reply awaiting transmission: an encoded header plus a view of
  // the payload bytes, pinned by whichever lease backs them. The payload is
  // never copied onto the queue — `bml` (a pool lease moved off the read
  // path) or `bb_pin` (a burst-buffer extent pin) keeps the viewed bytes
  // alive until the last byte is accepted by the kernel; `copy` is the one
  // exception, for tiny fixed-size payloads like fstat's 8-byte size.
  struct SendEntry {
    std::array<std::byte, FrameHeader::kWireSize> hdr{};
    Buffer bml;
    std::shared_ptr<Buffer> bb_pin;
    std::vector<std::byte> copy;
    std::span<const std::byte> payload;
    std::size_t sent = 0;  // bytes of hdr+payload already accepted

    [[nodiscard]] std::size_t total() const { return FrameHeader::kWireSize + payload.size(); }
  };

  // What a reply carries and what keeps it alive (see SendEntry). Move-only
  // because it may own a BML lease.
  struct ReplyPayload {
    std::span<const std::byte> bytes{};
    Buffer bml{};
    std::shared_ptr<Buffer> bb_pin{};
    bool copy = false;  // memcpy bytes at enqueue (counted, tiny payloads only)
  };

  struct ClientConn {
    std::unique_ptr<ByteStream> stream;
    // Negotiated wire version: 0 until (unless) the client sends `hello`,
    // then min(client, server). Atomic because workers stamp replies while
    // the lane negotiates.
    std::atomic<std::uint16_t> version{0};
    // Tenant (client/job) id from the hello handshake's offset field; 0 for
    // v0 clients (one shared "anonymous" tenant). Keys the fair scheduler
    // and the QoS buckets. Atomic for the same negotiation race as version.
    std::atomic<std::uint64_t> tenant{0};
    // Receiver-lane state (owned by the lane thread).
    FrameAssembler assembler;
    RxPending rx;
    Lane* lane = nullptr;        // the lane serving this connection
    std::uint64_t lane_key = 0;  // epoll registration key within that lane
    int poll_fd = -1;            // cached stream->readiness_fd()
    // Asynchronous send queue (DESIGN.md §15), guarded by send_mu. Entries
    // are drained by whoever holds send_mu — enqueuer or lane thread — with
    // gathered writev_some calls; on would_block the connection arms write
    // interest with its lane and the lane resumes the drain on EPOLLOUT.
    std::mutex send_mu;
    std::deque<SendEntry> sendq;
    std::uint64_t sendq_bytes = 0;    // unsent bytes queued (hdr + payload)
    bool epollout_armed = false;      // registration is read_write
    bool peer_gone = false;           // sends are futile; drop new replies
  };

  struct Task {
    std::shared_ptr<ClientConn> conn;
    FrameHeader req;
    Buffer payload;            // staged write data (owned)
    // async_stage: the staged ack went out at enqueue, so completion lands
    // in the descriptor db (at db_seq) instead of a reply.
    Verdict verdict = Verdict::sync_stage;
    std::uint64_t db_seq = 0;
    // Arrival time at the server; the req.deadline_ms budget counts from
    // here while the task waits in the queue.
    std::chrono::steady_clock::time_point arrival{};
  };

  // Trace tid for ops executed inline on a receive lane (thread-per-client
  // mode, degraded pass-through, open/close/fsync/fstat). Worker lanes use
  // their pool index 0..workers-1.
  static constexpr int kInlineLane = 99;

  // Receive path (DESIGN.md §13, server_receive.cpp). Each lane polls its
  // connections and feeds raw bytes through FrameAssembler ->
  // on_header/on_frame; payloads are read straight into their staging.
  void lane_loop(Lane& lane);
  void drop_lane_conn(Lane& lane, std::uint64_t key, ClientConn& conn, Errc reason);
  Result<FrameAssembler::Sink> on_header(
      ClientConn& conn, std::span<const std::byte, FrameHeader::kWireSize> hdr_bytes);
  Status on_frame(const std::shared_ptr<ClientConn>& conn);
  // Spawn the lane pool on first pollable connection (threads_mu_ held).
  void ensure_lanes_locked();

  // Execute path (server_execute.cpp).
  void worker_loop(int lane);
  void execute_task(Task& t, int lane);
  // Apply the filter chain (if any) and issue the backend write of `lease`,
  // or of `heap` when there is no lease. The lease is released on return.
  Status do_write(const FrameHeader& req, Buffer& lease, std::vector<std::byte> heap);
  // True if the op's deadline budget has run out (deadline_ms > 0 only).
  [[nodiscard]] static bool past_deadline(const FrameHeader& req,
                                          std::chrono::steady_clock::time_point arrival);
  // Queue-depth hysteresis (admit()'s depth probe): steps and accounts the
  // sync-staging mode.
  bool degraded_now(std::size_t queue_depth);
  // Scheduling metadata for a queued data op (DESIGN.md §17).
  [[nodiscard]] static SchedMeta sched_meta(const ClientConn& conn, const FrameHeader& req,
                                            std::chrono::steady_clock::time_point arrival);

  // Shared thread/connection teardown behind stop() and crash_stop(); the
  // two differ only in what happens to the burst buffer afterwards.
  void teardown_for_stop();

  // Completed-op bookkeeping: latency histogram (write/read) + flight ring.
  void observe_op(const FrameHeader& req, std::chrono::steady_clock::time_point arrival,
                  const Status& st);
  // observe_op, then a payload-less reply carrying the op's status.
  void finish_op(ClientConn& conn, const FrameHeader& req,
                 std::chrono::steady_clock::time_point arrival, const Status& st);

  // Inline op handlers, run on the lane thread. Payload-carrying ops receive
  // their fully assembled payload; the others run at frame completion.
  void handle_hello(ClientConn& conn, const FrameHeader& req);
  void handle_ping(ClientConn& conn, const FrameHeader& req);
  void handle_open(ClientConn& conn, const FrameHeader& req,
                   std::span<const std::byte> path_bytes,
                   std::chrono::steady_clock::time_point arrival);
  void handle_close(ClientConn& conn, const FrameHeader& req,
                    std::chrono::steady_clock::time_point arrival);
  void handle_fsync(ClientConn& conn, const FrameHeader& req,
                    std::chrono::steady_clock::time_point arrival);
  void handle_fstat(ClientConn& conn, const FrameHeader& req,
                    std::chrono::steady_clock::time_point arrival);
  void handle_write(const std::shared_ptr<ClientConn>& conn, RxPending& rx);
  void handle_read(const std::shared_ptr<ClientConn>& conn, const FrameHeader& req,
                   std::chrono::steady_clock::time_point arrival);

  // Reply path (DESIGN.md §15, server_reply.cpp). enqueue_reply builds the
  // reply header (stamping the payload CRC straight from the lease bytes)
  // and queues a gather descriptor on the connection's send queue.
  // Failures are accounted in server.reply.*, never returned: a reply that
  // cannot be delivered means the peer is gone or hopelessly slow, and the
  // connection is dropped.
  void enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status);
  void enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status,
                     ReplyPayload payload, bool staged = false);
  // Drain the queue with gathered writev_some until empty or would_block
  // (conn.send_mu must be held). Arms/disarms lane write interest.
  void drain_send_queue_locked(ClientConn& conn);
  void arm_write_interest_locked(ClientConn& conn);
  // Discard every queued entry (releases leases) and mark the peer gone.
  void abort_send_queue_locked(ClientConn& conn);
  // Lane EPOLLOUT dispatch: resume the drain for this connection.
  void on_send_ready(ClientConn& conn);
  // Block (politely, with poll) until the queue flushes — used for the
  // shutdown goodbye so the reply beats the connection teardown.
  void flush_send_queue_blocking(ClientConn& conn);

  // Deferred-error gate: non-ok means the op must bounce without executing.
  Status consume_deferred(int fd);
  void drain_descriptor(int fd);
  void note_completed(int fd, std::uint64_t seq, const Status& st);

  // Declared before backend_, so it outlives the burst buffer, which keeps
  // counters in it and drains in its destructor.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* reg_;  // never null
  std::unique_ptr<IoBackend> backend_;
  bb::BurstBufferBackend* bb_ = nullptr;  // owned via backend_ when enabled
  ServerConfig cfg_;
  FilterChain filters_;
  BufferPool pool_;
  TaskQueue<Task> queue_;
  std::unique_ptr<QosGovernor> qos_;  // null when QoS is off

  // Observability: registry-backed counters. Handles are registered once
  // here; the hot path only does relaxed atomic adds.
  obs::RuntimeTracer* tracer_;            // null = tracing off
  std::unique_ptr<obs::FlightRecorder> fr_;
  obs::Counter& c_ops_;
  obs::Counter& c_bytes_in_;
  obs::Counter& c_bytes_out_;
  obs::Counter& c_deferred_errors_;
  obs::Counter& c_filter_bytes_in_;
  obs::Counter& c_filter_bytes_out_;
  obs::Counter& c_deadline_expired_;
  obs::Counter& c_bml_timeouts_;
  obs::Counter& c_degraded_passthrough_;
  obs::Counter& c_degraded_sync_writes_;
  obs::Counter& c_degraded_enters_;
  obs::Counter& c_degraded_ns_;
  // server.admit.<verdict>.<reason>, one per entry of kAdmissions.
  std::array<obs::Counter*, kAdmissions.size()> c_admit_{};
  obs::Counter& c_hellos_;
  obs::Counter& c_header_crc_errors_;
  obs::Counter& c_payload_crc_errors_;
  obs::Counter& c_frames_rejected_;
  obs::Counter& c_conns_refused_;
  obs::Counter& c_replies_enqueued_;
  obs::Counter& c_replies_sent_;
  obs::Counter& c_reply_queue_full_;
  obs::Counter& c_reply_peer_gone_;
  obs::Counter& c_reply_copy_bytes_;
  obs::Histogram& h_write_lat_us_;
  obs::Histogram& h_read_lat_us_;
  obs::Histogram& h_queue_wait_us_;  // server.sched.queue_wait_us
  // Instantaneous queue/pool state, refreshed by metrics().
  obs::Gauge& g_queue_depth_;
  obs::Gauge& g_queue_max_depth_;
  obs::Gauge& g_queue_batches_;
  obs::Gauge& g_bml_in_use_;
  obs::Gauge& g_bml_blocked_;
  obs::Gauge& g_bml_high_watermark_;
  // CPU time by thread role (server.cpu_us.*), read by metrics().
  obs::RoleCpu lane_cpu_;
  obs::RoleCpu worker_cpu_;
  obs::Gauge& g_cpu_us_lane_;
  obs::Gauge& g_cpu_us_worker_;
  obs::Gauge& g_cpu_us_flusher_;

  std::mutex db_mu_;
  std::condition_variable db_cv_;
  DescriptorDb db_;

  std::mutex threads_mu_;
  std::vector<std::jthread> threads_;
  std::unique_ptr<Listener> listener_;
  std::atomic<bool> stopping_{false};
  // Tasks popped from the queue but not yet executed to completion; drain()
  // waits for queue empty AND this zero before flushing the burst buffer.
  std::atomic<std::uint64_t> tasks_in_flight_{0};

  // Receiver lanes, spawned lazily on the first pollable connection
  // (guarded by threads_mu_ until then; immutable afterwards).
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t next_conn_key_ = 1;  // threads_mu_ held

  // Sync-staging degradation state (hysteresis), guarded by degraded_mu_.
  // degraded_since_ marks the start of the time not yet in
  // server.degraded_ns: the mode switch, or the last metrics() call.
  mutable std::mutex degraded_mu_;
  bool degraded_mode_ = false;
  mutable std::chrono::steady_clock::time_point degraded_since_{};
};

}  // namespace iofwd::rt
