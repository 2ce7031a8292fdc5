// IonServer reply stage (DESIGN.md §15): reply framing and the
// per-connection asynchronous send queues the lanes drain.
#include <poll.h>

#include <algorithm>
#include <array>

#include "rt/server.hpp"
#include "rt/server_lane.hpp"

namespace iofwd::rt {

namespace {
// Gather width per writev_some call: enough for 8 queued replies
// (header + payload each) without a heap allocation.
constexpr std::size_t kMaxGatherSpans = 16;
}  // namespace

void IonServer::enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status) {
  enqueue_reply(conn, req, std::move(status), ReplyPayload{});
}

void IonServer::enqueue_reply(ClientConn& conn, const FrameHeader& req, Status status,
                              ReplyPayload payload, bool staged) {
  FrameHeader rep;
  rep.type = MsgType::reply;
  rep.op = req.op;
  rep.fd = req.fd;
  rep.seq = req.seq;
  rep.offset = req.offset;
  rep.status = static_cast<std::int32_t>(status.code());
  rep.payload_len = payload.bytes.size();
  if (staged) rep.flags |= FrameHeader::kFlagStaged;
  rep.version = conn.version.load(std::memory_order_relaxed);
  // The CRC is computed straight from the lease bytes — the single pass the
  // payload takes through the CPU before the kernel gathers it.
  if (rep.version >= 1 && !payload.bytes.empty()) rep.stamp_payload_crc(payload.bytes);

  SendEntry e;
  rep.encode(std::span<std::byte, FrameHeader::kWireSize>(e.hdr));
  if (payload.copy) {
    e.copy.assign(payload.bytes.begin(), payload.bytes.end());
    e.payload = e.copy;
    c_reply_copy_bytes_.add(e.copy.size());
  } else {
    e.bml = std::move(payload.bml);
    e.bb_pin = std::move(payload.bb_pin);
    e.payload = payload.bytes;
  }

  std::scoped_lock lk(conn.send_mu);
  if (conn.peer_gone) {
    c_reply_peer_gone_.inc();
    return;  // entry destructor releases the lease
  }
  if (conn.sendq_bytes + e.total() > cfg_.send_queue_bytes) {
    // The peer has stopped reading and the bound is hit: drop the client
    // rather than buffer without limit. Closing our end wakes the lane via
    // the read side (EOF edge), which reaps the registration.
    c_reply_queue_full_.inc();
    abort_send_queue_locked(conn);
    conn.stream->close();
    return;
  }
  const std::size_t total = e.total();
  conn.sendq.push_back(std::move(e));
  conn.sendq_bytes += total;
  conn.lane->note_send_queued(static_cast<std::int64_t>(total));
  c_replies_enqueued_.inc();
  drain_send_queue_locked(conn);
}

void IonServer::drain_send_queue_locked(ClientConn& conn) {
  Lane& lane = *conn.lane;
  while (!conn.sendq.empty()) {
    // Gather the front entries' unsent header/payload slices.
    std::array<std::span<const std::byte>, kMaxGatherSpans> spans;
    std::size_t nspans = 0;
    for (const SendEntry& e : conn.sendq) {
      if (nspans + 2 > spans.size()) break;
      if (e.sent < FrameHeader::kWireSize) {
        spans[nspans++] = std::span<const std::byte>(e.hdr).subspan(e.sent);
      }
      const std::size_t psent =
          e.sent > FrameHeader::kWireSize ? e.sent - FrameHeader::kWireSize : 0;
      if (psent < e.payload.size()) spans[nspans++] = e.payload.subspan(psent);
    }
    lane.c_send_writev_calls.inc();
    auto r = conn.stream->writev_some(std::span<const std::span<const std::byte>>(
        spans.data(), nspans));
    if (!r.is_ok() || r.value() == 0) {
      if (r.is_ok() || r.code() == Errc::would_block) {
        arm_write_interest_locked(conn);
        return;
      }
      abort_send_queue_locked(conn);
      conn.stream->close();
      return;
    }
    std::size_t n = r.value();
    lane.c_send_bytes.add(n);
    conn.sendq_bytes -= n;
    lane.note_send_queued(-static_cast<std::int64_t>(n));
    while (n > 0) {
      SendEntry& e = conn.sendq.front();
      const std::size_t take = std::min(n, e.total() - e.sent);
      e.sent += take;
      n -= take;
      if (e.sent == e.total()) {
        c_replies_sent_.inc();
        c_bytes_out_.add(e.payload.size());
        conn.sendq.pop_front();  // releases the BML lease / bb pin
      }
    }
  }
  // Queue drained: drop write interest so an idle open socket stops waking
  // the lane on every send-buffer transition.
  if (conn.epollout_armed) {
    if (lane.loop.modify(conn.poll_fd, conn.lane_key, Interest::read).is_ok()) {
      conn.epollout_armed = false;
    }
  }
}

void IonServer::arm_write_interest_locked(ClientConn& conn) {
  Lane& lane = *conn.lane;
  lane.c_send_would_blocks.inc();
  // One fd carries both directions; widen the registration. EPOLL_CTL_MOD
  // re-evaluates readiness, so a buffer that drained between our would_block
  // and this call still delivers an immediate EPOLLOUT.
  if (conn.epollout_armed) return;
  if (lane.loop.modify(conn.poll_fd, conn.lane_key, Interest::read_write).is_ok()) {
    conn.epollout_armed = true;
    return;
  }
  // Could not arm (fd limit?): the reply cannot ever complete — drop it.
  abort_send_queue_locked(conn);
  conn.stream->close();
}

void IonServer::abort_send_queue_locked(ClientConn& conn) {
  if (!conn.sendq.empty()) {
    c_reply_peer_gone_.add(conn.sendq.size());
    conn.lane->note_send_queued(-static_cast<std::int64_t>(conn.sendq_bytes));
  }
  conn.sendq.clear();  // SendEntry destructors release leases and pins
  conn.sendq_bytes = 0;
  conn.peer_gone = true;
}

void IonServer::on_send_ready(ClientConn& conn) {
  std::scoped_lock lk(conn.send_mu);
  if (conn.peer_gone || conn.sendq.empty()) return;
  drain_send_queue_locked(conn);
}

void IonServer::flush_send_queue_blocking(ClientConn& conn) {
  while (!stopping_) {
    {
      std::scoped_lock lk(conn.send_mu);
      if (conn.sendq.empty() || conn.peer_gone) return;
      drain_send_queue_locked(conn);
      if (conn.sendq.empty() || conn.peer_gone) return;
    }
    // Still blocked: wait for write readiness off-lock.
    ::pollfd p{};
    p.fd = conn.poll_fd;
    p.events = POLLOUT;
    (void)::poll(&p, 1, 10);
  }
}

}  // namespace iofwd::rt
