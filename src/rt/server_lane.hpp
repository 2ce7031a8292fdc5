// IonServer internals shared by its pipeline stages (server*.cpp): the
// receiver-lane struct and two helpers. Not part of the public surface.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "rt/server.hpp"

namespace iofwd::rt {

inline std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

// A receiver lane (DESIGN.md §13): one epoll event loop multiplexing many
// connections on one thread — the paper's poll-based worker structure applied
// to the receive side. Connections are keyed by an opaque 64-bit id; serve()
// inserts under mu, the lane thread drops under mu, and n_conns feeds the
// least-connections balancer without any lock.
struct IonServer::Lane {
  Lane(obs::MetricRegistry& reg, int idx)
      : index(idx),
        c_connections(reg.counter(prefix(idx) + "connections")),
        c_wakeups(reg.counter(prefix(idx) + "wakeups")),
        c_bytes(reg.counter(prefix(idx) + "bytes")),
        c_send_bytes(reg.counter(prefix(idx) + "send.bytes")),
        c_send_writev_calls(reg.counter(prefix(idx) + "send.writev_calls")),
        c_send_would_blocks(reg.counter(prefix(idx) + "send.would_blocks")),
        h_loop_us(reg.histogram(prefix(idx) + "loop_us")),
        g_open_connections(reg.gauge(prefix(idx) + "open_connections")),
        g_send_queued(reg.gauge(prefix(idx) + "send.queued_bytes")) {}

  static std::string prefix(int idx) { return "server.rt.lane." + std::to_string(idx) + "."; }

  void note_send_queued(std::int64_t delta) {
    g_send_queued.set(send_queued.fetch_add(delta, std::memory_order_relaxed) + delta);
  }

  int index;
  EventLoop loop;
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<ClientConn>> conns;
  std::atomic<std::size_t> n_conns{0};
  std::atomic<std::int64_t> send_queued{0};  // unsent reply bytes on this lane
  obs::Counter& c_connections;       // total registrations
  obs::Counter& c_wakeups;           // event-loop wakeups
  obs::Counter& c_bytes;             // raw bytes drained by this lane
  obs::Counter& c_send_bytes;        // reply bytes written by the async path
  obs::Counter& c_send_writev_calls; // gathered writev_some calls
  obs::Counter& c_send_would_blocks; // drains paused awaiting write readiness
  obs::Histogram& h_loop_us;         // time servicing one ready batch
  obs::Gauge& g_open_connections;    // currently registered connections
  obs::Gauge& g_send_queued;         // send-queue depth in bytes, lane-wide
  std::jthread thread;               // started by ensure_lanes_locked
};

}  // namespace iofwd::rt
