// Byte-stream transports for the real forwarding runtime.
//
// The server and client speak FrameHeader-framed messages over a reliable
// byte stream. Two transports are provided:
//
//   * InProcTransport — a pair of bounded byte queues guarded by mutex +
//     condition variables. Used by tests and the in-process examples; it
//     exercises the exact same framing and threading paths as sockets.
//   * SocketTransport — POSIX stream sockets (socketpair(2) or AF_UNIX /
//     AF_INET via the listener below), for running the ION server as a real
//     daemon on a Linux cluster.
//
// All streams are thread-compatible in the usual split sense: one reader
// thread and one writer thread may operate concurrently; two concurrent
// writers must synchronize externally (Client and the server's per-client
// send queue each hold their own mutex).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"

namespace iofwd::rt {

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  // --- Blocking surface ---------------------------------------------------
  //
  // Error-return convention (DESIGN.md §13/§15): blocking calls are
  // all-or-nothing and return Status; non-blocking calls report partial
  // progress and return Result<std::size_t> — the byte count on progress,
  // Errc::would_block when the stream cannot move right now, Errc::shutdown
  // once the peer is gone.

  // Blocks until exactly n bytes were read, the peer closed (shutdown), or
  // an error occurred.
  virtual Status read_exact(void* buf, std::size_t n) = 0;
  // Blocks until all n bytes were accepted. The request path (Client) uses
  // it; the server's reply path uses the non-blocking surface below.
  virtual Status write_all(const void* buf, std::size_t n) = 0;
  // Close this end; concurrent and future reads/writes fail with shutdown.
  virtual void close() = 0;

  // --- Non-blocking readiness surface (receiver/send lanes, §13/§15) -----
  //
  // A stream that can participate in an epoll event loop exposes readiness
  // fds here: edge-triggered EPOLLIN on read_readiness_fd() means
  // read_some() will make progress. Streams without readiness support
  // return -1, and IonServer::serve() refuses them.
  [[nodiscard]] virtual int read_readiness_fd() { return -1; }
  // Reads up to n bytes without blocking. Returns the count read (> 0),
  // would_block when no bytes are available right now, or shutdown at EOF.
  // The edge-triggered contract: callers must loop until would_block before
  // re-arming, and a would_block result re-arms the readiness fd.
  virtual Result<std::size_t> read_some(void* buf, std::size_t n) {
    (void)buf;
    (void)n;
    return Status(Errc::unsupported, "stream has no non-blocking read");
  }

  // Write-side readiness, symmetric with the read side. Two shapes exist:
  //   * write_readiness_fd() == read_readiness_fd() (sockets): poll EPOLLOUT
  //     on that fd to learn when write_some() can make progress again.
  //   * a distinct fd (the in-proc pipe's eventfd shim): poll it for EPOLLIN;
  //     a tick means space was freed after a would_block.
  // -1 means the stream has no non-blocking write (not servable either).
  [[nodiscard]] virtual int write_readiness_fd() { return -1; }
  // Writes up to n bytes without blocking. Returns the count accepted (> 0),
  // would_block when the stream is full (which re-arms the write readiness
  // fd), or shutdown once the peer is gone.
  virtual Result<std::size_t> write_some(const void* buf, std::size_t n) {
    (void)buf;
    (void)n;
    return Status(Errc::unsupported, "stream has no non-blocking write");
  }
  // Gathered write: accepts bytes from `iov` in order, stopping at the first
  // span that is only partially accepted. Returns the total bytes accepted
  // across spans, would_block when nothing could be accepted, or the error.
  // The default walks write_some() span by span; SocketTransport overrides
  // with a single sendmsg(2) so a framed reply leaves in one syscall.
  virtual Result<std::size_t> writev_some(std::span<const std::span<const std::byte>> iov);
};

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

// One direction of an in-process duplex pipe.
class InProcPipe {
 public:
  explicit InProcPipe(std::size_t capacity = 1 << 20) : capacity_(capacity) {}
  ~InProcPipe();

  Status read_exact(void* buf, std::size_t n);
  Status write_all(const void* buf, std::size_t n);
  void close();

  // Readiness shim: an eventfd signalled whenever bytes (or close) arrive,
  // created lazily on first request so pipes that never join an event loop
  // (the client-read direction) cost no fd. Returns -1 if eventfd(2) fails.
  [[nodiscard]] int read_readiness_fd();
  Result<std::size_t> read_some(void* buf, std::size_t n);

  // Write-side shim, symmetric: an eventfd ticked when the ring transitions
  // full -> not-full (and on close), i.e. exactly when a write_some that
  // reported would_block can make progress again.
  [[nodiscard]] int write_readiness_fd();
  Result<std::size_t> write_some(const void* buf, std::size_t n);

 private:
  void signal_locked();        // mu_ held: tick the read eventfd if one exists
  void signal_write_locked();  // mu_ held: tick the write eventfd if one exists

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::byte> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // ring_ is lazily sized to capacity_
  std::size_t count_ = 0;
  bool closed_ = false;
  int event_fd_ = -1;        // lazily created by read_readiness_fd()
  int write_event_fd_ = -1;  // lazily created by write_readiness_fd()
};

class InProcTransport final : public ByteStream {
 public:
  // Creates a connected pair (a, b): bytes written to a are read from b and
  // vice versa.
  static std::pair<std::unique_ptr<InProcTransport>, std::unique_ptr<InProcTransport>> make_pair(
      std::size_t capacity = 1 << 20);

  Status read_exact(void* buf, std::size_t n) override { return in_->read_exact(buf, n); }
  Status write_all(const void* buf, std::size_t n) override { return out_->write_all(buf, n); }
  void close() override {
    in_->close();
    out_->close();
  }
  [[nodiscard]] int read_readiness_fd() override { return in_->read_readiness_fd(); }
  Result<std::size_t> read_some(void* buf, std::size_t n) override {
    return in_->read_some(buf, n);
  }
  [[nodiscard]] int write_readiness_fd() override { return out_->write_readiness_fd(); }
  Result<std::size_t> write_some(const void* buf, std::size_t n) override {
    return out_->write_some(buf, n);
  }

 private:
  InProcTransport(std::shared_ptr<InProcPipe> in, std::shared_ptr<InProcPipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  std::shared_ptr<InProcPipe> in_;
  std::shared_ptr<InProcPipe> out_;
};

// ---------------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------------

class SocketTransport final : public ByteStream {
 public:
  explicit SocketTransport(int fd) : fd_(fd) {}
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // A connected AF_UNIX socketpair (for tests and same-host deployments).
  // Every AF_UNIX socket this layer creates (here, connect_unix and
  // UnixListener::accept) asks for a 2 MiB send buffer so a whole frame
  // crosses in one sendmsg; TCP keeps the kernel's autotuning.
  static Result<std::pair<std::unique_ptr<SocketTransport>, std::unique_ptr<SocketTransport>>>
  make_socketpair();

  // Client side: connect to a UNIX-domain listener at `path`.
  static Result<std::unique_ptr<SocketTransport>> connect_unix(const std::string& path);

  // Client side: connect to a TCP listener (IPv4 dotted-quad or hostname).
  static Result<std::unique_ptr<SocketTransport>> connect_tcp(const std::string& host,
                                                              std::uint16_t port);

  Status read_exact(void* buf, std::size_t n) override;
  Status write_all(const void* buf, std::size_t n) override;
  void close() override;

  // Sockets are natively pollable in both directions: the same fd serves
  // EPOLLIN and EPOLLOUT interest. The fd itself stays blocking — both
  // read_some (recv) and write_some/writev_some (send/sendmsg) pass
  // MSG_DONTWAIT per call, so write_all keeps its blocking compat semantics
  // while the server's send queues get would_block-based backpressure.
  [[nodiscard]] int read_readiness_fd() override { return fd_.load(); }
  Result<std::size_t> read_some(void* buf, std::size_t n) override;
  [[nodiscard]] int write_readiness_fd() override { return fd_.load(); }
  Result<std::size_t> write_some(const void* buf, std::size_t n) override;
  Result<std::size_t> writev_some(std::span<const std::span<const std::byte>> iov) override;

  [[nodiscard]] int fd() const { return fd_.load(); }

 private:
  // Atomic: close() (e.g. from the server's stop path) races with blocked
  // read_exact/write_all calls on client threads by design.
  std::atomic<int> fd_{-1};
};

// Abstract listener: the server accepts clients from either flavor.
class Listener {
 public:
  virtual ~Listener() = default;
  virtual Result<std::unique_ptr<SocketTransport>> accept() = 0;
  virtual void close() = 0;
};

// TCP listener (IPv4): the deployment path between real hosts.
class TcpListener final : public Listener {
 public:
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Port 0 picks an ephemeral port; read it back with port().
  static Result<std::unique_ptr<TcpListener>> bind(std::uint16_t port,
                                                   const std::string& bind_addr = "127.0.0.1");

  Result<std::unique_ptr<SocketTransport>> accept() override;
  void close() override;
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// UNIX-domain listener: the server binds a path and accepts SocketTransports.
class UnixListener final : public Listener {
 public:
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  static Result<std::unique_ptr<UnixListener>> bind(const std::string& path);

  // Blocks until a client connects, the listener is closed, or an error.
  Result<std::unique_ptr<SocketTransport>> accept() override;
  void close() override;

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;
};

}  // namespace iofwd::rt
