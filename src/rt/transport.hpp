// Byte-stream transports for the real forwarding runtime.
//
// The server and client speak FrameHeader-framed messages over a reliable
// byte stream. There is one transport, SocketTransport: POSIX stream sockets
// from socketpair(2) (tests, benches and in-process examples), an AF_UNIX
// listener (same-host daemons) or a TCP listener (between real hosts). Every
// stream is a kernel fd, so the server's epoll lanes poll one readiness shape.
//
// All streams are thread-compatible in the usual split sense: one reader
// thread and one writer thread may operate concurrently; two concurrent
// writers must synchronize externally (Client and the server's per-client
// send queue each hold their own mutex).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

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
  // A stream that can participate in an epoll event loop exposes one kernel
  // fd here: edge-triggered EPOLLIN on it means read_some() will make
  // progress, EPOLLOUT means write_some() will. Streams without readiness
  // support return -1, and IonServer::serve() refuses them.
  [[nodiscard]] virtual int readiness_fd() { return -1; }
  // The two-fd names of the same fd, kept only so decorators written
  // against them (fwdbench's TimedStream) still compile. The runtime never
  // calls them; the lanes use readiness_fd().
  virtual int read_readiness_fd() { return readiness_fd(); }
  virtual int write_readiness_fd() { return readiness_fd(); }
  // Reads up to n bytes without blocking. Returns the count read (> 0),
  // would_block when no bytes are available right now, or shutdown at EOF.
  // The edge-triggered contract: callers must loop until would_block before
  // re-arming, and a would_block result re-arms the readiness fd.
  virtual Result<std::size_t> read_some(void* buf, std::size_t n) {
    (void)buf;
    (void)n;
    return Status(Errc::unsupported, "stream has no non-blocking read");
  }
  // Writes up to n bytes without blocking. Returns the count accepted (> 0),
  // would_block when the stream is full (EPOLLOUT on the readiness fd then
  // signals space), or shutdown once the peer is gone.
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

  // The socket fd is the readiness fd for both directions. The fd itself
  // stays blocking — read_some (recv) and write_some/writev_some
  // (send/sendmsg) pass MSG_DONTWAIT per call, so write_all keeps its
  // blocking semantics while the server's send queues get would_block-based
  // backpressure.
  [[nodiscard]] int readiness_fd() override { return fd_.load(); }
  Result<std::size_t> read_some(void* buf, std::size_t n) override;
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
