#include "rt/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

namespace iofwd::rt {

// ---------------------------------------------------------------------------
// ByteStream defaults
// ---------------------------------------------------------------------------

Result<std::size_t> ByteStream::writev_some(std::span<const std::span<const std::byte>> iov) {
  std::size_t total = 0;
  for (const auto& s : iov) {
    if (s.empty()) continue;
    auto r = write_some(s.data(), s.size());
    if (!r.is_ok()) {
      // Partial progress wins over the error: the accepted bytes are on the
      // wire, so report them; the error resurfaces on the next call.
      if (total > 0) return total;
      return r;
    }
    total += r.value();
    if (r.value() < s.size()) return total;
  }
  return total;
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

namespace {

// Frame-sized send buffers for AF_UNIX stream sockets. The default
// (net.core.wmem_default, ~208 KiB) splits a 1 MiB read reply into ~8
// sendmsg calls, each followed by an EPOLLOUT re-arm and a lane wake-up.
// The kernel doubles the request for its bookkeeping, so 2 MiB yields a
// 4 MiB buffer — send_queue_bytes' default — and a whole 1 MiB reply or
// 256 KiB request leaves in one call. Best effort: the kernel silently
// clamps the value to net.core.wmem_max, and an error keeps the default.
// TCP sockets are left alone: setting SO_SNDBUF there turns off the
// kernel's send-buffer autotuning.
constexpr int kUnixSendBuffer = 2 << 20;

void size_unix_send_buffer(int fd) noexcept {
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kUnixSendBuffer, sizeof kUnixSendBuffer);
}

}  // namespace

SocketTransport::~SocketTransport() {
  close();
  // The fd itself is released only here, once no thread can still be blocked
  // inside read(2)/write(2) on it (callers join I/O threads before dropping
  // the stream). Closing it in close() instead would race with those
  // syscalls and risk the kernel reusing the fd number under them.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

Result<std::pair<std::unique_ptr<SocketTransport>, std::unique_ptr<SocketTransport>>>
SocketTransport::make_socketpair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status(Errc::io_error, std::string("socketpair: ") + std::strerror(errno));
  }
  size_unix_send_buffer(fds[0]);
  size_unix_send_buffer(fds[1]);
  return std::make_pair(std::make_unique<SocketTransport>(fds[0]),
                        std::make_unique<SocketTransport>(fds[1]));
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status(Errc::io_error, std::string("socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return Status(Errc::invalid_argument, "unix path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  size_unix_send_buffer(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    return Status(Errc::not_connected, std::string("connect: ") + std::strerror(err));
  }
  return std::make_unique<SocketTransport>(fd);
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::connect_tcp(const std::string& host,
                                                                      std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0 || res == nullptr) {
    return Status(Errc::not_connected, "cannot resolve " + host);
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return Status(Errc::io_error, std::string("socket: ") + std::strerror(errno));
  }
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    return Status(Errc::not_connected, std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<SocketTransport>(fd);
}

Status SocketTransport::read_exact(void* buf, std::size_t n) {
  auto* p = static_cast<std::byte*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd_.load(), p + got, n - got);
    if (r == 0) return Status(Errc::shutdown, "peer closed");
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status(Errc::io_error, std::string("read: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return Status::ok();
}

Result<std::size_t> SocketTransport::read_some(void* buf, std::size_t n) {
  while (true) {
    const ssize_t r = ::recv(fd_.load(), buf, n, MSG_DONTWAIT);
    if (r > 0) return static_cast<std::size_t>(r);
    if (r == 0) return Status(Errc::shutdown, "peer closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(Errc::would_block, "socket empty");
    }
    if (errno == ECONNRESET) return Status(Errc::shutdown, "connection reset");
    return Status(Errc::io_error, std::string("recv: ") + std::strerror(errno));
  }
}

Result<std::size_t> SocketTransport::write_some(const void* buf, std::size_t n) {
  while (true) {
    const ssize_t r = ::send(fd_.load(), buf, n, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(Errc::would_block, "socket full");
    }
    if (errno == EPIPE || errno == ECONNRESET) return Status(Errc::shutdown, "peer closed");
    return Status(Errc::io_error, std::string("send: ") + std::strerror(errno));
  }
}

Result<std::size_t> SocketTransport::writev_some(
    std::span<const std::span<const std::byte>> iov) {
  // One sendmsg(2) for the whole gather: a framed reply (header + payload
  // lease) leaves in a single syscall without being copied together first.
  std::array<::iovec, 16> vec{};
  std::size_t nvec = 0;
  for (const auto& s : iov) {
    if (s.empty()) continue;
    if (nvec == vec.size()) break;  // remainder goes out on the next call
    vec[nvec].iov_base = const_cast<std::byte*>(s.data());
    vec[nvec].iov_len = s.size();
    ++nvec;
  }
  if (nvec == 0) return std::size_t{0};
  ::msghdr msg{};
  msg.msg_iov = vec.data();
  msg.msg_iovlen = nvec;
  while (true) {
    const ssize_t r = ::sendmsg(fd_.load(), &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(Errc::would_block, "socket full");
    }
    if (errno == EPIPE || errno == ECONNRESET) return Status(Errc::shutdown, "peer closed");
    return Status(Errc::io_error, std::string("sendmsg: ") + std::strerror(errno));
  }
}

Status SocketTransport::write_all(const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::byte*>(buf);
  std::size_t put = 0;
  while (put < n) {
    // MSG_NOSIGNAL: a dead peer is an error status, not a process-killing
    // SIGPIPE.
    const ssize_t r = ::send(fd_.load(), p + put, n - put, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return Status(Errc::shutdown, "peer closed");
      return Status(Errc::io_error, std::string("send: ") + std::strerror(errno));
    }
    put += static_cast<std::size_t>(r);
  }
  return Status::ok();
}

void SocketTransport::close() {
  // Wake any thread blocked in read_exact/write_all: they see EOF/EPIPE and
  // return shutdown. The fd stays valid until the destructor.
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::~TcpListener() {
  close();
  if (fd_ >= 0) {
    ::close(fd_);  // deferred from close(): accept() may still be blocked there
    fd_ = -1;
  }
}

Result<std::unique_ptr<TcpListener>> TcpListener::bind(std::uint16_t port,
                                                       const std::string& bind_addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status(Errc::io_error, std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(Errc::invalid_argument, "bad bind address: " + bind_addr);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    return Status(Errc::io_error, std::string("bind/listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    return Status(Errc::io_error, std::string("getsockname: ") + std::strerror(err));
  }
  return std::unique_ptr<TcpListener>(new TcpListener(fd, ntohs(bound.sin_port)));
}

Result<std::unique_ptr<SocketTransport>> TcpListener::accept() {
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) {
    if (errno == EBADF || errno == EINVAL) return Status(Errc::shutdown, "listener closed");
    return Status(Errc::io_error, std::string("accept: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<SocketTransport>(cfd);
}

void TcpListener::close() {
  // shutdown(2) on a listening socket wakes a blocked accept(2) with EINVAL
  // (Linux); the fd is released in the destructor, after the accept loop
  // has exited.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// ---------------------------------------------------------------------------
// UnixListener
// ---------------------------------------------------------------------------

UnixListener::~UnixListener() {
  close();
  if (fd_ >= 0) {
    ::close(fd_);  // deferred from close(): accept() may still be blocked there
    fd_ = -1;
  }
}

Result<std::unique_ptr<UnixListener>> UnixListener::bind(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status(Errc::io_error, std::string("socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return Status(Errc::invalid_argument, "unix path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    return Status(Errc::io_error, std::string("bind/listen: ") + std::strerror(err));
  }
  return std::unique_ptr<UnixListener>(new UnixListener(fd, path));
}

Result<std::unique_ptr<SocketTransport>> UnixListener::accept() {
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) {
    if (errno == EBADF || errno == EINVAL) return Status(Errc::shutdown, "listener closed");
    return Status(Errc::io_error, std::string("accept: ") + std::strerror(errno));
  }
  size_unix_send_buffer(cfd);
  return std::make_unique<SocketTransport>(cfd);
}

void UnixListener::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    if (!path_.empty()) ::unlink(path_.c_str());
  }
}

}  // namespace iofwd::rt
