#include "rt/async_client.hpp"

#include <cstring>

namespace iofwd::rt {

AsyncClient::AsyncClient(std::unique_ptr<ByteStream> stream, int window)
    : stream_(std::move(stream)), window_(std::max(1, window)) {
  dispatcher_ = std::jthread([this] { dispatcher_loop(); });
}

AsyncClient::~AsyncClient() { shutdown(); }

void AsyncClient::shutdown() {
  {
    std::scoped_lock lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  stream_->close();  // unblocks the dispatcher
  window_cv_.notify_all();
}

std::size_t AsyncClient::outstanding() const {
  std::scoped_lock lock(mu_);
  return pending_.size();
}

Status AsyncClient::send_frame(FrameHeader& req, std::span<const std::byte> payload, bool is_read,
                               std::shared_ptr<Pending>& out) {
  std::unique_lock lock(mu_);
  window_cv_.wait(lock, [&] { return closed_ || static_cast<int>(pending_.size()) < window_; });
  if (closed_) return Status(Errc::shutdown, "client closed");

  req.type = MsgType::request;
  req.seq = next_seq_++;
  if (!payload.empty()) req.payload_len = payload.size();

  out = std::make_shared<Pending>();
  out->is_read = is_read;
  out->max_reply = reply_payload_bound(req);
  pending_[req.seq] = out;

  // Serialize the wire write under the same lock: frames must not interleave.
  std::byte buf[FrameHeader::kWireSize];
  req.encode(std::span<std::byte, FrameHeader::kWireSize>(buf));
  Status st = stream_->write_all(buf, sizeof buf);
  if (st.is_ok() && !payload.empty()) {
    st = stream_->write_all(payload.data(), payload.size());
  }
  if (!st.is_ok()) {
    pending_.erase(req.seq);
    out.reset();
  }
  return st;
}

std::future<Status> AsyncClient::submit(FrameHeader req, std::span<const std::byte> payload) {
  std::shared_ptr<Pending> p;
  if (Status st = send_frame(req, payload, /*is_read=*/false, p); !st.is_ok()) {
    std::promise<Status> failed;
    failed.set_value(st);
    return failed.get_future();
  }
  return p->status.get_future();
}

std::future<Result<std::vector<std::byte>>> AsyncClient::submit_read(FrameHeader req) {
  std::shared_ptr<Pending> p;
  if (Status st = send_frame(req, {}, /*is_read=*/true, p); !st.is_ok()) {
    std::promise<Result<std::vector<std::byte>>> failed;
    failed.set_value(st);
    return failed.get_future();
  }
  return p->data.get_future();
}

std::future<Status> AsyncClient::open(int fd, const std::string& path) {
  FrameHeader req;
  req.op = OpCode::open;
  req.fd = fd;
  return submit(req, std::as_bytes(std::span(path.data(), path.size())));
}

std::future<Status> AsyncClient::write(int fd, std::uint64_t offset,
                                       std::span<const std::byte> data) {
  FrameHeader req;
  req.op = OpCode::write;
  req.fd = fd;
  req.offset = offset;
  return submit(req, data);
}

std::future<Result<std::vector<std::byte>>> AsyncClient::read(int fd, std::uint64_t offset,
                                                              std::uint64_t len) {
  FrameHeader req;
  req.op = OpCode::read;
  req.fd = fd;
  req.offset = offset;
  req.payload_len = len;
  return submit_read(req);
}

std::future<Status> AsyncClient::fsync(int fd) {
  FrameHeader req;
  req.op = OpCode::fsync;
  req.fd = fd;
  return submit(req, {});
}

std::future<Status> AsyncClient::close_fd(int fd) {
  FrameHeader req;
  req.op = OpCode::close;
  req.fd = fd;
  return submit(req, {});
}

void AsyncClient::dispatcher_loop() {
  while (true) {
    std::byte buf[FrameHeader::kWireSize];
    if (!stream_->read_exact(buf, sizeof buf).is_ok()) {
      fail_all(Status(Errc::shutdown, "connection closed"));
      return;
    }
    auto hdr = FrameHeader::decode(std::span<const std::byte, FrameHeader::kWireSize>(buf));
    if (!hdr.is_ok() || hdr.value().type != MsgType::reply) {
      fail_all(Status(Errc::protocol_error, "bad reply frame"));
      return;
    }
    const FrameHeader rep = hdr.value();
    // Match the request before sizing a buffer from the header: the payload
    // may be no longer than that request can return, and an unknown seq
    // allows none. On a violation the request stays pending, so fail_all()
    // fails it too.
    std::shared_ptr<Pending> p;
    {
      std::scoped_lock lock(mu_);
      auto it = pending_.find(rep.seq);
      if (it != pending_.end() && rep.payload_len <= it->second->max_reply) {
        p = std::move(it->second);
        pending_.erase(it);
      }
    }
    if (!p && rep.payload_len > 0) {
      fail_all(Status(Errc::protocol_error, "reply payload longer than its request allows"));
      return;
    }
    window_cv_.notify_all();
    if (!p) continue;  // an empty reply to a stale/unknown seq: ignore
    std::vector<std::byte> payload(rep.payload_len);
    if (rep.payload_len > 0 &&
        !stream_->read_exact(payload.data(), payload.size()).is_ok()) {
      const Status lost(Errc::shutdown, "connection closed mid-payload");
      resolve(*p, lost);
      fail_all(lost);
      return;
    }
    const auto code = static_cast<Errc>(rep.status);
    resolve(*p, code == Errc::ok ? Status::ok() : Status(code, ""), std::move(payload));
  }
}

void AsyncClient::resolve(Pending& p, const Status& st, std::vector<std::byte> payload) {
  if (!p.is_read) {
    p.status.set_value(st);
  } else if (st.is_ok()) {
    p.data.set_value(std::move(payload));
  } else {
    p.data.set_value(st);
  }
}

void AsyncClient::fail_all(const Status& why) {
  std::map<std::uint64_t, std::shared_ptr<Pending>> doomed;
  {
    std::scoped_lock lock(mu_);
    doomed.swap(pending_);
    closed_ = true;
  }
  window_cv_.notify_all();
  for (auto& [seq, p] : doomed) resolve(*p, why);
}

}  // namespace iofwd::rt
