// AsyncClient: a pipelined client with multiple outstanding requests.
//
// The plain Client is strictly request/reply. AsyncClient decouples the two
// sides: requests are sent under a window limit and a dispatcher thread
// matches replies to futures by sequence number, so a single connection can
// keep the forwarding pipeline full — the client-side analogue of what
// asynchronous data staging does on the ION. With the async-staging server,
// a write future resolves at the *staged* acknowledgement; fsync/close
// still collect deferred errors.
//
//   AsyncClient c(std::move(stream), /*window=*/16);
//   c.open(1, "f").get();
//   std::vector<std::future<Status>> fs;
//   for (...) fs.push_back(c.write(1, off, data));
//   for (auto& f : fs) check(f.get());
//   c.fsync(1).get();
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/status.hpp"
#include "rt/transport.hpp"
#include "rt/wire.hpp"

namespace iofwd::rt {

class AsyncClient {
 public:
  // `window`: maximum outstanding requests before send() blocks.
  explicit AsyncClient(std::unique_ptr<ByteStream> stream, int window = 16);
  ~AsyncClient();
  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  std::future<Status> open(int fd, const std::string& path);
  std::future<Status> write(int fd, std::uint64_t offset, std::span<const std::byte> data);
  // The read future carries the data (or the error).
  std::future<Result<std::vector<std::byte>>> read(int fd, std::uint64_t offset,
                                                   std::uint64_t len);
  std::future<Status> fsync(int fd);
  std::future<Status> close_fd(int fd);

  // Fail all pending futures and close the connection. Called by the
  // destructor; safe to call twice.
  void shutdown();

  [[nodiscard]] std::size_t outstanding() const;

 private:
  struct Pending {
    std::promise<Status> status;                         // non-read ops
    std::promise<Result<std::vector<std::byte>>> data;   // read ops
    bool is_read = false;
    std::uint64_t max_reply = 0;  // reply_payload_bound() of the request
  };

  std::future<Status> submit(FrameHeader req, std::span<const std::byte> payload);
  std::future<Result<std::vector<std::byte>>> submit_read(FrameHeader req);
  Status send_frame(FrameHeader& req, std::span<const std::byte> payload, bool is_read,
                    std::shared_ptr<Pending>& out);
  void dispatcher_loop();
  void fail_all(const Status& why);
  // Resolves p's future with `st`, and a successful read with `payload`.
  static void resolve(Pending& p, const Status& st, std::vector<std::byte> payload = {});

  std::unique_ptr<ByteStream> stream_;
  const int window_;

  mutable std::mutex mu_;
  std::condition_variable window_cv_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Pending>> pending_;
  bool closed_ = false;

  std::jthread dispatcher_;
};

}  // namespace iofwd::rt
