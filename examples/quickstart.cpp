// Quickstart: the forwarding runtime in one file.
//
// Starts an ION server (work-queue + asynchronous data staging, the paper's
// full mechanism) with an in-memory backend, connects a client over a
// socketpair, and walks through the API: open, staged writes,
// deferred-error semantics, read-after-write consistency, close.
//
//   $ ./quickstart
#include <cstdio>
#include <cstring>
#include <vector>

#include "rt/client.hpp"
#include "rt/server.hpp"

using namespace iofwd;

int main() {
  // 1. An ION server: 4 worker threads (the paper's sweet spot on the
  //    4-core BG/P ION), 64 MiB of BML staging memory.
  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  cfg.workers = 4;
  cfg.bml_bytes = 64u << 20;
  rt::IonServer server(std::make_unique<rt::MemBackend>(), cfg);

  // 2. A client connected over an AF_UNIX socketpair. (Use
  //    SocketTransport::connect_unix for a real deployment — see
  //    examples/ion_daemon.cpp.)
  auto pair = rt::SocketTransport::make_socketpair();
  if (!pair.is_ok()) {
    std::fprintf(stderr, "socketpair failed: %s\n", pair.status().to_string().c_str());
    return 1;
  }
  auto [server_end, client_end] = std::move(pair).value();
  server.serve(std::move(server_end));
  rt::Client client(std::move(client_end));

  // 3. Open a descriptor and write. In the async model write() returns as
  //    soon as the payload is staged in an ION buffer — the actual I/O
  //    happens in the background on the worker pool.
  if (Status st = client.open(1, "results.dat"); !st.is_ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.to_string().c_str());
    return 1;
  }

  std::vector<std::byte> block(1u << 20);
  for (std::size_t i = 0; i < block.size(); ++i) block[i] = static_cast<std::byte>(i);

  for (int i = 0; i < 8; ++i) {
    if (Status st = client.write(1, static_cast<std::uint64_t>(i) * block.size(), block);
        !st.is_ok()) {
      // A failure reported here may be a *deferred* error from an earlier
      // asynchronous write on this descriptor (paper Sec. IV).
      std::fprintf(stderr, "write %d: %s\n", i, st.to_string().c_str());
      return 1;
    }
    std::printf("write %d acknowledged (%s)\n", i,
                client.last_write_was_staged() ? "staged asynchronously" : "completed");
  }

  // 4. fsync is a completion barrier: it drains this descriptor's in-flight
  //    operations and reports any deferred error.
  if (Status st = client.fsync(1); !st.is_ok()) {
    std::fprintf(stderr, "fsync: %s\n", st.to_string().c_str());
    return 1;
  }

  // 5. Reads are always synchronous and see all staged writes.
  auto r = client.read(1, 7 * block.size(), block.size());
  if (!r.is_ok() || r.value() != block) {
    std::fprintf(stderr, "read-back mismatch\n");
    return 1;
  }
  std::printf("read-back of the last 1 MiB block verified\n");

  // 6. close() also drains and reports the final status.
  if (Status st = client.close(1); !st.is_ok()) {
    std::fprintf(stderr, "close: %s\n", st.to_string().c_str());
    return 1;
  }

  const auto s = server.metrics();
  std::printf("server: %llu ops, %.1f MiB in, %lld queue batches, BML high-water %.1f MiB\n",
              static_cast<unsigned long long>(s.counter("server.ops")),
              static_cast<double>(s.counter("server.bytes_in")) / (1 << 20),
              static_cast<long long>(s.gauge("server.queue_batches")),
              static_cast<double>(s.gauge("server.bml_high_watermark")) / (1 << 20));
  return 0;
}
