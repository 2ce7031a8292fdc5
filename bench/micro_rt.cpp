// google-benchmark micro-suite for the real runtime's hot paths:
// frame codec, buffer pool, task queue, transports, and full client/server
// write round trips per execution model.
#include <benchmark/benchmark.h>

#include <thread>

#include "core/units.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "rt/task_queue.hpp"

namespace {

using namespace iofwd;

void BM_FrameEncodeDecode(benchmark::State& state) {
  rt::FrameHeader h;
  h.op = rt::OpCode::write;
  h.fd = 7;
  h.payload_len = 1_MiB;
  std::byte buf[rt::FrameHeader::kWireSize];
  for (auto _ : state) {
    h.encode(std::span<std::byte, rt::FrameHeader::kWireSize>(buf));
    auto r = rt::FrameHeader::decode(
        std::span<const std::byte, rt::FrameHeader::kWireSize>(buf));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FrameEncodeDecode);

void BM_BufferPoolAcquireRelease(benchmark::State& state) {
  rt::BufferPool pool(1_GiB);
  const auto size = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto b = pool.acquire(size);
    benchmark::DoNotOptimize(b.value().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BufferPoolAcquireRelease)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_TaskQueuePushPop(benchmark::State& state) {
  rt::TaskQueue<int> q(4);
  for (auto _ : state) {
    q.push(1);
    auto b = q.pop_batch(8);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_TaskQueuePushPop);

void BM_TaskQueueBatched(benchmark::State& state) {
  rt::TaskQueue<int> q(4);
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) q.push(i);
    while (q.size() > 0) benchmark::DoNotOptimize(q.pop_batch(batch, false));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskQueueBatched)->Arg(8)->Arg(64);

void BM_SocketTransfer(benchmark::State& state) {
  auto [a, b] = rt::SocketTransport::make_socketpair().value();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(n), dst(n);
  std::jthread echo([&b = *b, n](const std::stop_token& st) {
    std::vector<std::byte> buf(n);
    while (!st.stop_requested()) {
      if (!b.read_exact(buf.data(), n).is_ok()) return;
      if (!b.write_all(buf.data(), n).is_ok()) return;
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(a->write_all(src.data(), n));
    benchmark::DoNotOptimize(a->read_exact(dst.data(), n));
  }
  a->close();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_SocketTransfer)->Arg(4096)->Arg(1 << 20);

void run_write_roundtrip(benchmark::State& state, rt::ExecModel exec) {
  rt::ServerConfig cfg;
  cfg.exec = exec;
  rt::IonServer server(std::make_unique<rt::MemBackend>(), cfg);
  auto [se, ce] = rt::SocketTransport::make_socketpair().value();
  server.serve(std::move(se));
  rt::Client client(std::move(ce));
  (void)client.open(1, "bench");
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::byte> data(n);
  std::uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.write(1, off, data));
    off = (off + n) % (64_MiB);
  }
  (void)client.fsync(1);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_WriteRoundtrip_ThreadPerClient(benchmark::State& state) {
  run_write_roundtrip(state, rt::ExecModel::thread_per_client);
}
void BM_WriteRoundtrip_WorkQueue(benchmark::State& state) {
  run_write_roundtrip(state, rt::ExecModel::work_queue);
}
void BM_WriteRoundtrip_AsyncStaging(benchmark::State& state) {
  run_write_roundtrip(state, rt::ExecModel::work_queue_async);
}
BENCHMARK(BM_WriteRoundtrip_ThreadPerClient)->Arg(4096)->Arg(1 << 20);
BENCHMARK(BM_WriteRoundtrip_WorkQueue)->Arg(4096)->Arg(1 << 20);
BENCHMARK(BM_WriteRoundtrip_AsyncStaging)->Arg(4096)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
