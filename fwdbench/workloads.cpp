#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bgp/machine.hpp"
#include "cluster/ion_cluster.hpp"
#include "cluster/routing_client.hpp"
#include "cluster/shard_map.hpp"
#include "core/crc32c.hpp"
#include "core/rng.hpp"
#include "obs/trace.hpp"
#include "rt/client.hpp"
#include "rt/server.hpp"
#include "rt/wire.hpp"
#include "sim/engine.hpp"
#include "wl/stream.hpp"

namespace fwdbench {
namespace {

namespace rt = iofwd::rt;
namespace cl = iofwd::cluster;
using iofwd::Status;

constexpr double kMiB = 1024.0 * 1024.0;

// ckpt_burst: N-to-1 strided checkpoint into one shared file, twice the
// burst buffer's capacity per round.
constexpr int kCkptClients = 4;
constexpr std::size_t kCkptBlock = 256 * 1024;
constexpr std::uint64_t kCkptBb = 64ull << 20;
constexpr std::uint64_t kCkptBurst = 2 * kCkptBb;
constexpr std::uint64_t kCkptBlocks = kCkptBurst / kCkptBlock;

// small_rw: uniform random 4 KiB blocks, half reads, one file per client.
constexpr int kRwClients = 3;
constexpr std::size_t kRwBlock = 4096;
constexpr std::uint64_t kRwFileBlocks = 4096;  // 16 MiB per file
constexpr int kRwOpsPerClient = 4000;          // per round

// restart_read: 1 MiB sequential reads, round-robin over each client's
// files, through a cold two-shard cluster.
constexpr int kRrClients = 2;
constexpr int kRrShards = 2;
constexpr int kRrFiles = 4;  // per client, two on each shard
constexpr std::size_t kRrChunk = 1 << 20;
constexpr std::uint64_t kRrFileChunks = 16;  // 16 MiB per file
constexpr std::uint64_t kRrBb = 64ull << 20;

// sim_ladder: the Fig. 9 point at 64 CNs, 1 MiB messages, 4 workers.
constexpr int kSimCns = 64;
constexpr int kSimIterations = 100;
constexpr int kSimSetupReps = 5;

struct SimExpect {
  iofwd::proto::Mechanism mech;
  const char* name;
  std::uint64_t events;
  double mib_s;
};
// Recorded from the simulator at the shape above; the simulator is
// deterministic, so any difference is a change in what it computes.
constexpr SimExpect kSimExpect[] = {
    {iofwd::proto::Mechanism::ciod, "ciod", 559966, 385.4266126681573},
    {iofwd::proto::Mechanism::zoid, "zoid", 533966, 425.70642056010888},
    {iofwd::proto::Mechanism::zoid_sched, "zoid_sched", 772999, 621.08279966770317},
    {iofwd::proto::Mechanism::zoid_sched_async, "zoid_sched_async", 673115, 613.07903534804063},
};

std::uint64_t key(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  iofwd::SplitMix64 sm(a * 0x9e3779b97f4a7c15ull ^ b * 0xc2b2ae3d27d4eb4full ^ c);
  return sm.next();
}

// Self-test faults: each fires once, in the first measured round.
class Injector {
 public:
  explicit Injector(const std::string& kind) : flip_(kind == "flip"), error_(kind == "error") {}
  void arm() { armed_ = true; }
  bool take_flip() { return armed_ && flip_.exchange(false); }
  bool take_error() { return armed_ && error_.exchange(false); }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> flip_;
  std::atomic<bool> error_;
};

// One untimed warm-up round, then measured rounds until `seconds` passed.
// A traced run alternates untraced and traced rounds (ending on a traced
// one), so both halves see the same inputs and the same machine state.
template <typename Round>
void run_pass(double seconds, Injector& inj, bool alternate, Round&& round) {
  round(/*warmup=*/true, /*traced=*/false);
  inj.arm();
  const auto t0 = Clock::now();
  bool traced = false;
  do {
    round(/*warmup=*/false, traced);
    traced = alternate && !traced;
  } while (secs(t0, Clock::now()) < seconds || traced);
}

// Closed-loop clients: one thread each, released together.
void run_clients(int n, const std::function<void(int)>& body) {
  std::latch start(n);
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      body(c);
    });
  }
}

struct ClientOp {
  char op;
  int client;
  int fd;
  std::uint64_t off;
  std::uint64_t len;
  Clock::time_point t0;
  Clock::time_point t1;
  double send_us;
  double wait_us;
};

// What one client thread saw during one round.
struct ClientLog {
  StreamClock clock;
  LatencyHist write_us;
  LatencyHist read_us;
  std::vector<ClientOp> ops;  // traced rounds only
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last_data{};
  Clock::time_point done{};
  std::uint64_t data_ops = 0;
  std::uint64_t good_bytes = 0;  // verified (reads) or acked (writes)

  void end_call(bool traced, char op, int client, int fd, std::uint64_t off, std::uint64_t len,
                Clock::time_point t0, Clock::time_point t1) {
    (op == 'w' ? write_us : read_us).add(usecs(t0, t1));
    first = std::min(first, t0);
    last_data = std::max(last_data, t1);
    ++data_ops;
    if (traced) ops.push_back({op, client, fd, off, len, t0, t1, clock.send_us, clock.wait_us});
  }
};

struct RoundTimes {
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last_data{};
  Clock::time_point done{};
  std::uint64_t data_ops = 0;
  std::uint64_t good_bytes = 0;
};

RoundTimes combine(const std::vector<ClientLog>& logs) {
  RoundTimes t;
  for (const auto& l : logs) {
    t.first = std::min(t.first, l.first);
    t.last_data = std::max(t.last_data, l.last_data);
    t.done = std::max(t.done, l.done);
    t.data_ops += l.data_ops;
    t.good_bytes += l.good_bytes;
  }
  return t;
}

// Per-round samples of one timed pass.
struct Pass {
  // Gated, one sample per round. goodput is write_goodput_mib_s on
  // ckpt_burst and read_goodput_mib_s on restart_read; round_s is
  // durable_s on ckpt_burst and sim_wall_s on sim_ladder.
  Dist setup_s, round_s, goodput;
  Dist ops_per_s;                  // small_rw
  LatencyHist write_us, read_us;   // per call
  std::uint64_t writes = 0;
  std::uint64_t reordered_reads = 0;  // small_rw: saw an older overlapping write
  int rounds = 0;
  std::map<std::string, Dist> sim_wall;
  std::map<std::string, std::uint64_t> sim_events;
  std::map<std::string, double> sim_mib_s;
  Dist sim_ns_per_event;

  void add_clients(const std::vector<ClientLog>& logs) {
    for (const auto& l : logs) {
      write_us.merge(l.write_us);
      read_us.merge(l.read_us);
      writes += l.write_us.count();
    }
  }
};

// Rounds of a run: all untraced, or alternately untraced and traced.
struct Passes {
  Pass plain;
  Pass traced;
};

// Everything traced rounds collect besides their pass samples.
struct Traced {
  SpanStore spans{Clock::now()};
  iofwd::obs::RuntimeTracer tracer;
  ServerDeltas deltas;
  CallLog calls;
  std::vector<ClientOp> ops;
  // Backend calls by thread role: [0] workers, [1] flushers and drains.
  Dist write_us[2];
  double write_bytes[2] = {0, 0};
  double busy_s[2] = {0, 0};
  double capacity_s[2] = {0, 0};
  Dist read_us, fsync_us;
  bool roles_known = true;
  std::vector<double> shard_ops;
  std::uint64_t fast_fails = 0;
  std::set<long> named_tids;

  void absorb_clients(std::vector<ClientLog>& logs) {
    for (auto& l : logs) {
      for (const auto& op : l.ops) {
        char args[160];
        std::snprintf(args, sizeof args,
                      R"({"fd":%d,"off":%llu,"len":%llu,"send_us":%.1f,"wait_us":%.1f})", op.fd,
                      static_cast<unsigned long long>(op.off),
                      static_cast<unsigned long long>(op.len), op.send_us, op.wait_us);
        spans.complete(op.op == 'w' ? "client.write" : "client.read", "client", 2, op.client,
                       op.t0, op.t1, args);
        if (named_tids.insert(op.client).second) {
          spans.thread_name(2, op.client, "client " + std::to_string(op.client));
        }
      }
      ops.insert(ops.end(), l.ops.begin(), l.ops.end());
    }
  }

  // `client_of` maps a forwarded fd to the client that opened it.
  void absorb_backend(const ThreadRoles& roles, double phase_s, int workers, int flushers,
                      const std::function<int(int)>& client_of) {
    roles_known = roles_known && roles.known;
    capacity_s[0] += phase_s * workers;
    capacity_s[1] += phase_s * flushers;
    for (const BackendCall& c : calls.take()) {
      const int role = roles.is_worker(c.tid) ? 0 : 1;
      const double us = usecs(c.t0, c.t1);
      const char* name = "backend.other";
      switch (c.op) {
        case 'w':
          name = "backend.write";
          write_us[role].add(us);
          write_bytes[role] += static_cast<double>(c.len);
          busy_s[role] += us / 1e6;
          break;
        case 'r':
          name = "backend.read";
          read_us.add(us);
          busy_s[role] += us / 1e6;
          break;
        case 's':
          name = "backend.fsync";
          fsync_us.add(us);
          busy_s[role] += us / 1e6;
          break;
        case 'o': name = "backend.open"; break;
        case 'c': name = "backend.close"; break;
        default: break;
      }
      char args[160];
      std::snprintf(args, sizeof args, R"({"fd":%d,"off":%llu,"len":%llu,"client":%d})", c.fd,
                    static_cast<unsigned long long>(c.offset),
                    static_cast<unsigned long long>(c.len), client_of(c.fd));
      spans.complete(name, "backend", 3, c.tid, c.t0, c.t1, args);
      if (named_tids.insert(1000000L + c.tid).second) {
        spans.thread_name(3, c.tid, role == 0 ? "backend (worker)" : "backend (flusher/drain)");
      }
    }
  }
};

// The server tracer for a round: traced rounds get it until it holds
// kMaxServerEvents, which bounds its memory on long runs.
constexpr std::size_t kMaxServerEvents = 300000;
iofwd::obs::RuntimeTracer* server_tracer(Traced* tr, bool traced) {
  return traced && tr->tracer.event_count() < kMaxServerEvents ? &tr->tracer : nullptr;
}

rt::ServerConfig server_config(iofwd::obs::RuntimeTracer* tracer) {
  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  cfg.workers = 4;
  cfg.tracer = tracer;
  return cfg;
}

std::unique_ptr<rt::IoBackend> make_backend(const std::string& root, CallLog* log) {
  std::filesystem::create_directories(root);
  std::unique_ptr<rt::IoBackend> b = std::make_unique<rt::FileBackend>(root);
  if (log != nullptr) b = std::make_unique<TimedBackend>(std::move(b), *log);
  return b;
}

std::unique_ptr<rt::Listener> listen_at(const std::string& sock) {
  auto l = rt::UnixListener::bind(sock);
  if (!l.is_ok()) throw std::runtime_error("bind " + sock + ": " + l.status().to_string());
  return std::move(l).value();
}

std::unique_ptr<rt::ByteStream> dial(const std::string& sock, StreamClock* clock) {
  auto s = rt::SocketTransport::connect_unix(sock);
  if (!s.is_ok()) throw std::runtime_error("connect " + sock + ": " + s.status().to_string());
  std::unique_ptr<rt::ByteStream> out = std::move(s).value();
  if (clock != nullptr) out = std::make_unique<TimedStream>(std::move(out), *clock);
  return out;
}

void inject_error(Injector& inj, rt::ForwardingClient& client, Tally& tally) {
  if (inj.take_error()) {
    tally.check(client.read(999999, 0, 4096).status(), "injected read on an unopened fd");
  }
}

// ---------------------------------------------------------------- workloads

void ckpt_burst(const Options& o, Injector& inj, Tally& tally, Passes& ps, Traced* tr,
                const ScratchDir& dir) {
  const Pattern pat(o.seed, kCkptBlock);
  const std::string root = dir.sub("backend");
  const std::string journal = dir.sub("journal");
  const std::string file = "ckpt.dat";
  int round_no = 0;
  run_pass(o.seconds, inj, tr != nullptr, [&](bool warmup, bool traced) {
    const auto r = static_cast<std::uint64_t>(round_no++);
    Pass& p = traced ? ps.traced : ps.plain;
    rt::ServerConfig cfg = server_config(server_tracer(tr, traced));
    cfg.bb_bytes = kCkptBb;
    cfg.bb_journal_dir = journal;
    cfg.bb_journal_fsync = false;
    const std::string sock = dir.sub("ckpt" + std::to_string(r) + ".sock");
    std::vector<ClientLog> logs(kCkptClients);
    ThreadRoles roles;

    const auto s0 = Clock::now();
    const auto before = traced ? thread_ids() : std::vector<pid_t>{};
    auto server =
        std::make_unique<rt::IonServer>(make_backend(root, traced ? &tr->calls : nullptr), cfg);
    if (traced) roles.learn(before, 1, cfg.bb_flushers, cfg.workers);
    server->serve_listener(listen_at(sock));
    std::vector<std::unique_ptr<rt::Client>> clients;
    for (int c = 0; c < kCkptClients; ++c) {
      clients.push_back(std::make_unique<rt::Client>(dial(sock, traced ? &logs[c].clock : nullptr)));
      tally.check(clients.back()->open(c + 1, file), "open");
    }
    const auto s1 = Clock::now();

    const auto snap0 = traced ? server->metrics() : iofwd::obs::Snapshot{};
    run_clients(kCkptClients, [&](int c) {
      rt::Client& client = *clients[static_cast<std::size_t>(c)];
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      std::vector<std::byte> buf(kCkptBlock);
      if (c == 0) inject_error(inj, client, tally);
      for (std::uint64_t i = static_cast<std::uint64_t>(c); i < kCkptBlocks; i += kCkptClients) {
        pat.fill(buf, r, i, 0);
        log.clock.reset();
        const auto t0 = Clock::now();
        const Status st = client.write(c + 1, i * kCkptBlock, buf);
        const auto t1 = Clock::now();
        log.end_call(traced, 'w', c, c + 1, i * kCkptBlock, kCkptBlock, t0, t1);
        if (tally.check(st, "write")) log.good_bytes += kCkptBlock;
      }
      tally.check(client.fsync(c + 1), "fsync");
      tally.check(client.close(c + 1), "close");
      log.done = Clock::now();
    });
    if (traced) tr->deltas.add(snap0, server->metrics());
    for (auto& c : clients) (void)c->shutdown();
    clients.clear();
    server->stop();
    server.reset();

    const RoundTimes t = combine(logs);
    if (traced) {
      tr->absorb_clients(logs);
      tr->absorb_backend(roles, secs(t.first, t.done), cfg.workers, cfg.bb_flushers,
                         [](int fd) { return fd - 1; });
    }
    // Golden bytes of the shared file, read back from the backend root.
    std::vector<std::byte> got(kCkptBlock);
    for (std::uint64_t i = 0; i < kCkptBlocks; ++i) {
      const std::size_t n = read_file_at(root + "/" + file, i * kCkptBlock, got);
      if (inj.take_flip()) got[kCkptBlock / 3] ^= std::byte{1};
      if (n != kCkptBlock || pat.mismatches(got, r, i, 0) != 0) {
        tally.fail("ckpt_burst: block " + std::to_string(i) + " of round " + std::to_string(r) +
                   " differs from what was written");
      }
    }
    std::filesystem::remove_all(journal);
    if (warmup) return;
    ++p.rounds;
    p.setup_s.add(secs(s0, s1));
    p.add_clients(logs);
    const double goodput = static_cast<double>(t.good_bytes) / kMiB / secs(t.first, t.last_data);
    p.goodput.add(goodput);
    p.round_s.add(secs(t.first, t.done));
  });
}

// What each block of one client's file may hold. The server acks async
// writes before running them, and overlapping writes to one region may
// complete in any order (rt/server.hpp); a read first drains every write in
// flight on its descriptor. So a block written several times since the last
// read on the file holds one of those versions, and reading it pins it down.
class VersionMap {
 public:
  explicit VersionMap(std::uint64_t blocks)
      : next_(blocks, 0), lo_(blocks, 0), hi_(blocks, 0), since_(blocks, kNone) {}
  // The version number of a new write of block b.
  std::uint32_t write(std::uint64_t b) {
    const std::uint32_t v = ++next_[b];
    if (since_[b] == kNone) {
      since_[b] = v;
      touched_.push_back(b);
    }
    return v;
  }
  // A read on the file: every write issued before it has completed.
  void barrier() {
    for (std::uint64_t b : touched_) {
      lo_[b] = since_[b];
      hi_[b] = next_[b];
      since_[b] = kNone;
    }
    touched_.clear();
  }
  void observe(std::uint64_t b, std::uint32_t v) { lo_[b] = hi_[b] = v; }
  [[nodiscard]] std::uint32_t lo(std::uint64_t b) const { return lo_[b]; }
  [[nodiscard]] std::uint32_t hi(std::uint64_t b) const { return hi_[b]; }

 private:
  static constexpr std::uint32_t kNone = ~0u;
  std::vector<std::uint32_t> next_, lo_, hi_, since_;
  std::vector<std::uint64_t> touched_;
};

void small_rw(const Options& o, Injector& inj, Tally& tally, Passes& ps, Traced* tr,
              const ScratchDir& dir) {
  const Pattern pat(o.seed, kRwBlock);
  const std::string root = dir.sub("backend");
  auto path_of = [](int c) { return "rw" + std::to_string(c) + ".dat"; };
  // Fixture: every block at version 0, written straight to the backend root.
  std::filesystem::create_directories(root);
  std::vector<VersionMap> version(kRwClients, VersionMap(kRwFileBlocks));
  std::atomic<std::uint64_t> reordered{0};
  {
    std::vector<std::byte> file(kRwFileBlocks * kRwBlock);
    for (int c = 0; c < kRwClients; ++c) {
      for (std::uint64_t b = 0; b < kRwFileBlocks; ++b) {
        pat.fill(std::span(file).subspan(b * kRwBlock, kRwBlock), static_cast<std::uint64_t>(c),
                 b, 0);
      }
      write_file_at(root + "/" + path_of(c), 0, file);
    }
  }
  int round_no = 0;
  run_pass(o.seconds, inj, tr != nullptr, [&](bool warmup, bool traced) {
    const auto r = static_cast<std::uint64_t>(round_no++);
    Pass& p = traced ? ps.traced : ps.plain;
    const rt::ServerConfig cfg = server_config(server_tracer(tr, traced));
    const std::string sock = dir.sub("rw" + std::to_string(r) + ".sock");
    std::vector<ClientLog> logs(kRwClients);
    ThreadRoles roles;

    const auto s0 = Clock::now();
    const auto before = traced ? thread_ids() : std::vector<pid_t>{};
    auto server =
        std::make_unique<rt::IonServer>(make_backend(root, traced ? &tr->calls : nullptr), cfg);
    if (traced) roles.learn(before, 1, 0, cfg.workers);
    server->serve_listener(listen_at(sock));
    std::vector<std::unique_ptr<rt::Client>> clients;
    for (int c = 0; c < kRwClients; ++c) {
      clients.push_back(std::make_unique<rt::Client>(dial(sock, traced ? &logs[c].clock : nullptr)));
      tally.check(clients.back()->open(c + 1, path_of(c)), "open");
    }
    const auto s1 = Clock::now();

    const auto snap0 = traced ? server->metrics() : iofwd::obs::Snapshot{};
    run_clients(kRwClients, [&](int c) {
      rt::Client& client = *clients[static_cast<std::size_t>(c)];
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      VersionMap& ver = version[static_cast<std::size_t>(c)];
      const int fd = c + 1;
      iofwd::Rng rng(key(o.seed, static_cast<std::uint64_t>(c), r));
      std::vector<std::byte> buf(kRwBlock);
      if (c == 0) inject_error(inj, client, tally);
      for (int k = 0; k < kRwOpsPerClient; ++k) {
        const std::uint64_t blk = rng.below(kRwFileBlocks);
        const bool is_read = (rng.next() & 1) != 0;
        log.clock.reset();
        if (!is_read) {
          pat.fill(buf, static_cast<std::uint64_t>(c), blk, ver.write(blk));
          const auto t0 = Clock::now();
          const Status st = client.write(fd, blk * kRwBlock, buf);
          const auto t1 = Clock::now();
          log.end_call(traced, 'w', c, fd, blk * kRwBlock, kRwBlock, t0, t1);
          if (tally.check(st, "write")) log.good_bytes += kRwBlock;
          continue;
        }
        ver.barrier();
        const auto t0 = Clock::now();
        auto res = client.read(fd, blk * kRwBlock, kRwBlock);
        const auto t1 = Clock::now();
        log.end_call(traced, 'r', c, fd, blk * kRwBlock, kRwBlock, t0, t1);
        if (!tally.check(res.status(), "read")) continue;
        auto& data = res.value();
        if (inj.take_flip() && !data.empty()) data[data.size() / 2] ^= std::byte{1};
        // Read-your-writes: one of the versions this client may have left there.
        bool found = false;
        for (std::uint32_t v = ver.hi(blk); !found && data.size() == kRwBlock; --v) {
          if (pat.mismatches(data, static_cast<std::uint64_t>(c), blk, v) == 0) {
            found = true;
            if (v != ver.hi(blk)) reordered.fetch_add(1, std::memory_order_relaxed);
            ver.observe(blk, v);
          }
          if (v == ver.lo(blk)) break;
        }
        if (found) {
          log.good_bytes += kRwBlock;
        } else {
          tally.fail("small_rw: client " + std::to_string(c) + " block " + std::to_string(blk) +
                     " holds none of versions " + std::to_string(ver.lo(blk)) + ".." +
                     std::to_string(ver.hi(blk)));
        }
      }
      tally.check(client.close(fd), "close");
      log.done = Clock::now();
    });
    if (traced) tr->deltas.add(snap0, server->metrics());
    for (auto& c : clients) (void)c->shutdown();
    clients.clear();
    server->stop();
    server.reset();

    const RoundTimes t = combine(logs);
    if (traced) {
      tr->absorb_clients(logs);
      tr->absorb_backend(roles, secs(t.first, t.done), cfg.workers, 0,
                         [](int fd) { return fd - 1; });
    }
    if (warmup) return;
    ++p.rounds;
    p.setup_s.add(secs(s0, s1));
    p.add_clients(logs);
    const double phase = secs(t.first, t.last_data);
    p.ops_per_s.add(static_cast<double>(t.data_ops) / phase);
    p.goodput.add(static_cast<double>(t.good_bytes) / kMiB / phase);
    p.round_s.add(secs(t.first, t.done));
  });
  ps.plain.reordered_reads = reordered.load();
}

void restart_read(const Options& o, Injector& inj, Tally& tally, Passes& ps, Traced* tr,
                  const ScratchDir& dir) {
  const Pattern pat(o.seed, kRrChunk);
  const std::string root = dir.sub("backend");
  const std::string journal = dir.sub("journal");
  // Two files of each client on each shard; fds route by the shard map.
  const cl::ShardMap map(kRrShards);
  std::vector<std::array<int, kRrFiles>> fds(kRrClients);
  std::map<int, int> client_of_fd;
  int next_fd = 1;
  for (int c = 0; c < kRrClients; ++c) {
    std::array<int, kRrShards> need{};
    need.fill(kRrFiles / kRrShards);
    for (int k = 0; k < kRrFiles;) {
      const int fd = next_fd++;
      const int s = map.shard_of(static_cast<std::uint64_t>(fd));
      if (need[static_cast<std::size_t>(s)] == 0) continue;
      --need[static_cast<std::size_t>(s)];
      fds[static_cast<std::size_t>(c)][static_cast<std::size_t>(k++)] = fd;
      client_of_fd[fd] = c;
    }
  }
  auto path_of = [](int c, int k) {
    return "rr_c" + std::to_string(c) + "_f" + std::to_string(k) + ".dat";
  };
  auto file_key = [](int c, int k) { return static_cast<std::uint64_t>(1000 + c * kRrFiles + k); };
  // Fixture: the pattern laid down in each shard's backend root.
  {
    std::vector<std::byte> chunk(kRrChunk);
    for (int c = 0; c < kRrClients; ++c) {
      for (int k = 0; k < kRrFiles; ++k) {
        const int fd = fds[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
        const std::string shard_root =
            root + "/shard" + std::to_string(map.shard_of(static_cast<std::uint64_t>(fd)));
        std::filesystem::create_directories(shard_root);
        for (std::uint64_t j = 0; j < kRrFileChunks; ++j) {
          pat.fill(chunk, file_key(c, k), j, 0);
          write_file_at(shard_root + "/" + path_of(c, k), j * kRrChunk, chunk);
        }
      }
    }
  }
  if (tr != nullptr) tr->shard_ops.assign(kRrShards, 0.0);
  int round_no = 0;
  run_pass(o.seconds, inj, tr != nullptr, [&](bool warmup, bool traced) {
    const auto r = static_cast<std::uint64_t>(round_no++);
    Pass& p = traced ? ps.traced : ps.plain;
    cl::IonClusterConfig ccfg;
    ccfg.shards = kRrShards;
    ccfg.server = server_config(server_tracer(tr, traced));
    ccfg.server.bb_bytes = kRrBb;
    ccfg.server.bb_journal_dir = journal;
    const std::string sock = dir.sub("rr" + std::to_string(r) + "_");
    std::vector<ClientLog> logs(kRrClients);
    ThreadRoles roles;
    CallLog* calls = traced ? &tr->calls : nullptr;

    const auto s0 = Clock::now();
    const auto before = traced ? thread_ids() : std::vector<pid_t>{};
    auto cluster = std::make_unique<cl::IonCluster>(
        [&](int s) { return make_backend(root + "/shard" + std::to_string(s), calls); }, ccfg);
    if (traced) roles.learn(before, kRrShards, ccfg.server.bb_flushers, ccfg.server.workers);
    for (int s = 0; s < kRrShards; ++s) {
      cluster->serve_listener(s, listen_at(sock + std::to_string(s) + ".sock"));
    }
    std::vector<std::unique_ptr<cl::RoutingClient>> clients;
    for (int c = 0; c < kRrClients; ++c) {
      std::vector<cl::RoutingClient::ShardLink> links;
      for (int s = 0; s < kRrShards; ++s) {
        links.push_back({dial(sock + std::to_string(s) + ".sock",
                              traced ? &logs[static_cast<std::size_t>(c)].clock : nullptr),
                         nullptr});
      }
      clients.push_back(std::make_unique<cl::RoutingClient>(std::move(links)));
      for (int k = 0; k < kRrFiles; ++k) {
        tally.check(clients.back()->open(fds[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)],
                                         path_of(c, k)),
                    "open");
      }
    }
    const auto s1 = Clock::now();

    std::vector<iofwd::obs::Snapshot> snap0;
    if (traced) {
      for (int s = 0; s < kRrShards; ++s) snap0.push_back(cluster->shard(s).metrics());
    }
    run_clients(kRrClients, [&](int c) {
      cl::RoutingClient& client = *clients[static_cast<std::size_t>(c)];
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      const auto& mine = fds[static_cast<std::size_t>(c)];
      if (c == 0) inject_error(inj, client, tally);
      for (std::uint64_t j = 0; j < kRrFileChunks; ++j) {
        for (int k = 0; k < kRrFiles; ++k) {
          const int fd = mine[static_cast<std::size_t>(k)];
          log.clock.reset();
          const auto t0 = Clock::now();
          auto res = client.read(fd, j * kRrChunk, kRrChunk);
          const auto t1 = Clock::now();
          log.end_call(traced, 'r', c, fd, j * kRrChunk, kRrChunk, t0, t1);
          if (!tally.check(res.status(), "read")) continue;
          auto& data = res.value();
          if (inj.take_flip() && !data.empty()) data[data.size() / 2] ^= std::byte{1};
          if (data.size() != kRrChunk || pat.mismatches(data, file_key(c, k), j, 0) != 0) {
            tally.fail("restart_read: client " + std::to_string(c) + " file " +
                       std::to_string(k) + " chunk " + std::to_string(j) +
                       " differs from the laid-down pattern");
          } else {
            log.good_bytes += kRrChunk;
          }
        }
      }
      for (int fd : mine) tally.check(client.close(fd), "close");
      log.done = Clock::now();
    });
    if (traced) {
      for (int s = 0; s < kRrShards; ++s) {
        auto after = cluster->shard(s).metrics();
        tr->shard_ops[static_cast<std::size_t>(s)] +=
            static_cast<double>(after.counter("server.ops") -
                                snap0[static_cast<std::size_t>(s)].counter("server.ops"));
        tr->deltas.add(snap0[static_cast<std::size_t>(s)], after);
      }
      for (auto& c : clients) tr->fast_fails += c->stats().breaker_fast_fails;
    }
    for (auto& c : clients) (void)c->shutdown();
    clients.clear();
    cluster->stop();
    cluster.reset();
    std::filesystem::remove_all(journal);

    const RoundTimes t = combine(logs);
    if (traced) {
      tr->absorb_clients(logs);
      tr->absorb_backend(roles, secs(t.first, t.done), kRrShards * ccfg.server.workers,
                         kRrShards * ccfg.server.bb_flushers,
                         [&](int fd) { return client_of_fd.contains(fd) ? client_of_fd[fd] : -1; });
    }
    if (warmup) return;
    ++p.rounds;
    p.setup_s.add(secs(s0, s1));
    p.add_clients(logs);
    const double goodput = static_cast<double>(t.good_bytes) / kMiB / secs(t.first, t.last_data);
    p.goodput.add(goodput);
    p.round_s.add(secs(t.first, t.done));
  });
}

void sim_ladder(const Options& o, Injector& inj, Tally& tally, Passes& ps, Traced* tr,
                const ScratchDir&) {
  const auto mcfg = iofwd::bgp::MachineConfig::intrepid();
  iofwd::proto::ForwarderConfig fc;
  fc.workers = 4;
  iofwd::wl::StreamParams sp;
  sp.cns_per_pset = kSimCns;
  sp.message_bytes = 1ull << 20;
  sp.iterations = kSimIterations;
  const double payload_mib = static_cast<double>(kSimCns) * kSimIterations;
  run_pass(o.seconds, inj, tr != nullptr, [&](bool warmup, bool traced) {
    Pass& p = traced ? ps.traced : ps.plain;
    // Set-up: building the simulated machine.
    Dist setup;
    for (int i = 0; i < kSimSetupReps; ++i) {
      const auto s0 = Clock::now();
      {
        iofwd::sim::Engine eng;
        iofwd::bgp::Machine machine(eng, mcfg);
      }
      setup.add(secs(s0, Clock::now()));
    }
    double wall = 0;
    std::uint64_t events = 0;
    for (const SimExpect& e : kSimExpect) {
      const auto t0 = Clock::now();
      auto res = iofwd::wl::run_stream(e.mech, mcfg, fc, sp);
      const auto t1 = Clock::now();
      if (traced) {
        tr->spans.complete(std::string("run_stream.") + e.name, "sim", 4, 0, t0, t1,
                           "{\"events\":" + std::to_string(res.sim_events) + "}");
      }
      tally.attempt();
      if (inj.take_flip()) ++res.sim_events;
      const bool ok = res.sim_events == e.events &&
                      std::abs(res.throughput_mib_s - e.mib_s) <= 1e-9 * std::abs(e.mib_s);
      if (!ok) {
        char why[200];
        std::snprintf(why, sizeof why,
                      "sim_ladder: %s gave %llu events at %.17g MiB/s, expected %llu at %.17g",
                      e.name, static_cast<unsigned long long>(res.sim_events),
                      res.throughput_mib_s, static_cast<unsigned long long>(e.events), e.mib_s);
        tally.fail(why);
      }
      wall += secs(t0, t1);
      events += res.sim_events;
      if (!warmup) {
        p.sim_wall[e.name].add(secs(t0, t1));
        p.sim_events[e.name] = res.sim_events;
        p.sim_mib_s[e.name] = res.throughput_mib_s;
      }
    }
    if (warmup) return;
    ++p.rounds;
    p.setup_s.merge(setup);
    p.round_s.add(wall);
    p.goodput.add(payload_mib * static_cast<double>(std::size(kSimExpect)) / wall);
    p.sim_ns_per_event.add(wall * 1e9 / static_cast<double>(events));
  });
}

using WorkloadFn = void (*)(const Options&, Injector&, Tally&, Passes&, Traced*,
                            const ScratchDir&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> m = {
      {"ckpt_burst", &ckpt_burst},
      {"small_rw", &small_rw},
      {"restart_read", &restart_read},
      {"sim_ladder", &sim_ladder},
  };
  return m;
}

// ------------------------------------------------------------------ reports

void fill_gated(const Pass& p, Report& out) {
  const auto n = static_cast<std::size_t>(p.rounds);
  out.add("setup_s", p.setup_s.median(), "s", p.setup_s.count(), "median of set-ups");
  out.add("goodput_mib_s", p.goodput.median(), "MiB/s", n, "median of rounds");
  out.add("round_s", p.round_s.median(), "s", n, "median of rounds");
}

void fill_detail(const std::string& w, const Pass& p, Report& out) {
  const auto n = static_cast<std::size_t>(p.rounds);
  if (w == "ckpt_burst") {
    out.add("write_goodput_mib_s", p.goodput.median(), "MiB/s", n, "median of rounds");
    out.add("durable_s", p.round_s.median(), "s", n, "median of rounds");
    out.add_latency("write", p.write_us);
  } else if (w == "small_rw") {
    out.add("ops_per_s", p.ops_per_s.median(), "ops/s", n, "median of rounds");
    out.add_latency("write", p.write_us);
    out.add_latency("read", p.read_us);
    out.add("reordered_reads", static_cast<double>(p.reordered_reads), "count",
            p.read_us.count(), "reads that saw an older of overlapping async writes");
  } else if (w == "restart_read") {
    out.add("read_goodput_mib_s", p.goodput.median(), "MiB/s", n, "median of rounds");
    out.add_latency("read", p.read_us);
  } else if (w == "sim_ladder") {
    out.add("sim_wall_s", p.round_s.median(), "s", n, "median of rounds");
  }
}

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A traced run prints all
// of them; those that do not apply to its workload read 0 ("n/a").
constexpr LayerDef kLayers[] = {
    {"e2e.write_goodput_mib_s", "MiB/s"},
    {"e2e.durable_s", "s"},
    {"e2e.write_p50_us", "us"},
    {"e2e.write_p99_us", "us"},
    {"e2e.ops_per_s", "ops/s"},
    {"e2e.read_p50_us", "us"},
    {"e2e.read_p99_us", "us"},
    {"e2e.read_goodput_mib_s", "MiB/s"},
    {"e2e.sim_wall_s", "s"},
    {"client.send_us.p50", "us"},
    {"client.wait_us.p50", "us"},
    {"client.self_us.p50", "us"},
    {"core.crc32c_gib_s.4k", "GiB/s"},
    {"core.crc32c_gib_s.256k", "GiB/s"},
    {"core.crc32c_gib_s.1m", "GiB/s"},
    {"wire.frame_codec_ns", "ns"},
    {"server.lane.wakeups_per_op", "ratio"},
    {"server.lane.bytes_per_wakeup", "B"},
    {"server.lane.loop_us.p50", "us"},
    {"server.queue_wait_us.p50", "us"},
    {"server.queue_wait_us.p99", "us"},
    {"server.queue_max_depth", "count"},
    {"server.exec_us.write.p50", "us"},
    {"server.exec_us.read.p50", "us"},
    {"server.read_latency_us.p50", "us"},
    {"residual_read_us.p50", "us"},
    {"server.bml_high_watermark_mib", "MiB"},
    {"server.bml_blocked", "count"},
    {"server.reply.writev_per_reply", "ratio"},
    {"server.reply.would_block_per_reply", "ratio"},
    {"server.reply.sync_fallback", "count"},
    {"server.reply.payload_copy_bytes", "B"},
    {"server.degraded_sync_writes", "per_1k_writes"},
    {"server.degraded_passthrough_ops", "per_1k_writes"},
    {"bb.degraded_writes", "per_1k_writes"},
    {"bb.stalls_per_write", "ratio"},
    {"bb.stall_ms", "ms"},
    {"bb.coalesce_ratio", "ratio"},
    {"bb.write_through_share", "ratio"},
    {"bb.flush_mib_s", "MiB/s"},
    {"bb.read_hit_ratio", "ratio"},
    {"bb.journal.appends_per_write", "ratio"},
    {"backend.write_kib_per_call.worker", "KiB"},
    {"backend.write_kib_per_call.flusher", "KiB"},
    {"backend.write_us.p50.worker", "us"},
    {"backend.write_us.p50.flusher", "us"},
    {"backend.read_us.p50", "us"},
    {"backend.fsync_us.p50", "us"},
    {"backend.busy_share.worker", "ratio"},
    {"backend.busy_share.flusher", "ratio"},
    {"cluster.shard_op_share.max", "ratio"},
    {"client.breaker.fast_fails", "count"},
    {"trace.overhead_pct", "%"},
    {"sim.events.ciod", "count"},
    {"sim.events.zoid", "count"},
    {"sim.events.zoid_sched", "count"},
    {"sim.events.zoid_sched_async", "count"},
    {"sim.wall_s.ciod", "s"},
    {"sim.wall_s.zoid", "s"},
    {"sim.wall_s.zoid_sched", "s"},
    {"sim.wall_s.zoid_sched_async", "s"},
    {"sim.mib_s.ciod", "MiB/s"},
    {"sim.mib_s.zoid", "MiB/s"},
    {"sim.mib_s.zoid_sched", "MiB/s"},
    {"sim.mib_s.zoid_sched_async", "MiB/s"},
    {"sim.ns_per_event", "ns"},
};

class LayerValues {
 public:
  void set(const std::string& name, double value, std::size_t samples, std::string how) {
    v_[name] = Metric{name, value, "", samples, true, std::move(how)};
  }
  template <typename D>
  void set_pct(const std::string& name, const D& d, double q, std::string how) {
    v_[name] = Metric{name, d.resolved(q) || q <= 0.5 ? d.pct(q) : 0.0, "", d.count(),
                      d.count() > 0 && (q <= 0.5 || d.resolved(q)), std::move(how)};
  }
  void emit(Report& out) const {
    for (const auto& [name, m] : v_) {
      if (std::none_of(std::begin(kLayers), std::end(kLayers),
                       [&](const LayerDef& d) { return name == d.name; })) {
        throw std::logic_error("per-layer metric " + name + " is not in the layer table");
      }
    }
    for (const LayerDef& d : kLayers) {
      if (auto it = v_.find(d.name); it != v_.end()) {
        out.add(d.name, it->second.value, d.unit, it->second.samples, it->second.how,
                it->second.resolved);
      } else {
        out.add(d.name, 0.0, d.unit, 0, "n/a on this workload");
      }
    }
  }

 private:
  std::map<std::string, Metric> v_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double crc_gib_s(std::size_t n) {
  std::vector<std::byte> buf(n);
  for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::byte>(i * 131 + 7);
  Dist rates;
  std::uint32_t sink = 0;
  const std::size_t iters = std::max<std::size_t>(1, (48u << 20) / n);
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) sink ^= iofwd::crc32c(buf.data(), n);
    rates.add(static_cast<double>(iters * n) / (1024.0 * kMiB) / secs(t0, Clock::now()));
  }
  if (sink == 0x12345678u) std::fprintf(stderr, " ");  // keeps the loop observable
  return rates.median();
}

double frame_codec_ns() {
  rt::FrameHeader h;
  h.op = rt::OpCode::write;
  h.fd = 3;
  h.offset = 4096;
  h.payload_len = 4096;
  std::array<std::byte, rt::FrameHeader::kWireSize> wire{};
  Dist per;
  std::uint64_t sink = 0;
  constexpr int kIters = 200000;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      h.seq = static_cast<std::uint64_t>(i);
      h.encode(wire);
      auto d = rt::FrameHeader::decode(
          std::span<const std::byte, rt::FrameHeader::kWireSize>(wire));
      if (!d.is_ok()) throw std::runtime_error("frame decode failed: " + d.status().to_string());
      sink += d.value().seq;
    }
    per.add(usecs(t0, Clock::now()) * 1000.0 / kIters);
  }
  if (sink == 1) std::fprintf(stderr, " ");  // keeps the loop observable
  return per.median();
}

// Worker op spans from the server tracer: {"ph":"X","name":"write","cat":"op",...,"tid":N,...,"dur":D}
void server_exec_spans(const std::string& json, Dist& write_us, Dist& read_us) {
  std::size_t pos = 0;
  while ((pos = json.find("{\"ph\":\"X\"", pos)) != std::string::npos) {
    const std::size_t end = json.find('}', pos);
    const std::string ev = json.substr(pos, end - pos);
    pos = end;
    if (ev.find("\"cat\":\"op\"") == std::string::npos) continue;
    const auto tid_at = ev.find("\"tid\":");
    const auto dur_at = ev.find("\"dur\":");
    if (tid_at == std::string::npos || dur_at == std::string::npos) continue;
    if (std::atoi(ev.c_str() + tid_at + 6) >= 99) continue;  // inline lane, not a worker
    const double dur = std::atof(ev.c_str() + dur_at + 6);
    if (ev.find("\"name\":\"write\"") != std::string::npos) write_us.add(dur);
    if (ev.find("\"name\":\"read\"") != std::string::npos) read_us.add(dur);
  }
}

void fill_layers(const std::string& w, const Pass& plain, const Pass& traced, Traced& tr,
                 Report& out) {
  LayerValues L;
  const auto rounds = static_cast<std::size_t>(plain.rounds);
  // End-to-end values of the untraced rounds, for the record.
  if (w == "ckpt_burst") {
    L.set("e2e.write_goodput_mib_s", plain.goodput.median(), rounds, "untraced, median");
    L.set("e2e.durable_s", plain.round_s.median(), rounds, "untraced, median");
  }
  if (plain.write_us.count() > 0) {
    L.set_pct("e2e.write_p50_us", plain.write_us, 0.5, "untraced calls");
    L.set_pct("e2e.write_p99_us", plain.write_us, 0.99, "untraced calls");
  }
  if (plain.read_us.count() > 0) {
    L.set_pct("e2e.read_p50_us", plain.read_us, 0.5, "untraced calls");
    L.set_pct("e2e.read_p99_us", plain.read_us, 0.99, "untraced calls");
  }
  if (w == "small_rw") L.set("e2e.ops_per_s", plain.ops_per_s.median(), rounds, "untraced, median");
  if (w == "restart_read") {
    L.set("e2e.read_goodput_mib_s", plain.goodput.median(), rounds, "untraced, median");
  }
  if (w == "sim_ladder") L.set("e2e.sim_wall_s", plain.round_s.median(), rounds, "untraced, median");

  // core and rt.wire, called directly.
  L.set("core.crc32c_gib_s.4k", crc_gib_s(4096), 5, "median of 5 loops");
  L.set("core.crc32c_gib_s.256k", crc_gib_s(256 * 1024), 5, "median of 5 loops");
  L.set("core.crc32c_gib_s.1m", crc_gib_s(1 << 20), 5, "median of 5 loops");
  L.set("wire.frame_codec_ns", frame_codec_ns(), 5, "encode+decode, median of 5 loops");

  const double pa = plain.goodput.median();
  L.set("trace.overhead_pct", pa > 0 ? 100.0 * (pa - traced.goodput.median()) / pa : 0.0,
        rounds + static_cast<std::size_t>(traced.rounds), "goodput_mib_s untraced vs traced");

  if (w == "sim_ladder") {
    for (const SimExpect& e : kSimExpect) {
      const std::string n = e.name;
      const auto ev = traced.sim_events.find(n);
      const auto mib = traced.sim_mib_s.find(n);
      const auto wall = traced.sim_wall.find(n);
      if (ev == traced.sim_events.end() || mib == traced.sim_mib_s.end() ||
          wall == traced.sim_wall.end()) {
        continue;
      }
      const auto cnt = wall->second.count();
      L.set("sim.events." + n, static_cast<double>(ev->second), cnt, "exact");
      L.set("sim.mib_s." + n, mib->second, cnt, "exact (simulated)");
      L.set("sim.wall_s." + n, wall->second.median(), cnt, "median of runs");
    }
    L.set("sim.ns_per_event", traced.sim_ns_per_event.median(), traced.sim_ns_per_event.count(),
          "median of rounds");
    L.emit(out);
    return;
  }

  // rt.client
  Dist send, wait, self, client_read;
  for (const ClientOp& op : tr.ops) {
    const double call = usecs(op.t0, op.t1);
    send.add(op.send_us);
    wait.add(op.wait_us);
    self.add(call - op.send_us - op.wait_us);
    if (op.op == 'r') client_read.add(call);
  }
  L.set_pct("client.send_us.p50", send, 0.5, "traced calls");
  L.set_pct("client.wait_us.p50", wait, 0.5, "traced calls");
  L.set_pct("client.self_us.p50", self, 0.5, "traced calls (call - send - wait)");

  const ServerDeltas& d = tr.deltas;
  const auto servers = d.servers();
  const double ops = d.delta("server.ops");
  const double wakeups = d.delta_matching("server.rt.lane.", ".wakeups");
  const double sent = d.delta("server.reply.sent");
  const double writes = static_cast<double>(traced.writes);
  L.set("server.lane.wakeups_per_op", ratio(wakeups, ops), servers, "counter deltas");
  L.set("server.lane.bytes_per_wakeup", ratio(d.delta_matching("server.rt.lane.", ".bytes"), wakeups),
        servers, "counter deltas");
  L.set("server.lane.loop_us.p50", d.hist_pct("server.rt.lane.", ".loop_us", 0.5), servers,
        "median over servers");
  L.set("server.queue_wait_us.p50", d.hist_pct("server.sched.queue_wait_us", "", 0.5), servers,
        "median over servers");
  L.set("server.queue_wait_us.p99", d.hist_pct("server.sched.queue_wait_us", "", 0.99), servers,
        "median over servers");
  L.set("server.queue_max_depth", d.gauge_max("server.queue_max_depth"), servers, "max gauge");

  Dist exec_w, exec_r;
  server_exec_spans(tr.tracer.to_json(), exec_w, exec_r);
  if (exec_w.count() > 0) L.set_pct("server.exec_us.write.p50", exec_w, 0.5, "tracer spans");
  if (exec_r.count() > 0) L.set_pct("server.exec_us.read.p50", exec_r, 0.5, "tracer spans");
  if (client_read.count() > 0) {
    const double srv = d.hist_pct("server.read_latency_us", "", 0.5);
    L.set("server.read_latency_us.p50", srv, servers, "median over servers");
    L.set("residual_read_us.p50", client_read.median() - srv, client_read.count(),
          "client read p50 - server read p50");
  }
  L.set("server.bml_high_watermark_mib", d.gauge_max("server.bml_high_watermark") / kMiB, servers,
        "max gauge");
  L.set("server.bml_blocked", d.delta("server.bml_blocked"), servers, "gauge deltas");
  L.set("server.reply.writev_per_reply",
        ratio(d.delta_matching("server.rt.lane.", ".send.writev_calls"), sent), servers,
        "counter deltas");
  L.set("server.reply.would_block_per_reply",
        ratio(d.delta_matching("server.rt.lane.", ".send.would_blocks"), sent), servers,
        "counter deltas");
  L.set("server.reply.sync_fallback", d.delta("server.reply.sync_fallback"), servers,
        "counter deltas");
  L.set("server.reply.payload_copy_bytes", d.delta("server.reply.payload_copy_bytes"), servers,
        "counter deltas");
  if (writes > 0) {
    L.set("server.degraded_sync_writes", 1000 * d.delta("server.degraded_sync_writes") / writes,
          servers, "per 1k client writes");
    L.set("server.degraded_passthrough_ops",
          1000 * d.delta("server.degraded_passthrough_ops") / writes, servers,
          "per 1k client writes");
  }

  const double writes_in = d.delta("bb.writes_in");
  if (w != "small_rw") {  // the burst buffer is on
    if (writes > 0) {
      L.set("bb.degraded_writes", 1000 * d.delta("bb.degraded_writes") / writes, servers,
            "per 1k client writes");
    }
    if (writes_in > 0) {
      L.set("bb.stalls_per_write", ratio(d.delta("bb.stalls"), writes_in), servers, "counter deltas");
      L.set("bb.stall_ms", d.delta("bb.stall_ns") / 1e6 / traced.rounds, servers, "per round");
      L.set("bb.coalesce_ratio", ratio(writes_in, d.delta("bb.backend_writes")), servers,
            "writes_in / backend_writes");
      L.set("bb.write_through_share",
            ratio(d.delta("bb.write_through_bytes"), d.delta("bb.bytes_in")), servers,
            "counter deltas");
      L.set("bb.flush_mib_s", ratio(d.delta("bb.flushed_bytes") / kMiB, tr.busy_s[1]), servers,
            "flushed bytes / flusher backend busy time");
      L.set("bb.journal.appends_per_write", ratio(d.delta("bb.journal.appends"), writes_in),
            servers, "counter deltas");
    }
    if (d.delta("bb.read_bytes") > 0) {
      L.set("bb.read_hit_ratio", ratio(d.delta("bb.read_hit_bytes"), d.delta("bb.read_bytes")),
            servers, "counter deltas");
    }
  }

  // rt.backend, from the timing decorator.
  const char* role_name[2] = {"worker", "flusher"};
  for (int role = 0; role < 2; ++role) {
    const std::string r = role_name[role];
    if (const auto calls = tr.write_us[role].count(); calls > 0) {
      L.set("backend.write_kib_per_call." + r,
            tr.write_bytes[role] / 1024.0 / static_cast<double>(calls), calls, "decorator");
      L.set_pct("backend.write_us.p50." + r, tr.write_us[role], 0.5, "decorator");
    }
    if (tr.capacity_s[role] > 0) {
      L.set("backend.busy_share." + r, tr.busy_s[role] / tr.capacity_s[role],
            static_cast<std::size_t>(traced.rounds), "busy time / (phase x threads)");
    }
  }
  if (tr.read_us.count() > 0) L.set_pct("backend.read_us.p50", tr.read_us, 0.5, "decorator");
  if (tr.fsync_us.count() > 0) L.set_pct("backend.fsync_us.p50", tr.fsync_us, 0.5, "decorator");
  if (!tr.roles_known) {
    std::fprintf(stderr, "fwdbench: server thread roles unknown; backend splits count every "
                         "thread as a flusher\n");
  }

  if (!tr.shard_ops.empty()) {
    double total = 0;
    double top = 0;
    for (double v : tr.shard_ops) {
      total += v;
      top = std::max(top, v);
    }
    L.set("cluster.shard_op_share.max", ratio(top, total), tr.shard_ops.size(), "server.ops deltas");
    L.set("client.breaker.fast_fails", static_cast<double>(tr.fast_fails),
          static_cast<std::size_t>(traced.rounds), "RoutingClient stats");
  }
  L.emit(out);
}

}  // namespace

bool known_workload(const std::string& name) { return workloads().contains(name); }

void run_workload(const Options& opts, Results& out) {
  const WorkloadFn fn = workloads().at(opts.workload);
  // The whole process runs on one CPU. Cross-CPU wake-ups in a VM cost
  // several times a same-CPU switch and swing with host load; on one CPU
  // the cost of each op's path, not the placement of its threads, sets the
  // rate.
  const int cpu = pin_to_one_cpu();
  const ScratchDir dir(opts.run_dir + "/" + opts.workload + "-" + std::to_string(::getpid()));
  std::printf("workload %s  seed %llu  seconds %g  trace %d  cpu %d  filesystem %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, cpu, fs_type(dir.path()).c_str());
  std::fflush(stdout);
  Injector inj(opts.inject);
  Passes ps;
  std::unique_ptr<Traced> tr = opts.trace ? std::make_unique<Traced>() : nullptr;
  fn(opts, inj, out.tally, ps, tr.get(), dir);
  fill_detail(opts.workload, ps.plain, out.detail);
  if (!tr) {
    fill_gated(ps.plain, out.gated);
    return;
  }
  fill_layers(opts.workload, ps.plain, ps.traced, *tr, out.layers);
  if (!opts.trace_out.empty()) {
    tr->spans.process_name(1, "ion server (worker lanes)");
    tr->spans.process_name(2, "clients");
    tr->spans.process_name(3, "backend calls");
    tr->spans.process_name(4, "simulator");
    std::string server = tr->tracer.to_json();
    const auto open = server.find('[');
    const auto close = server.rfind(']');
    server = (open != std::string::npos && close != std::string::npos && close > open + 1)
                 ? server.substr(open + 1, close - open - 1)
                 : std::string();
    if (Status st = tr->spans.write(opts.trace_out, server); !st.is_ok()) {
      throw std::runtime_error("trace: " + st.to_string());
    }
    std::printf("trace written to %s\n", opts.trace_out.c_str());
  }
}

}  // namespace fwdbench
