#include "testsupport/testsupport.hpp"

#include <array>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <stdlib.h>  // mkdtemp
#include <sys/socket.h>

#include "core/rng.hpp"

namespace iofwd::testsupport {

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& x : v) x = static_cast<std::byte>(rng.next());
  return v;
}

std::uint64_t test_seed(const char* label, std::uint64_t dflt) {
  std::uint64_t seed = dflt;
  const char* env = std::getenv("IOFWD_TEST_SEED");
  const bool overridden = env != nullptr && *env != '\0';
  if (overridden) {
    seed = std::strtoull(env, nullptr, 0);  // base 0: decimal or 0x hex
  }
  std::fprintf(stderr, "[%s] seed 0x%" PRIx64 "%s (replay: IOFWD_TEST_SEED=0x%" PRIx64 ")\n",
               label, seed, overridden ? " (from IOFWD_TEST_SEED)" : "", seed);
  return seed;
}

bool unix_send_buffers_unclamped() {
  std::ifstream in("/proc/sys/net/core/wmem_max");
  std::uint64_t wmem_max = 0;
  return static_cast<bool>(in >> wmem_max) && wmem_max >= (2u << 20);
}

bool set_send_buffer(rt::SocketTransport& end, std::size_t bytes) {
  const int half = static_cast<int>(bytes / 2);
  return ::setsockopt(end.fd(), SOL_SOCKET, SO_SNDBUF, &half, sizeof half) == 0;
}

std::jthread claiming_server(std::unique_ptr<rt::SocketTransport> end, std::uint64_t claimed,
                             std::size_t sent, std::uint64_t seq_shift) {
  return std::jthread([end = std::move(end), claimed, sent, seq_shift] {
    using rt::FrameHeader;
    std::array<std::byte, FrameHeader::kWireSize> buf{};
    if (!end->read_exact(buf.data(), buf.size()).is_ok()) return;
    auto req = FrameHeader::decode(std::span<const std::byte, FrameHeader::kWireSize>(buf));
    if (!req.is_ok()) return;
    if (req.value().op != rt::OpCode::read) {
      std::vector<std::byte> body(req.value().payload_len);
      if (!end->read_exact(body.data(), body.size()).is_ok()) return;
    }
    FrameHeader rep;
    rep.type = rt::MsgType::reply;
    rep.op = req.value().op;
    rep.fd = req.value().fd;
    rep.seq = req.value().seq + seq_shift;
    rep.payload_len = claimed;
    rep.encode(std::span<std::byte, FrameHeader::kWireSize>(buf));
    (void)end->write_all(buf.data(), buf.size());
    const std::vector<std::byte> body(sent, std::byte{0x5a});
    (void)end->write_all(body.data(), body.size());
    end->close();
  });
}

std::unique_ptr<rt::IoBackend> TestCluster::make_backend_chain(int shard) {
  // The terminal MemBackend is owned by the TestCluster and merely borrowed
  // by the chain: restart_shard() rebuilds the chain, and the shard must
  // come back over the same storage (an ION crash does not lose the PFS).
  const auto k = static_cast<std::size_t>(shard);
  while (owned_mems_.size() <= k) {
    owned_mems_.push_back(std::make_unique<rt::MemBackend>());
    mems_.push_back(owned_mems_.back().get());
  }
  std::unique_ptr<rt::IoBackend> backend = std::make_unique<BorrowedBackend>(*owned_mems_[k]);
  backend = std::make_unique<fault::FaultyBackend>(std::move(backend), backend_plan_);
  if (opts_.retry != nullptr) {
    backend = std::make_unique<fault::RetryingBackend>(std::move(backend), *opts_.retry);
  }
  return backend;
}

TestCluster::TestCluster(ClusterOptions opts) : opts_(std::move(opts)) {
  backend_plan_ = opts_.backend_plan ? opts_.backend_plan : std::make_shared<fault::FaultPlan>();

  if (opts_.bb_journal && opts_.server.bb_journal_dir.empty()) {
    char tmpl[] = "/tmp/iofwd-journal-XXXXXX";
    if (char* dir = mkdtemp(tmpl)) {
      journal_root_ = dir;
      owns_journal_root_ = true;
      opts_.server.bb_journal_dir = journal_root_;
    }
  } else if (!opts_.server.bb_journal_dir.empty()) {
    journal_root_ = opts_.server.bb_journal_dir;
  }

  if (opts_.shards > 0) {
    cluster::IonClusterConfig ccfg;
    ccfg.shards = opts_.shards;
    ccfg.server = opts_.server;
    if (opts_.with_tracer) ccfg.server.tracer = &tracer_;
    ccfg.cluster_bb_bytes = opts_.cluster_bb_bytes;
    ccfg.cluster_bb_high_watermark = opts_.cluster_bb_high_watermark;
    ccfg.cluster_bb_low_watermark = opts_.cluster_bb_low_watermark;
    cluster_ = std::make_unique<cluster::IonCluster>(
        [this](int s) { return make_backend_chain(s); }, ccfg);
  } else {
    rt::ServerConfig cfg = opts_.server;
    if (cfg.registry == nullptr) cfg.registry = &registry_;
    if (opts_.with_tracer) cfg.tracer = &tracer_;
    server_ = std::make_unique<rt::IonServer>(make_backend_chain(0), cfg);
  }

  for (int i = 0; i < opts_.clients; ++i) {
    ClientSpec spec;
    spec.cfg = opts_.client;
    spec.reconnectable = opts_.reconnectable;
    spec.faulty_redials = opts_.stream_plan != nullptr;
    add_client(std::move(spec));
  }
}

TestCluster::~TestCluster() {
  stop();
  if (owns_journal_root_ && !journal_root_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(journal_root_, ec);  // best effort
  }
}

void TestCluster::kill_shard(int i) {
  assert(cluster_ && "kill_shard() requires a sharded TestCluster");
  cluster_->kill_shard(i);
}

void TestCluster::restart_shard(int i) {
  assert(cluster_ && "restart_shard() requires a sharded TestCluster");
  cluster_->restart_shard(i);
}

rt::IonServer& TestCluster::server(int i) {
  if (cluster_) return cluster_->shard(i);
  assert(i == 0 && "classic TestCluster has exactly one server");
  return *server_;
}

cluster::RoutingClient& TestCluster::routing_client(std::size_t i) {
  auto* rc = dynamic_cast<cluster::RoutingClient*>(clients_.at(i).get());
  assert(rc != nullptr && "routing_client() requires a sharded TestCluster");
  return *rc;
}

Result<std::unique_ptr<rt::ByteStream>> TestCluster::dial(
    int shard, const std::shared_ptr<fault::FaultPlan>& stream_plan,
    std::uint64_t cut_after_write_bytes) {
  auto pair = rt::SocketTransport::make_socketpair();
  if (!pair.is_ok()) return pair.status();
  auto [s, c] = std::move(pair).value();
  if (opts_.send_buffer_bytes > 0 && (!set_send_buffer(*s, opts_.send_buffer_bytes) ||
                                      !set_send_buffer(*c, opts_.send_buffer_bytes))) {
    return Status(Errc::io_error, "setsockopt(SO_SNDBUF) failed");
  }
  server(shard).serve(std::move(s));
  std::unique_ptr<rt::ByteStream> stream = std::move(c);
  const auto& plan = stream_plan ? stream_plan : opts_.stream_plan;
  if (plan || cut_after_write_bytes > 0) {
    fault::StreamFaultConfig scfg;
    scfg.cut_after_write_bytes = cut_after_write_bytes;
    stream = std::make_unique<fault::FaultyStream>(std::move(stream), plan, scfg);
  }
  return stream;
}

std::size_t TestCluster::add_client(ClientSpec spec) {
  if (cluster_) {
    std::vector<cluster::RoutingClient::ShardLink> links;
    links.reserve(static_cast<std::size_t>(cluster_->shards()));
    for (int s = 0; s < cluster_->shards(); ++s) {
      const auto& plan = static_cast<std::size_t>(s) < spec.shard_stream_plans.size() &&
                                 spec.shard_stream_plans[static_cast<std::size_t>(s)]
                             ? spec.shard_stream_plans[static_cast<std::size_t>(s)]
                             : spec.stream_plan;
      const std::uint64_t cut = (spec.cut_shard < 0 || spec.cut_shard == s)
                                    ? spec.cut_after_write_bytes
                                    : 0;
      cluster::RoutingClient::ShardLink link;
      link.stream = dial(s, plan, cut).value();
      if (spec.reconnectable) {
        link.factory = factory(spec.faulty_redials ? plan : nullptr, s);
      }
      links.push_back(std::move(link));
    }
    clients_.push_back(
        std::make_unique<cluster::RoutingClient>(std::move(links), spec.cfg, opts_.breaker));
    return clients_.size() - 1;
  }

  auto stream = dial(0, spec.stream_plan, spec.cut_after_write_bytes);
  rt::StreamFactory redial;
  if (spec.reconnectable) {
    redial = factory(spec.faulty_redials ? spec.stream_plan : nullptr);
  }
  clients_.push_back(
      std::make_unique<rt::Client>(std::move(stream).value(), spec.cfg, std::move(redial)));
  return clients_.size() - 1;
}

rt::StreamFactory TestCluster::factory(std::shared_ptr<fault::FaultPlan> stream_plan,
                                       int shard) {
  // The factory outlives no one: TestCluster joins the server (and with it
  // every client connection) before its members are destroyed.
  return [this, shard, plan = std::move(stream_plan)] { return dial(shard, plan); };
}

void TestCluster::stop() {
  if (cluster_) cluster_->stop();
  if (server_) server_->stop();
}

std::vector<std::byte> TestCluster::drain_and_snapshot(const std::string& path) {
  stop();
  return snapshot(path);
}

std::vector<std::byte> TestCluster::snapshot(const std::string& path) const {
  for (rt::MemBackend* mem : mems_) {
    auto bytes = mem->snapshot(path);
    if (!bytes.empty()) return bytes;
  }
  return {};
}

}  // namespace iofwd::testsupport
