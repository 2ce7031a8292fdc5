// Fuzz target: the IonServer receiver path must be total over arbitrary
// byte streams.
//
// IonServer::feed_bytes serves one end of a socketpair on a receive lane and
// writes the fuzz input into the other, so the input runs the real lane path
// — header CRC check, frame validation, direct payload reads, op dispatch,
// reply encoding and the async send queue — against a MemBackend. The server must neither
// crash nor hang nor allocate unboundedly: payload_len is CRC-protected and
// bounded by kMaxPayload at decode, and staging allocations come from the
// (deliberately tiny) BML pool, so a hostile length bounces with no_memory
// instead of sizing a heap allocation.
//
// thread_per_client runs every op inline on the one lane thread, in input
// order, and feed_bytes returns only after the lane has consumed the whole
// input, so each op the input manages to express has completed by then.
#include <memory>
#include <span>

#include "fuzz_targets.hpp"
#include "rt/backend.hpp"
#include "rt/server.hpp"

namespace iofwd::fuzz {

int server_bytes_one(const std::uint8_t* data, std::size_t size) {
  using namespace iofwd::rt;
  ServerConfig cfg;
  cfg.exec = ExecModel::thread_per_client;  // inline, single-threaded ops
  cfg.workers = 0;
  cfg.recv_lanes = 1;
  cfg.bml_bytes = 1 << 20;       // bounds any payload staging to 1 MiB
  cfg.stall_ms = 1;              // an unservable lease bounces, not blocks
  cfg.flight_recorder_ops = 0;
  IonServer server(std::make_unique<MemBackend>(), cfg);
  server.feed_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(data), size));
  server.stop();
  return 0;
}

}  // namespace iofwd::fuzz

#ifndef IOFWD_CORPUS_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  return iofwd::fuzz::server_bytes_one(data, size);
}
#endif
