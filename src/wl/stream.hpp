// Memory-to-memory streaming workload.
//
// This is the parallel data-transfer microbenchmark of Secs. III and V-A:
// every participating CN issues `iterations` forwarded writes of
// `message_bytes`, either to /dev/null on the ION (Fig. 4) or to the memory
// of data-analysis nodes over the external network (Figs. 6, 9, 10, 12).
// Aggregate delivered throughput is reported.
#pragma once

#include <cstdint>
#include <string>

#include "bgp/config.hpp"
#include "core/units.hpp"
#include "proto/forwarder.hpp"

namespace iofwd::wl {

struct StreamParams {
  int cns_per_pset = 64;        // concurrently transferring CNs in each pset
  std::uint64_t message_bytes = 1_MiB;
  int iterations = 1000;
  proto::SinkTarget::Kind sink = proto::SinkTarget::Kind::da_memory;
  // MxN distribution: spread CN connections over all DA nodes (Sec. V-A4);
  // otherwise everyone streams to DA 0.
  bool distribute_das = false;
  // When set, write a Chrome-trace JSON of pset 0's operations here.
  std::string trace_path;
};

struct StreamResult {
  double throughput_mib_s = 0;   // aggregate delivered over the full run
  proto::RunMetrics metrics;
  std::uint64_t bml_blocked = 0;  // staging waits on an exhausted BML, all psets
  std::uint64_t sim_events = 0;
  sim::SimTime elapsed = 0;
};

// Build the machine, run the workload under mechanism `m`, tear down.
StreamResult run_stream(proto::Mechanism m, const bgp::MachineConfig& machine_cfg,
                        const proto::ForwarderConfig& fwd_cfg, const StreamParams& params);

// The paper reports the maximum of five runs on the shared network; our
// simulator is deterministic, so "runs" differ only by a seed-driven start
// stagger. Returns the max across `runs` repetitions.
double max_of_runs(proto::Mechanism m, const bgp::MachineConfig& machine_cfg,
                   const proto::ForwarderConfig& fwd_cfg, const StreamParams& params,
                   int runs = 1);

}  // namespace iofwd::wl
