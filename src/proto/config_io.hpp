// Bridging MachineConfig and proto::ForwarderConfig to the key-value Config
// layer, so every knob can be set from files, command lines, or IOFWD_*
// environment variables — the paper controls the worker count and the BML
// budget exactly that way at job submission (Sec. IV).
//
// Keys mirror the struct fields, e.g.:
//   machine.num_psets, machine.tree_raw_mb_s, machine.ion_cores, ...
//   forwarder.workers, forwarder.bml_bytes, forwarder.policy (fifo|prio|edf|fair|sjf)
#pragma once

#include "bgp/config.hpp"
#include "core/config.hpp"
#include "core/status.hpp"
#include "proto/forwarder.hpp"

namespace iofwd::proto {

// Overlays any present `machine.*` keys onto `base` (absent keys keep the
// base value). Returns invalid_argument if the result fails validation.
Result<bgp::MachineConfig> apply_machine_config(const Config& cfg, bgp::MachineConfig base);

// Overlays `forwarder.*` keys.
Result<ForwarderConfig> apply_forwarder_config(const Config& cfg, ForwarderConfig base);

}  // namespace iofwd::proto
