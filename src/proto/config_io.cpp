#include "proto/config_io.hpp"

namespace iofwd::proto {

namespace {

void get_int(const Config& c, const char* key, int& out) {
  out = static_cast<int>(c.get_int(key, out));
}
void get_u64(const Config& c, const char* key, std::uint64_t& out) {
  out = static_cast<std::uint64_t>(c.get_int(key, static_cast<std::int64_t>(out)));
}
void get_time(const Config& c, const char* key, sim::SimTime& out) {
  out = c.get_int(key, out);
}
void get_double(const Config& c, const char* key, double& out) {
  out = c.get_double(key, out);
}

}  // namespace

Result<bgp::MachineConfig> apply_machine_config(const Config& cfg, bgp::MachineConfig m) {
  get_int(cfg, "machine.num_psets", m.num_psets);
  get_int(cfg, "machine.cns_per_pset", m.cns_per_pset);
  get_int(cfg, "machine.num_da_nodes", m.num_da_nodes);
  get_int(cfg, "machine.num_fsns", m.num_fsns);
  get_double(cfg, "machine.tree_raw_mb_s", m.tree_raw_mb_s);
  get_double(cfg, "machine.tree_header_bytes", m.tree_header_bytes);
  get_time(cfg, "machine.tree_latency_ns", m.tree_latency_ns);
  get_double(cfg, "machine.tree_contention_per_flow", m.tree_contention_per_flow);
  get_int(cfg, "machine.tree_contention_free_flows", m.tree_contention_free_flows);
  get_int(cfg, "machine.ion_cores", m.ion_cores);
  get_u64(cfg, "machine.ion_memory_bytes", m.ion_memory_bytes);
  get_double(cfg, "machine.ion_share_penalty", m.ion_share_penalty);
  get_double(cfg, "machine.ion_switch_penalty_thread", m.ion_switch_penalty_thread);
  get_double(cfg, "machine.ion_switch_penalty_process", m.ion_switch_penalty_process);
  get_double(cfg, "machine.ion_tcp_send_cost_ns_b", m.ion_tcp_send_cost_ns_b);
  get_double(cfg, "machine.ion_tree_recv_cost_ns_b", m.ion_tree_recv_cost_ns_b);
  get_double(cfg, "machine.ion_memcpy_cost_ns_b", m.ion_memcpy_cost_ns_b);
  get_double(cfg, "machine.cn_inject_cost_ns_b", m.cn_inject_cost_ns_b);
  get_u64(cfg, "machine.forward_chunk_bytes", m.forward_chunk_bytes);
  get_time(cfg, "machine.ion_wake_thread_ns", m.ion_wake_thread_ns);
  get_time(cfg, "machine.ion_wake_process_ns", m.ion_wake_process_ns);
  get_time(cfg, "machine.ion_syscall_ns", m.ion_syscall_ns);
  get_time(cfg, "machine.ion_poll_pass_ns", m.ion_poll_pass_ns);
  get_time(cfg, "machine.ion_enqueue_ns", m.ion_enqueue_ns);
  get_double(cfg, "machine.eth_mib_s", m.eth_mib_s);
  get_time(cfg, "machine.eth_latency_ns", m.eth_latency_ns);
  get_int(cfg, "machine.da_cores", m.da_cores);
  get_double(cfg, "machine.da_tcp_cost_ns_b", m.da_tcp_cost_ns_b);
  get_double(cfg, "machine.fsn_mib_s_each", m.fsn_mib_s_each);
  get_double(cfg, "machine.storage_aggregate_mib_s", m.storage_aggregate_mib_s);
  get_time(cfg, "machine.storage_latency_ns", m.storage_latency_ns);
  get_u64(cfg, "machine.control_msg_bytes", m.control_msg_bytes);
  get_int(cfg, "machine.control_steps", m.control_steps);

  std::string why;
  if (!m.validate(&why)) {
    return Status(Errc::invalid_argument, "machine config: " + why);
  }
  return m;
}

Result<ForwarderConfig> apply_forwarder_config(const Config& cfg, ForwarderConfig f) {
  get_int(cfg, "forwarder.workers", f.workers);
  get_int(cfg, "forwarder.multiplex_depth", f.multiplex_depth);
  f.balanced_batches = cfg.get_bool("forwarder.balanced_batches", f.balanced_batches);
  get_u64(cfg, "forwarder.bml_bytes", f.bml_bytes);
  get_u64(cfg, "forwarder.bml_min_class", f.bml_min_class);

  // Any rt::SchedPolicy name (DESIGN.md §17), including the historical
  // alias "priority" for prio.
  const std::string policy = cfg.get("forwarder.policy", "fifo");
  if (auto p = rt::parse_sched_policy(policy)) {
    f.policy = *p;
  } else {
    return Status(Errc::invalid_argument, "unknown forwarder.policy: " + policy);
  }

  if (f.workers < 1) return Status(Errc::invalid_argument, "forwarder.workers must be >= 1");
  if (f.multiplex_depth < 1) {
    return Status(Errc::invalid_argument, "forwarder.multiplex_depth must be >= 1");
  }
  if (f.bml_bytes == 0) return Status(Errc::invalid_argument, "forwarder.bml_bytes must be > 0");
  return f;
}

}  // namespace iofwd::proto
