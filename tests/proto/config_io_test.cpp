#include "proto/config_io.hpp"

#include <gtest/gtest.h>

namespace iofwd::proto {
namespace {

TEST(ConfigIo, EmptyConfigKeepsDefaults) {
  Config c;
  auto m = apply_machine_config(c, bgp::MachineConfig::intrepid());
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value().ion_cores, 4);
  EXPECT_EQ(m.value().cns_per_pset, 64);

  auto f = apply_forwarder_config(c, {});
  ASSERT_TRUE(f.is_ok());
  EXPECT_EQ(f.value().workers, 4);
  EXPECT_EQ(f.value().policy, rt::SchedPolicy::fifo);
}

TEST(ConfigIo, OverridesMachineKnobs) {
  Config c;
  c.set_int("machine.num_psets", 4);
  c.set_int("machine.ion_cores", 8);
  c.set_double("machine.eth_mib_s", 2380.0);
  c.set_int("machine.tree_latency_ns", 5000);
  auto m = apply_machine_config(c, bgp::MachineConfig::intrepid());
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value().num_psets, 4);
  EXPECT_EQ(m.value().ion_cores, 8);
  EXPECT_DOUBLE_EQ(m.value().eth_mib_s, 2380.0);
  EXPECT_EQ(m.value().tree_latency_ns, 5000);
  // Untouched knobs survive.
  EXPECT_DOUBLE_EQ(m.value().tree_raw_mb_s, 850.0);
}

TEST(ConfigIo, RejectsInvalidMachine) {
  Config c;
  c.set_int("machine.ion_cores", 0);
  auto m = apply_machine_config(c, bgp::MachineConfig::intrepid());
  EXPECT_FALSE(m.is_ok());
  EXPECT_EQ(m.code(), Errc::invalid_argument);
}

TEST(ConfigIo, OverridesForwarderKnobs) {
  Config c;
  c.set_int("forwarder.workers", 8);
  c.set_int("forwarder.multiplex_depth", 16);
  c.set("forwarder.balanced_batches", "false");
  c.set_int("forwarder.bml_bytes", 1 << 20);
  c.set("forwarder.policy", "sjf");
  auto f = apply_forwarder_config(c, {});
  ASSERT_TRUE(f.is_ok());
  EXPECT_EQ(f.value().workers, 8);
  EXPECT_EQ(f.value().multiplex_depth, 16);
  EXPECT_FALSE(f.value().balanced_batches);
  EXPECT_EQ(f.value().bml_bytes, 1u << 20);
  EXPECT_EQ(f.value().policy, rt::SchedPolicy::sjf);
}

TEST(ConfigIo, AllPoliciesParse) {
  for (const char* name : {"fifo", "prio", "edf", "fair", "sjf"}) {
    Config c;
    c.set("forwarder.policy", name);
    auto f = apply_forwarder_config(c, {});
    ASSERT_TRUE(f.is_ok()) << name;
    EXPECT_STREQ(rt::to_string(f.value().policy), name);
  }
  Config c;
  c.set("forwarder.policy", "priority");  // the historical spelling
  auto f = apply_forwarder_config(c, {});
  ASSERT_TRUE(f.is_ok());
  EXPECT_EQ(f.value().policy, rt::SchedPolicy::prio);
}

TEST(ConfigIo, RejectsBadPolicyAndWorkers) {
  {
    Config c;
    c.set("forwarder.policy", "banana");
    EXPECT_FALSE(apply_forwarder_config(c, {}).is_ok());
  }
  {
    Config c;
    c.set_int("forwarder.workers", 0);
    EXPECT_FALSE(apply_forwarder_config(c, {}).is_ok());
  }
  {
    Config c;
    c.set_int("forwarder.bml_bytes", 0);
    EXPECT_FALSE(apply_forwarder_config(c, {}).is_ok());
  }
}

TEST(ConfigIo, EnvironmentOverridesWork) {
  // The paper's env-variable control path (Sec. IV).
  ::setenv("IOFWD_FORWARDER_WORKERS", "2", 1);
  Config c;
  auto f = apply_forwarder_config(c, {});
  ::unsetenv("IOFWD_FORWARDER_WORKERS");
  ASSERT_TRUE(f.is_ok());
  EXPECT_EQ(f.value().workers, 2);
}

}  // namespace
}  // namespace iofwd::proto
