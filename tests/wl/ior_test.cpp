#include "wl/ior.hpp"

#include <gtest/gtest.h>

namespace iofwd::wl {
namespace {

IorParams quick() {
  IorParams p;
  p.cns = 16;
  p.segments = 8;
  return p;
}

TEST(Ior, WriteOnlyCountsBytes) {
  auto p = quick();
  auto r = run_ior(proto::Mechanism::zoid, bgp::MachineConfig::intrepid(), {}, p);
  EXPECT_EQ(r.bytes_written, 16ull * 8 * 1_MiB);
  EXPECT_EQ(r.bytes_read, 0u);
  EXPECT_GT(r.write_mib_s, 0);
  EXPECT_EQ(r.read_mib_s, 0);
}

TEST(Ior, WriteThenReadRunsBothPhases) {
  auto p = quick();
  p.direction = IorDirection::write_then_read;
  auto r = run_ior(proto::Mechanism::zoid_sched_async, bgp::MachineConfig::intrepid(), {}, p);
  EXPECT_EQ(r.bytes_written, r.bytes_read);
  EXPECT_GT(r.write_mib_s, 0);
  EXPECT_GT(r.read_mib_s, 0);
}

class IorPatterns : public ::testing::TestWithParam<IorPattern> {};

TEST_P(IorPatterns, AllPatternsComplete) {
  auto p = quick();
  p.pattern = GetParam();
  auto r = run_ior(proto::Mechanism::zoid_sched_async, bgp::MachineConfig::intrepid(), {}, p);
  EXPECT_EQ(r.bytes_written, p.bytes_per_process() * 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IorPatterns,
                         ::testing::Values(IorPattern::sequential, IorPattern::strided,
                                           IorPattern::random),
                         [](const auto& pinfo) { return to_string(pinfo.param); });

TEST(Ior, PerProcessFilesComplete) {
  auto p = quick();
  p.shared_file = false;
  auto r = run_ior(proto::Mechanism::zoid, bgp::MachineConfig::intrepid(), {}, p);
  EXPECT_EQ(r.bytes_written, p.bytes_per_process() * 16);
}

TEST(Ior, DeterministicAcrossRuns) {
  auto p = quick();
  p.pattern = IorPattern::random;
  const auto cfg = bgp::MachineConfig::intrepid();
  auto a = run_ior(proto::Mechanism::zoid_sched_async, cfg, {}, p);
  auto b = run_ior(proto::Mechanism::zoid_sched_async, cfg, {}, p);
  EXPECT_DOUBLE_EQ(a.write_mib_s, b.write_mib_s);
  EXPECT_DOUBLE_EQ(a.elapsed_s, b.elapsed_s);
}

TEST(Ior, MechanismLadderHoldsOnIor) {
  auto p = quick();
  p.cns = 32;
  const auto cfg = bgp::MachineConfig::intrepid();
  const auto ciod = run_ior(proto::Mechanism::ciod, cfg, {}, p);
  const auto async = run_ior(proto::Mechanism::zoid_sched_async, cfg, {}, p);
  EXPECT_GT(async.write_mib_s, ciod.write_mib_s);
}

TEST(Ior, MultiPsetWhenCnsExceedPset) {
  auto p = quick();
  p.cns = 128;  // two psets
  p.segments = 4;
  auto r = run_ior(proto::Mechanism::zoid_sched_async, bgp::MachineConfig::intrepid(), {}, p);
  EXPECT_EQ(r.bytes_written, 128ull * 4 * 1_MiB);
}

}  // namespace
}  // namespace iofwd::wl
