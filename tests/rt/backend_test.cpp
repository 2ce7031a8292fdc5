#include "rt/backend.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "fault/decorators.hpp"

namespace iofwd::rt {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

template <typename Backend>
void basic_lifecycle(Backend& be) {
  ASSERT_TRUE(be.open(1, "file_a").is_ok());
  const auto data = bytes_of("hello world");
  auto w = be.write(1, 0, data);
  ASSERT_TRUE(w.is_ok());
  EXPECT_EQ(w.value(), data.size());

  std::vector<std::byte> out(5);
  auto r = be.read(1, 6, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 5u);
  EXPECT_EQ(std::memcmp(out.data(), "world", 5), 0);

  EXPECT_TRUE(be.fsync(1).is_ok());
  auto sz = be.size(1);
  ASSERT_TRUE(sz.is_ok());
  EXPECT_EQ(sz.value(), data.size());
  EXPECT_TRUE(be.close(1).is_ok());
  EXPECT_EQ(be.close(1).code(), Errc::bad_descriptor);
  EXPECT_EQ(be.size(1).code(), Errc::bad_descriptor);
}

TEST(MemBackend, Lifecycle) {
  MemBackend be;
  basic_lifecycle(be);
}

TEST(FileBackend, Lifecycle) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("iofwd_fb_" + std::to_string(::getpid()));
  FileBackend be(root.string());
  basic_lifecycle(be);
  std::filesystem::remove_all(root);
}

TEST(MemBackend, UnknownFdErrors) {
  MemBackend be;
  std::vector<std::byte> buf(4);
  EXPECT_EQ(be.write(9, 0, buf).code(), Errc::bad_descriptor);
  EXPECT_EQ(be.read(9, 0, buf).code(), Errc::bad_descriptor);
  EXPECT_EQ(be.fsync(9).code(), Errc::bad_descriptor);
}

TEST(MemBackend, DoubleOpenSameFdRejected) {
  MemBackend be;
  ASSERT_TRUE(be.open(1, "x").is_ok());
  EXPECT_EQ(be.open(1, "y").code(), Errc::invalid_argument);
}

TEST(MemBackend, SparseWriteZeroFills) {
  MemBackend be;
  be.open(1, "f");
  const auto d = bytes_of("xy");
  be.write(1, 10, d);
  std::vector<std::byte> out(12);
  auto r = be.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 12u);
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_EQ(out[10], std::byte{'x'});
}

TEST(MemBackend, ReadPastEofIsShort) {
  MemBackend be;
  be.open(1, "f");
  be.write(1, 0, bytes_of("abc"));
  std::vector<std::byte> out(10);
  auto r = be.read(1, 2, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 1u);
  auto r2 = be.read(1, 100, out);
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r2.value(), 0u);
}

TEST(MemBackend, SamePathSharedAcrossFds) {
  MemBackend be;
  be.open(1, "shared");
  be.open(2, "shared");
  be.write(1, 0, bytes_of("data"));
  std::vector<std::byte> out(4);
  auto r = be.read(2, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(std::memcmp(out.data(), "data", 4), 0);
}

TEST(MemBackend, FaultyBackendInjectsWriteErrors) {
  auto plan = std::make_shared<fault::FaultPlan>();
  fault::FaultyBackend be(std::make_unique<MemBackend>(), plan);
  be.open(1, "f");
  plan->add({.op = fault::OpKind::write, .nth = 1, .error = Errc::io_error});
  EXPECT_EQ(be.write(1, 0, bytes_of("x")).code(), Errc::io_error);
  EXPECT_TRUE(be.write(1, 8, bytes_of("x")).is_ok());
}

TEST(MemBackend, SnapshotReflectsWrites) {
  MemBackend be;
  be.open(1, "snap");
  be.write(1, 0, bytes_of("abc"));
  auto s = be.snapshot("snap");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[2], std::byte{'c'});
  EXPECT_TRUE(be.snapshot("missing").empty());
}

TEST(FileBackend, RejectsPathEscape) {
  FileBackend be("/tmp/iofwd_root");
  EXPECT_EQ(be.open(1, "../etc/passwd").code(), Errc::invalid_argument);
}

TEST(FileBackend, PersistsAcrossReopen) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("iofwd_fb2_" + std::to_string(::getpid()));
  {
    FileBackend be(root.string());
    be.open(1, "persist");
    be.write(1, 0, bytes_of("persisted"));
    be.close(1);
  }
  {
    FileBackend be(root.string());
    be.open(2, "persist");
    std::vector<std::byte> out(9);
    auto r = be.read(2, 0, out);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(std::memcmp(out.data(), "persisted", 9), 0);
    be.close(2);
  }
  std::filesystem::remove_all(root);
}

TEST(FileBackend, WriteBehindStartsOnlyForLargeWritesInAScope) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("iofwd_wb_" + std::to_string(::getpid()));
  FileBackend be(root.string());
  ASSERT_TRUE(be.open(1, "wb").is_ok());
  const std::vector<std::byte> small(4096, std::byte{1});
  const std::vector<std::byte> large(256 * 1024, std::byte{2});
  const std::vector<std::byte> edge(FileBackend::kWriteBehindBytes, std::byte{3});
  ASSERT_TRUE(be.write(1, 0, large).is_ok());
  EXPECT_EQ(be.writebacks(), 0u) << "outside a scope no write starts writeback";
  {
    const WriteBehindScope outer;
    {
      const WriteBehindScope inner;
    }
    EXPECT_TRUE(WriteBehindScope::active()) << "an inner scope leaves the outer one open";
    ASSERT_TRUE(be.write(1, 0, small).is_ok());
    EXPECT_EQ(be.writebacks(), 0u) << "a 4 KiB write must not start writeback";
    ASSERT_TRUE(be.write(1, 1 << 20, large).is_ok());
    EXPECT_EQ(be.writebacks(), 1u) << "a 256 KiB write starts one";
    ASSERT_TRUE(be.write(1, 2 << 20, std::span(edge).first(edge.size() - 1)).is_ok());
    EXPECT_EQ(be.writebacks(), 1u);
    ASSERT_TRUE(be.write(1, 3 << 20, edge).is_ok());
    EXPECT_EQ(be.writebacks(), 2u) << "the threshold is inclusive";
  }
  EXPECT_FALSE(WriteBehindScope::active());
  ASSERT_TRUE(be.write(1, 4 << 20, large).is_ok());
  EXPECT_EQ(be.writebacks(), 2u);
  EXPECT_TRUE(be.fsync(1).is_ok());
  EXPECT_TRUE(be.close(1).is_ok());
  std::filesystem::remove_all(root);
}

TEST(FileBackend, RefusedWriteBehindNeverFailsTheWrite) {
  // sync_file_range refuses a character device; the write itself succeeds.
  const auto root = std::filesystem::temp_directory_path() /
                    ("iofwd_wbdev_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  std::filesystem::create_symlink("/dev/null", root / "null");
  FileBackend be(root.string());
  ASSERT_TRUE(be.open(1, "null").is_ok());
  const std::vector<std::byte> large(256 * 1024, std::byte{4});
  const WriteBehindScope write_behind;
  auto w = be.write(1, 0, large);
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();
  EXPECT_EQ(w.value(), large.size());
  EXPECT_EQ(be.writebacks(), 0u);
  EXPECT_TRUE(be.close(1).is_ok());
  std::filesystem::remove_all(root);
}

TEST(NullBackend, SwallowsEverything) {
  NullBackend be;
  EXPECT_TRUE(be.open(1, "whatever").is_ok());
  auto w = be.write(1, 0, bytes_of("data"));
  ASSERT_TRUE(w.is_ok());
  EXPECT_EQ(w.value(), 4u);
  std::vector<std::byte> out(4, std::byte{0xff});
  auto r = be.read(1, 0, out);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_TRUE(be.close(1).is_ok());
}

}  // namespace
}  // namespace iofwd::rt
