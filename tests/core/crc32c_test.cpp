#include "core/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace iofwd {
namespace {

std::uint32_t sw_extend(std::uint32_t prev, const void* data, std::size_t n) {
  return *crc32c_kernel_extend(Crc32cKernel::software, prev, data, n);
}

std::uint32_t sw_oneshot(const void* data, std::size_t n) { return sw_extend(0, data, n); }

struct NamedKernel {
  Crc32cKernel kernel;
  const char* name;
};
constexpr NamedKernel kKernels[] = {{Crc32cKernel::software, "software"},
                                    {Crc32cKernel::interleaved, "interleaved"},
                                    {Crc32cKernel::fold, "fold"}};

// The kernels this CPU can run; software is always among them.
std::vector<NamedKernel> present_kernels() {
  std::vector<NamedKernel> out;
  for (const NamedKernel& k : kKernels) {
    if (crc32c_kernel_extend(k.kernel, 0, nullptr, 0).has_value()) {
      out.push_back(k);
    } else {
      std::printf("[ INFO     ] crc32c kernel '%s' not on this CPU; not cross-checked\n", k.name);
    }
  }
  return out;
}

std::vector<unsigned char> random_bytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<unsigned char> buf(n);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));
  return buf;
}

// RFC 3720 appendix B.4 reference vectors (iSCSI CRC32C).
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c(nullptr, 0), 0x00000000u);
  EXPECT_EQ(crc32c("a", 1), 0xC1D04330u);
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);

  std::vector<unsigned char> buf(32, 0x00);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x8A9136AAu);

  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x62A8AB43u);

  std::iota(buf.begin(), buf.end(), 0);  // 0x00..0x1F ascending
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x46DD794Eu);

  for (int i = 0; i < 32; ++i) buf[static_cast<std::size_t>(i)] = static_cast<unsigned char>(31 - i);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x113FDB5Cu);
}

TEST(Crc32c, SoftwareMatchesKnownVectors) {
  // The software path must be correct even on machines where hardware
  // dispatch wins — it is the cross-check for the hw instruction.
  EXPECT_EQ(sw_oneshot("123456789", 9), 0xE3069283u);
  EXPECT_EQ(sw_oneshot("a", 1), 0xC1D04330u);
  EXPECT_EQ(sw_oneshot(nullptr, 0), 0x00000000u);
}

TEST(Crc32c, DispatchedMatchesSoftwareAcrossSizesAndAlignments) {
  Rng rng(0x1234abcdULL);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));

  const std::size_t sizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 1024, 4093, 4096};
  for (std::size_t align = 0; align < 9; ++align) {
    for (std::size_t n : sizes) {
      const unsigned char* p = buf.data() + align;
      EXPECT_EQ(crc32c(p, n), sw_oneshot(p, n)) << "align=" << align << " n=" << n;
    }
  }
}

TEST(Crc32c, DispatchedMatchesSoftwareAcrossInterleaveThreshold) {
  // The hardware path switches to three interleaved streams with lane
  // recombination once buffers reach 3 lanes; cover sizes straddling that
  // threshold, non-multiples that exercise the serial tail after interleaved
  // rounds, and a full wire-payload-sized buffer.
  Rng rng(0xc0ffeeULL);
  std::vector<unsigned char> buf(256 * 1024 + 9);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));

  const std::size_t sizes[] = {12287, 12288, 12289, 12295, 16384, 24576, 24577,
                               36864, 40000,  65536, 131072, 262144};
  for (std::size_t align = 0; align < 9; align += 4) {
    for (std::size_t n : sizes) {
      const unsigned char* p = buf.data() + align;
      EXPECT_EQ(crc32c(p, n), sw_oneshot(p, n)) << "align=" << align << " n=" << n;
    }
  }

  // Streaming across the threshold must agree with one-shot too.
  const std::uint32_t whole = crc32c(buf.data(), 262144);
  for (std::size_t split : {std::size_t{1}, std::size_t{12288}, std::size_t{100000}}) {
    std::uint32_t part = crc32c(buf.data(), split);
    part = crc32c_extend(part, buf.data() + split, 262144 - split);
    EXPECT_EQ(part, whole) << "split=" << split;
  }
}

TEST(Crc32c, StreamingExtendEqualsOneShot) {
  Rng rng(0xfeedf00dULL);
  std::vector<unsigned char> buf(2048);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));

  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{100}, std::size_t{1024}, std::size_t{2047},
                            std::size_t{2048}}) {
    std::uint32_t part = crc32c(buf.data(), split);
    part = crc32c_extend(part, buf.data() + split, buf.size() - split);
    EXPECT_EQ(part, whole) << "split=" << split;
  }

  // Many small chunks with random boundaries.
  std::uint32_t acc = 0;
  std::size_t pos = 0;
  while (pos < buf.size()) {
    std::size_t step = std::min<std::size_t>(1 + rng.below(97), buf.size() - pos);
    acc = crc32c_extend(acc, buf.data() + pos, step);
    pos += step;
  }
  EXPECT_EQ(acc, whole);
}

TEST(Crc32c, SpanOverloadMatchesPointerOverload) {
  const char* msg = "io-forwarding integrity layer";
  const std::size_t n = std::strlen(msg);
  std::span<const std::byte> sp(reinterpret_cast<const std::byte*>(msg), n);
  EXPECT_EQ(crc32c(sp), crc32c(msg, n));
  EXPECT_EQ(crc32c_extend(0, sp), crc32c(msg, n));
}

TEST(Crc32c, DetectsSingleBitFlips) {
  Rng rng(0x5eedULL);
  std::vector<unsigned char> buf(512);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));
  const std::uint32_t good = crc32c(buf.data(), buf.size());
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t bit = rng.below(buf.size() * 8);
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(crc32c(buf.data(), buf.size()), good) << "flip at bit " << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(crc32c(buf.data(), buf.size()), good);
}

// Every length 0..1100 at all 64 alignments: covers the serial cutoff below
// one 256-byte fold block, every 16-byte lane remainder, and the <16-byte
// tails after 1..4 fold blocks.
TEST(Crc32c, EveryKernelMatchesSoftwareAtEveryShortLengthAndAlignment) {
  const auto buf = random_bytes(0x51ce5eedULL, 1100 + 64);
  for (const NamedKernel& k : present_kernels()) {
    for (std::size_t align = 0; align < 64; ++align) {
      for (std::size_t n = 0; n <= 1100; ++n) {
        const unsigned char* p = buf.data() + align;
        const std::uint32_t prev = static_cast<std::uint32_t>(n * 0x9E3779B9u);
        ASSERT_EQ(*crc32c_kernel_extend(k.kernel, prev, p, n), sw_extend(prev, p, n))
            << k.name << " align=" << align << " n=" << n;
      }
    }
  }
}

// Lengths straddling every 256-byte block boundary up to 64 KiB, and the
// 3-way path's 12 KiB threshold.
TEST(Crc32c, EveryKernelMatchesSoftwareAroundBlockBoundaries) {
  const auto buf = random_bytes(0xb10c5ULL, 64 * 1024 + 65 + 3);
  const std::size_t deltas[] = {0, 1, 15, 16, 17, 63, 64, 65};
  for (const NamedKernel& k : present_kernels()) {
    for (std::size_t base = 256; base <= 64 * 1024; base += 256) {
      for (std::size_t d : deltas) {
        for (const std::size_t n : {base - d, base + d}) {
          const unsigned char* p = buf.data() + 3;
          ASSERT_EQ(*crc32c_kernel_extend(k.kernel, 0, p, n), sw_oneshot(p, n))
              << k.name << " n=" << n;
        }
      }
    }
  }
}

TEST(Crc32c, EveryKernelMatchesSoftwareAtRandomLargeLengths) {
  constexpr std::size_t kMax = (1u << 20) + 300;
  const auto buf = random_bytes(0x1a26eULL, kMax + 64);
  Rng rng(0xda7aULL);
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t n = rng.below(kMax + 1);
    const std::size_t align = rng.below(64);
    const std::uint32_t prev = static_cast<std::uint32_t>(rng.below(1ull << 32));
    const unsigned char* p = buf.data() + align;
    const std::uint32_t want = sw_extend(prev, p, n);
    for (const NamedKernel& k : present_kernels()) {
      ASSERT_EQ(*crc32c_kernel_extend(k.kernel, prev, p, n), want)
          << k.name << " align=" << align << " n=" << n;
    }
  }
  // The full-size extreme, too.
  for (const NamedKernel& k : present_kernels()) {
    EXPECT_EQ(*crc32c_kernel_extend(k.kernel, 0, buf.data(), kMax), sw_oneshot(buf.data(), kMax))
        << k.name;
  }
}

TEST(Crc32c, EveryKernelChainsAcrossEverySplitPoint) {
  const auto buf = random_bytes(0x5b1170ULL, 1024);
  const std::uint32_t whole = sw_oneshot(buf.data(), buf.size());
  for (const NamedKernel& k : present_kernels()) {
    for (std::size_t split = 0; split <= buf.size(); ++split) {
      const std::uint32_t head = *crc32c_kernel_extend(k.kernel, 0, buf.data(), split);
      ASSERT_EQ(*crc32c_kernel_extend(k.kernel, head, buf.data() + split, buf.size() - split),
                whole)
          << k.name << " split=" << split;
    }
  }
  // The dispatched entry point chains the same way.
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    ASSERT_EQ(crc32c_extend(crc32c(buf.data(), split), buf.data() + split, buf.size() - split),
              whole)
        << "split=" << split;
  }
}

TEST(Crc32c, ImplNameIsConsistentWithAvailability) {
  const std::string impl = crc32c_impl();
  if (crc32c_kernel_extend(Crc32cKernel::fold, 0, nullptr, 0).has_value()) {
    EXPECT_EQ(impl, "avx512-vpclmulqdq");
    EXPECT_TRUE(crc32c_hw_available());
  } else if (crc32c_hw_available()) {
    EXPECT_TRUE(impl == "sse4.2" || impl == "armv8-crc") << impl;
  } else {
    EXPECT_EQ(impl, "software");
  }
  // Hardware is selected exactly when a hardware kernel exists.
  EXPECT_EQ(crc32c_hw_available(),
            crc32c_kernel_extend(Crc32cKernel::interleaved, 0, nullptr, 0).has_value());
}

}  // namespace
}  // namespace iofwd
