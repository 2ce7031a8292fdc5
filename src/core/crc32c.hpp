// CRC32C (Castagnoli, polynomial 0x1EDC6F41) for end-to-end data integrity.
//
// The runtime wire protocol checksums every frame header and (when protocol
// v1 is negotiated) every payload with CRC32C — the same polynomial iSCSI,
// ext4, and btrfs use, because commodity CPUs accelerate it. This module
// picks the fastest kernel the CPU has once per process (resolved the first
// time any checksum is computed); every kernel produces identical results,
// unit-tested against the RFC 3720 reference vectors and against each other:
//   1. fold (x86-64 with VPCLMULQDQ + AVX-512F/VL): carry-less multiplication
//      folds four 64-byte accumulators across 256-byte blocks, then two
//      crc32 instructions reduce the last 16-byte lane — memory speed on
//      wire payloads. Buffers under 256 bytes (every frame header) take the
//      serial crc32 chain.
//   2. interleaved (SSE4.2 or ARMv8 CRC32): three independent crc32 streams
//      over 4 KiB lanes hide the instruction's 3-cycle latency (~3x the
//      serial chain on 12 KiB and up), recombined with zero-block shift
//      tables.
//   3. software: slicing-by-8 tables, everywhere else.
//
// Conventions: crc32c(data) is the standard reflected CRC with initial value
// and final xor of 0xFFFFFFFF (so crc32c("123456789") == 0xE3069283).
// Streaming callers use crc32c_extend(prev, ...) where `prev` is the result
// of an earlier crc32c/crc32c_extend call over the preceding bytes; the
// composition equals the one-shot CRC of the concatenation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace iofwd {

// One-shot CRC32C of a byte range.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t n) noexcept;
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data) noexcept;

// Continue a CRC32C over the next chunk: `prev` is the CRC of everything
// before `data`. crc32c(x) == crc32c_extend(crc32c(prefix), rest) when
// x == prefix + rest; crc32c(x) == crc32c_extend(0, x).
[[nodiscard]] std::uint32_t crc32c_extend(std::uint32_t prev, const void* data,
                                          std::size_t n) noexcept;
[[nodiscard]] std::uint32_t crc32c_extend(std::uint32_t prev,
                                          std::span<const std::byte> data) noexcept;

// True when a hardware kernel (fold or interleaved) is selected.
[[nodiscard]] bool crc32c_hw_available() noexcept;

// The selected kernel: "avx512-vpclmulqdq", "sse4.2", "armv8-crc", or
// "software".
[[nodiscard]] const char* crc32c_impl() noexcept;

enum class Crc32cKernel : std::uint8_t { software, interleaved, fold };

// Runs one named kernel instead of the dispatched one, so tests can
// cross-check every kernel this CPU has and benchmarks can time each.
// Same convention as crc32c_extend; nullopt when the CPU lacks the kernel
// (software is always present).
[[nodiscard]] std::optional<std::uint32_t> crc32c_kernel_extend(Crc32cKernel kernel,
                                                                std::uint32_t prev,
                                                                const void* data,
                                                                std::size_t n) noexcept;

}  // namespace iofwd
