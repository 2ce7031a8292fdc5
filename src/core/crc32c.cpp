#include "core/crc32c.hpp"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define IOFWD_CRC32C_X86 1
#endif

#if defined(__aarch64__)
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#if defined(__ARM_FEATURE_CRC32) || defined(__GNUC__)
#include <arm_acle.h>
#define IOFWD_CRC32C_ARM 1
#endif
#endif

namespace iofwd {

namespace {

// ---------------------------------------------------------------------------
// Software path: slicing-by-8 over compile-time-generated tables.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;  // 0x1EDC6F41 bit-reversed

struct Crc32cTables {
  std::uint32_t t[8][256];
};

constexpr Crc32cTables make_tables() {
  Crc32cTables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    tb.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tb.t[0][i];
    for (int s = 1; s < 8; ++s) {
      crc = tb.t[0][crc & 0xffu] ^ (crc >> 8);
      tb.t[s][i] = crc;
    }
  }
  return tb;
}

constexpr Crc32cTables kTables = make_tables();

std::uint32_t sw_update(std::uint32_t state, const unsigned char* p, std::size_t n) noexcept {
  // Head: byte-at-a-time until 8-byte alignment of the *data* pointer.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    state = kTables.t[0][(state ^ *p++) & 0xffu] ^ (state >> 8);
    --n;
  }
  // Body: 8 bytes per step through the 8 slice tables.
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= state;  // little-endian: CRC folds into the low 4 bytes
    state = kTables.t[7][word & 0xffu] ^ kTables.t[6][(word >> 8) & 0xffu] ^
            kTables.t[5][(word >> 16) & 0xffu] ^ kTables.t[4][(word >> 24) & 0xffu] ^
            kTables.t[3][(word >> 32) & 0xffu] ^ kTables.t[2][(word >> 40) & 0xffu] ^
            kTables.t[1][(word >> 48) & 0xffu] ^ kTables.t[0][(word >> 56) & 0xffu];
    p += 8;
    n -= 8;
  }
  // Tail.
  while (n > 0) {
    state = kTables.t[0][(state ^ *p++) & 0xffu] ^ (state >> 8);
    --n;
  }
  return state;
}

// ---------------------------------------------------------------------------
// Zero-block shift operator for interleaved hardware CRCs.
//
// The hardware crc32 instruction has a 3-cycle latency but single-cycle
// throughput, so one serial chain runs at ~8 bytes / 3 cycles. Running three
// independent chains over adjacent 4 KiB lanes fills the pipeline (~3x), at
// the cost of recombining the three lane CRCs afterwards. Recombination uses
// the linearity of CRC: state_after(A||B, s) = shift(state_after(A, s)) ^
// state_after(B, 0), where shift multiplies the raw state by x^(8*|B|) mod P
// — i.e. runs |B| zero bytes through the register. That operator is linear
// on the 32-bit state, so it collapses to four 256-entry lookup tables,
// built once by squaring the one-zero-byte step log2(kLane) times.
// ---------------------------------------------------------------------------

#if defined(IOFWD_CRC32C_X86) || defined(IOFWD_CRC32C_ARM)
constexpr std::size_t kLane = 4096;  // bytes per interleaved stream

struct ShiftOp {
  std::uint32_t t[4][256];
  std::uint32_t apply(std::uint32_t s) const noexcept {
    return t[0][s & 0xffu] ^ t[1][(s >> 8) & 0xffu] ^ t[2][(s >> 16) & 0xffu] ^ t[3][s >> 24];
  }
};

// Operator advancing a raw CRC state across kLane zero bytes.
const ShiftOp& lane_shift() noexcept {
  static const ShiftOp op = [] {
    ShiftOp one;  // one zero byte: s' = t0[s & 0xff] ^ (s >> 8), tabulated per state byte
    for (int j = 0; j < 4; ++j) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        const std::uint32_t s = b << (8 * j);
        one.t[j][b] = kTables.t[0][s & 0xffu] ^ (s >> 8);
      }
    }
    ShiftOp acc = one;
    for (std::size_t len = 1; len < kLane; len <<= 1) {  // square: len -> 2*len zero bytes
      ShiftOp sq;
      for (int j = 0; j < 4; ++j) {
        for (std::uint32_t b = 0; b < 256; ++b) sq.t[j][b] = acc.apply(acc.t[j][b]);
      }
      acc = sq;
    }
    return acc;
  }();
  return op;
}
#endif  // IOFWD_CRC32C_X86 || IOFWD_CRC32C_ARM

// ---------------------------------------------------------------------------
// Hardware paths.
// ---------------------------------------------------------------------------

#if defined(IOFWD_CRC32C_X86)
__attribute__((target("sse4.2"))) std::uint32_t hw_update_serial(std::uint32_t state,
                                                                 const unsigned char* p,
                                                                 std::size_t n) noexcept {
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    state = _mm_crc32_u8(state, *p++);
    --n;
  }
#if defined(__x86_64__)
  std::uint64_t state64 = state;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    state64 = _mm_crc32_u64(state64, word);
    p += 8;
    n -= 8;
  }
  state = static_cast<std::uint32_t>(state64);
#endif
  while (n > 0) {
    state = _mm_crc32_u8(state, *p++);
    --n;
  }
  return state;
}

__attribute__((target("sse4.2"))) std::uint32_t hw_update(std::uint32_t state,
                                                          const unsigned char* p,
                                                          std::size_t n) noexcept {
#if defined(__x86_64__)
  if (n >= 3 * kLane) {
    const ShiftOp& shift = lane_shift();
    do {
      std::uint64_t a = state, b = 0, c = 0;
      for (std::size_t i = 0; i < kLane; i += 8) {
        std::uint64_t wa, wb, wc;
        std::memcpy(&wa, p + i, 8);
        std::memcpy(&wb, p + kLane + i, 8);
        std::memcpy(&wc, p + 2 * kLane + i, 8);
        a = _mm_crc32_u64(a, wa);
        b = _mm_crc32_u64(b, wb);
        c = _mm_crc32_u64(c, wc);
      }
      state = shift.apply(shift.apply(static_cast<std::uint32_t>(a)) ^
                          static_cast<std::uint32_t>(b)) ^
              static_cast<std::uint32_t>(c);
      p += 3 * kLane;
      n -= 3 * kLane;
    } while (n >= 3 * kLane);
  }
#endif
  return hw_update_serial(state, p, n);
}

bool detect_hw() noexcept { return __builtin_cpu_supports("sse4.2") != 0; }
const char* hw_name() noexcept { return "sse4.2"; }

#if defined(__x86_64__)
// ---------------------------------------------------------------------------
// Carry-less folding (VPCLMULQDQ + AVX-512F/VL).
//
// CRC is linear over GF(2), so a 16-byte lane of pending data can be moved
// D bytes further down the message by multiplying it by x^(8D) mod P: the
// product keeps the remainder. In the reflected bit order each qword of the
// lane is carry-less multiplied by its own 33-bit constant —
// reflect32(x^(8D+32) mod P) << 1 for the low qword and
// reflect32(x^(8D-32) mod P) << 1 for the high one, the offsets and the
// shift placing each product at the lane D bytes ahead — and both products
// XOR into that lane. Four zmm accumulators keep 256 bytes in flight, so the
// main loop runs at clmul throughput instead of crc32's 3-cycle chain. After
// the last block the 16 lanes fold into one whose remainder equals that of
// everything before it: two crc32 instructions from a zero state turn it
// into the CRC, and the serial path takes the last <16 bytes.
// ---------------------------------------------------------------------------

constexpr std::size_t kFoldMin = 256;  // one full block of four zmm lanes

// reflect32(x^n mod P) << 1, stepped in the reflected domain where one
// multiplication by x is a right shift (bit 31 is x^0).
constexpr std::uint64_t fold_constant(unsigned n) {
  std::uint32_t v = 0x80000000u;
  for (unsigned i = 0; i < n; ++i) v = (v & 1u) != 0 ? (v >> 1) ^ kPolyReflected : v >> 1;
  return std::uint64_t{v} << 1;
}

// Multipliers that move a 16-byte lane `bytes` bytes down the message.
struct FoldBy {
  std::uint64_t lo, hi;
};
constexpr FoldBy fold_by(unsigned bytes) {
  return {fold_constant(8 * bytes + 32), fold_constant(8 * bytes - 32)};
}
constexpr FoldBy kFold256 = fold_by(256), kFold64 = fold_by(64), kFold16 = fold_by(16);

#define IOFWD_FOLD_TARGET __attribute__((target("avx512f,avx512vl,vpclmulqdq,pclmul,sse4.2")))

IOFWD_FOLD_TARGET inline __m512i broadcast(FoldBy k) noexcept {
  return _mm512_set4_epi64(static_cast<long long>(k.hi), static_cast<long long>(k.lo),
                           static_cast<long long>(k.hi), static_cast<long long>(k.lo));
}

IOFWD_FOLD_TARGET inline __m512i fold512(__m512i x, __m512i k, __m512i next) noexcept {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next, 0x96);
}

IOFWD_FOLD_TARGET inline __m128i fold128(__m128i x, __m128i k, __m128i next) noexcept {
  return _mm_ternarylogic_epi64(_mm_clmulepi64_si128(x, k, 0x00),
                                _mm_clmulepi64_si128(x, k, 0x11), next, 0x96);
}

// Requires n >= kFoldMin.
IOFWD_FOLD_TARGET std::uint32_t fold_blocks(std::uint32_t state, const unsigned char* p,
                                            std::size_t n) noexcept {
  const __m512i k256 = broadcast(kFold256);
  // The initial state XORs into the first four message bytes; from then on
  // the accumulators carry the CRC state from a zero start.
  __m512i z0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(state))));
  __m512i z1 = _mm512_loadu_si512(p + 64);
  __m512i z2 = _mm512_loadu_si512(p + 128);
  __m512i z3 = _mm512_loadu_si512(p + 192);
  p += kFoldMin;
  n -= kFoldMin;
  while (n >= kFoldMin) {
    z0 = fold512(z0, k256, _mm512_loadu_si512(p));
    z1 = fold512(z1, k256, _mm512_loadu_si512(p + 64));
    z2 = fold512(z2, k256, _mm512_loadu_si512(p + 128));
    z3 = fold512(z3, k256, _mm512_loadu_si512(p + 192));
    p += kFoldMin;
    n -= kFoldMin;
  }
  // 4 zmm -> 1 zmm -> 4 xmm -> 1 xmm.
  const __m512i k64 = broadcast(kFold64);
  z1 = fold512(z0, k64, z1);
  z2 = fold512(z1, k64, z2);
  z3 = fold512(z2, k64, z3);
  const __m128i k16 =
      _mm_set_epi64x(static_cast<long long>(kFold16.hi), static_cast<long long>(kFold16.lo));
  // Zero-masked extracts: the plain extract and cast trip GCC 12's
  // -Wmaybe-uninitialized inside the intrinsic headers.
  __m128i x = _mm512_maskz_extracti32x4_epi32(0xf, z3, 0);
  x = fold128(x, k16, _mm512_maskz_extracti32x4_epi32(0xf, z3, 1));
  x = fold128(x, k16, _mm512_maskz_extracti32x4_epi32(0xf, z3, 2));
  x = fold128(x, k16, _mm512_maskz_extracti32x4_epi32(0xf, z3, 3));
  while (n >= 16) {
    x = fold128(x, k16, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    n -= 16;
  }
  std::uint64_t s = _mm_crc32_u64(0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(x)));
  s = _mm_crc32_u64(s, static_cast<std::uint64_t>(_mm_extract_epi64(x, 1)));
  return hw_update_serial(static_cast<std::uint32_t>(s), p, n);
}

#undef IOFWD_FOLD_TARGET

// Short buffers never enter the AVX-512 function, so the frame-header path
// pays neither its prologue nor its vzeroupper.
__attribute__((target("sse4.2"))) std::uint32_t fold_update(std::uint32_t state,
                                                            const unsigned char* p,
                                                            std::size_t n) noexcept {
  return n < kFoldMin ? hw_update_serial(state, p, n) : fold_blocks(state, p, n);
}

bool detect_fold() noexcept {
  return __builtin_cpu_supports("vpclmulqdq") != 0 && __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 && __builtin_cpu_supports("pclmul") != 0 &&
         detect_hw();
}
#endif  // __x86_64__
#elif defined(IOFWD_CRC32C_ARM)
__attribute__((target("+crc"))) std::uint32_t hw_update_serial(std::uint32_t state,
                                                               const unsigned char* p,
                                                               std::size_t n) noexcept {
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    state = __crc32cb(state, *p++);
    --n;
  }
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    state = __crc32cd(state, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    state = __crc32cb(state, *p++);
    --n;
  }
  return state;
}

__attribute__((target("+crc"))) std::uint32_t hw_update(std::uint32_t state,
                                                        const unsigned char* p,
                                                        std::size_t n) noexcept {
  if (n >= 3 * kLane) {
    const ShiftOp& shift = lane_shift();
    do {
      std::uint32_t a = state, b = 0, c = 0;
      for (std::size_t i = 0; i < kLane; i += 8) {
        std::uint64_t wa, wb, wc;
        std::memcpy(&wa, p + i, 8);
        std::memcpy(&wb, p + kLane + i, 8);
        std::memcpy(&wc, p + 2 * kLane + i, 8);
        a = __crc32cd(a, wa);
        b = __crc32cd(b, wb);
        c = __crc32cd(c, wc);
      }
      state = shift.apply(shift.apply(a) ^ b) ^ c;
      p += 3 * kLane;
      n -= 3 * kLane;
    } while (n >= 3 * kLane);
  }
  return hw_update_serial(state, p, n);
}

bool detect_hw() noexcept {
#if defined(__linux__) && defined(HWCAP_CRC32)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#elif defined(__ARM_FEATURE_CRC32)
  return true;  // baked into the target at compile time
#else
  return false;
#endif
}
const char* hw_name() noexcept { return "armv8-crc"; }
#else
std::uint32_t hw_update(std::uint32_t state, const unsigned char* p, std::size_t n) noexcept {
  return sw_update(state, p, n);
}
bool detect_hw() noexcept { return false; }
const char* hw_name() noexcept { return "software"; }
#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t, const unsigned char*, std::size_t) noexcept;

// The raw-state update of kernel `k`, or nullptr when this CPU lacks it.
UpdateFn kernel_update(Crc32cKernel k) noexcept {
  switch (k) {
    case Crc32cKernel::software:
      return sw_update;
    case Crc32cKernel::interleaved:
      return detect_hw() ? hw_update : nullptr;
    case Crc32cKernel::fold:
#if defined(IOFWD_CRC32C_X86) && defined(__x86_64__)
      return detect_fold() ? fold_update : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

struct Dispatch {
  UpdateFn update;
  const char* name;
};

// Dispatch is resolved once; the result never changes for the process.
const Dispatch& selected() noexcept {
  static const Dispatch d = []() -> Dispatch {
    if (UpdateFn fold = kernel_update(Crc32cKernel::fold)) return {fold, "avx512-vpclmulqdq"};
    if (detect_hw()) return {hw_update, hw_name()};
    return {sw_update, "software"};
  }();
  return d;
}

std::uint32_t update(std::uint32_t state, const void* data, std::size_t n) noexcept {
  return selected().update(state, static_cast<const unsigned char*>(data), n);
}

}  // namespace

std::uint32_t crc32c_extend(std::uint32_t prev, const void* data, std::size_t n) noexcept {
  return ~update(~prev, data, n);
}

std::uint32_t crc32c_extend(std::uint32_t prev, std::span<const std::byte> data) noexcept {
  return crc32c_extend(prev, data.data(), data.size());
}

std::uint32_t crc32c(const void* data, std::size_t n) noexcept {
  return crc32c_extend(0, data, n);
}

std::uint32_t crc32c(std::span<const std::byte> data) noexcept {
  return crc32c_extend(0, data.data(), data.size());
}

std::optional<std::uint32_t> crc32c_kernel_extend(Crc32cKernel kernel, std::uint32_t prev,
                                                  const void* data, std::size_t n) noexcept {
  const UpdateFn fn = kernel_update(kernel);
  if (fn == nullptr) return std::nullopt;
  return ~fn(~prev, static_cast<const unsigned char*>(data), n);
}

bool crc32c_hw_available() noexcept { return selected().update != sw_update; }

const char* crc32c_impl() noexcept { return selected().name; }

}  // namespace iofwd
