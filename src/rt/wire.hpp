// Wire protocol for the real (host-threaded) forwarding runtime.
//
// Frames are a fixed little-endian header followed by an optional payload.
// The same framing serves requests (client -> ION server) and replies. The
// two-step semantics of the BG/P protocol (parameters first, payload next)
// map onto header+payload of a single frame here; the async-staging "early
// reply" is a reply frame with the `staged` flag set.
//
// Protocol v1 frame layout (56 bytes, little-endian):
//
//   offset size field        notes
//        0    4 magic        "IOFW" (0x494f4657)
//        4    1 type         MsgType: 1=request 2=reply
//        5    1 op           OpCode: 1..kMaxOpCode
//        6    2 flags        bit 0 staged, bit 1 payload_crc; others reserved
//        8    2 version      sender's protocol version (0 or 1)
//       10    1 klass        priority class 0..kMaxPriorityClass (0 = default)
//       11    1 reserved     must be zero
//       12    4 fd
//       16    4 status       Errc as i32 (replies)
//       20    8 seq
//       28    8 offset
//       36    8 payload_len  bounded by kMaxPayload at decode
//       44    4 deadline_ms
//       48    4 payload_crc  CRC32C of the payload (valid iff kFlagPayloadCrc)
//       52    4 header_crc   CRC32C of bytes [0, 52)
//
// The header CRC is unconditional: encode always stamps it and decode always
// verifies it (before anything else), so a single flipped header bit is
// classified as a checksum fault rather than a confusing protocol error.
// Payload checksums are negotiated: a client opens each connection with a
// `hello` request carrying its highest supported version; the server clamps
// to min(client, server) and both sides checksum payloads only when the
// negotiated version is >= 1. A v0 peer never sends `hello` and never sets
// kFlagPayloadCrc, so old binaries interoperate with checksums off.
//
// The priority class byte was carved out of the v1 reserved field (which a
// v0 peer always sends as zero), so class 0 — the default — is byte-for-byte
// what every pre-class binary already emits: old captures still decode, and
// old receivers reject classes they don't understand via the reserved check.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/status.hpp"
#include "rt/scheduler.hpp"  // kMaxPriorityClass

namespace iofwd::rt {

enum class MsgType : std::uint8_t {
  request = 1,
  reply = 2,
};

enum class OpCode : std::uint8_t {
  open = 1,
  write = 2,
  read = 3,
  close = 4,
  fsync = 5,
  shutdown = 6,  // client asks the server to stop serving it
  fstat = 7,     // query attributes (size); always synchronous (Sec. IV)
  hello = 8,     // version negotiation; first request on a connection
  ping = 9,      // liveness probe: replied inline, never queued (DESIGN.md §16)
};

// Highest opcode the protocol defines. decode() and opcode_name() are tied
// to this bound by static_asserts/tests so adding an opcode forces both to
// be updated in the same change.
inline constexpr std::uint8_t kMaxOpCode = static_cast<std::uint8_t>(OpCode::ping);

// Highest protocol version this build speaks. v0 = the original unchecked
// framing (44-byte headers are gone, but v0 semantics = no payload CRCs).
inline constexpr std::uint16_t kProtoVersion = 1;

struct FrameHeader {
  static constexpr std::uint32_t kMagic = 0x494f4657;  // "IOFW"
  static constexpr std::size_t kWireSize = 56;
  // Bytes covered by header_crc: everything before the trailing CRC field.
  static constexpr std::size_t kCrcCoverage = kWireSize - 4;

  std::uint32_t magic = kMagic;
  MsgType type = MsgType::request;
  OpCode op = OpCode::open;
  std::uint16_t flags = 0;        // see kFlag* below
  std::uint16_t version = 0;      // sender's protocol version
  std::uint8_t klass = 0;         // priority class, <= kMaxPriorityClass
  std::uint8_t reserved = 0;      // must be zero on the wire
  std::int32_t fd = -1;
  std::int32_t status = 0;        // Errc as i32 (replies)
  std::uint64_t seq = 0;          // client-assigned request id
  std::uint64_t offset = 0;       // file offset for read/write
  std::uint64_t payload_len = 0;  // bytes following the header
  // Per-op deadline budget in ms, counted from arrival at the server; an op
  // still unexecuted when it expires bounces with timed_out. 0 = none.
  std::uint32_t deadline_ms = 0;
  std::uint32_t payload_crc = 0;  // CRC32C of payload; valid iff kFlagPayloadCrc
  std::uint32_t header_crc = 0;   // CRC32C of the first kCrcCoverage bytes

  static constexpr std::uint16_t kFlagStaged = 1;      // async early reply
  static constexpr std::uint16_t kFlagPayloadCrc = 2;  // payload_crc is set
  static constexpr std::uint16_t kFlagMask = kFlagStaged | kFlagPayloadCrc;

  // Serialises the header and stamps header_crc over the encoded bytes
  // (the in-memory header_crc field is ignored; payload_crc is written
  // verbatim — call stamp_payload_crc first when sending a checksummed
  // payload).
  void encode(std::span<std::byte, kWireSize> out) const;

  // Returns checksum_error when the stored header_crc does not match the
  // received bytes (checked first — a flipped bit anywhere in the header
  // lands here, not on a field check), and protocol_error on bad magic,
  // unknown type/op, undefined flag bits, a priority class above
  // kMaxPriorityClass, nonzero reserved field, or a version above
  // kProtoVersion. payload_len is bounded by kMaxPayload before returning,
  // so callers may allocate based on it.
  static Result<FrameHeader> decode(std::span<const std::byte, kWireSize> in);
  // Same, for buffers whose extent is only known at runtime (fuzzers,
  // stream readers): rejects spans != kWireSize with protocol_error.
  static Result<FrameHeader> decode(std::span<const std::byte> in);

  // Computes the payload CRC, stores it, and sets kFlagPayloadCrc.
  void stamp_payload_crc(std::span<const std::byte> payload);
  // True when the payload matches payload_crc. Headers without
  // kFlagPayloadCrc accept any payload (unchecked, v0 semantics).
  [[nodiscard]] bool payload_crc_ok(std::span<const std::byte> payload) const;
};

// Sanity limit: a single forwarded operation may carry at most 256 MiB
// (far beyond any ION buffer the paper considers).
inline constexpr std::uint64_t kMaxPayload = 256ull << 20;

// The longest reply payload request `req` can get: the requested length for
// a read, the 8-byte size for fstat, nothing otherwise. Clients check a
// reply's payload_len against it before sizing a buffer from it, so a buggy
// or hostile server cannot make a 4 KiB read allocate (and wait for) more.
[[nodiscard]] inline std::uint64_t reply_payload_bound(const FrameHeader& req) {
  return req.op == OpCode::read ? req.payload_len : req.op == OpCode::fstat ? 8 : 0;
}

[[nodiscard]] const char* opcode_name(OpCode op);

}  // namespace iofwd::rt
