// Incremental frame reassembly for event-driven receivers (DESIGN.md §13).
//
// An epoll lane reads whatever bytes a socket has and must rebuild frames
// across arbitrary read boundaries: a header may arrive one byte at a time,
// a payload across many readiness events. FrameAssembler is that state
// machine. It is deliberately policy-free: it buffers exactly one header,
// asks the caller (via on_header) where the payload bytes should land —
// a BML buffer, heap memory, or nowhere (an oversize bounce swallows them) —
// and fires on_frame once the payload is complete. Header decoding,
// validation, counters, and dispatch all stay in the caller (the server's
// receive lanes).
//
// Direct receive: once a header is parsed, payload_dest() exposes the rest
// of the payload's destination so the receiver can read() straight into the
// BML lease, then commit() the byte count. Only bytes that arrived in the
// same read as the header pass through feed()'s memcpy.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "core/status.hpp"
#include "rt/wire.hpp"

namespace iofwd::rt {

class FrameAssembler {
 public:
  // Where the payload bytes of the current frame go. dest == nullptr means
  // "consume len bytes but store nothing" (bounced oversize writes).
  struct Sink {
    std::uint64_t len = 0;
    std::byte* dest = nullptr;
  };

  // Bytes required to finish the current unit (header or payload). Never 0:
  // a zero-length payload completes inside feed() without a new read.
  [[nodiscard]] std::size_t needed() const {
    if (!in_payload_) return FrameHeader::kWireSize - have_;
    return static_cast<std::size_t>(sink_.len - filled_);
  }

  // Drop any partial frame (connection teardown / reuse).
  void reset() {
    have_ = 0;
    filled_ = 0;
    in_payload_ = false;
    sink_ = {};
  }

  // The unfilled rest of the current payload's destination. Empty while a
  // header is pending and for a discard sink (dest == nullptr): those bytes
  // go through feed().
  [[nodiscard]] std::span<std::byte> payload_dest() const {
    if (!in_payload_ || sink_.dest == nullptr) return {};
    return {sink_.dest + filled_, static_cast<std::size_t>(sink_.len - filled_)};
  }

  // Account n bytes the caller stored at payload_dest() (n <= its size) and
  // fire on_frame if they complete the payload; same contract as feed().
  template <typename OnFrame>
  Status commit(std::size_t n, OnFrame&& on_frame) {
    filled_ += n;
    if (filled_ < sink_.len) return Status::ok();  // payload still partial
    in_payload_ = false;
    return on_frame();
  }

  // Pump bytes through the state machine.
  //   on_header: Result<Sink>(std::span<const std::byte, kWireSize>) —
  //     decode + validate + choose payload staging; an error status drops
  //     the connection (the caller has already classified and counted it).
  //   on_frame: Status() — a full frame (header + payload) is assembled;
  //     a non-ok status stops this connection (shutdown opcode, stop()).
  // Returns ok when all bytes were consumed and more are welcome.
  template <typename OnHeader, typename OnFrame>
  Status feed(std::span<const std::byte> bytes, OnHeader&& on_header, OnFrame&& on_frame) {
    std::size_t pos = 0;
    while (true) {
      if (!in_payload_) {
        const std::size_t take =
            std::min(bytes.size() - pos, FrameHeader::kWireSize - have_);
        std::memcpy(header_.data() + have_, bytes.data() + pos, take);
        have_ += take;
        pos += take;
        if (have_ < FrameHeader::kWireSize) return Status::ok();  // need more bytes
        auto plan =
            on_header(std::span<const std::byte, FrameHeader::kWireSize>(header_));
        if (!plan.is_ok()) return plan.status();
        sink_ = plan.value();
        filled_ = 0;
        have_ = 0;
        in_payload_ = true;
      }
      const std::uint64_t want = sink_.len - filled_;
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::uint64_t>(want, bytes.size() - pos));
      if (sink_.dest != nullptr && take > 0) {
        std::memcpy(sink_.dest + filled_, bytes.data() + pos, take);
      }
      pos += take;
      if (Status st = commit(take, on_frame); !st.is_ok()) return st;
      if (in_payload_ || pos >= bytes.size()) return Status::ok();
    }
  }

 private:
  std::array<std::byte, FrameHeader::kWireSize> header_{};
  std::size_t have_ = 0;
  Sink sink_{};
  std::uint64_t filled_ = 0;
  bool in_payload_ = false;
};

}  // namespace iofwd::rt
