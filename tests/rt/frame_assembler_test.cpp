#include "rt/frame_assembler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "rt/wire.hpp"

namespace iofwd::rt {
namespace {

// Encode a request frame (header + payload) into a flat byte vector, the way
// a client would put it on the wire.
std::vector<std::byte> frame_bytes(OpCode op, std::span<const std::byte> payload,
                                   std::uint64_t seq = 1) {
  FrameHeader h;
  h.type = MsgType::request;
  h.op = op;
  h.seq = seq;
  h.payload_len = payload.size();
  h.version = 1;
  if (!payload.empty()) h.stamp_payload_crc(payload);
  std::vector<std::byte> out(FrameHeader::kWireSize + payload.size());
  h.encode(std::span<std::byte, FrameHeader::kWireSize>(out.data(), FrameHeader::kWireSize));
  std::copy(payload.begin(), payload.end(), out.begin() + FrameHeader::kWireSize);
  return out;
}

// Test double for the server's receive path: stages every payload on the
// heap and records each completed frame.
struct Collector {
  FrameAssembler fsm;
  std::vector<std::pair<FrameHeader, std::vector<std::byte>>> frames;
  std::vector<std::byte> staging;

  Status feed(std::span<const std::byte> bytes) {
    return fsm.feed(
        bytes,
        [&](std::span<const std::byte, FrameHeader::kWireSize> hdr)
            -> Result<FrameAssembler::Sink> {
          auto h = FrameHeader::decode(hdr);
          if (!h.is_ok()) return h.status();
          pending = h.value();
          staging.resize(pending.payload_len);
          return FrameAssembler::Sink{pending.payload_len, staging.data()};
        },
        [&] { return on_frame(); });
  }

  // Receive the way the blocking receiver does: payload bytes are copied
  // straight to payload_dest() and committed; everything else goes through
  // feed(), exactly needed() bytes at a time.
  Status pump(std::span<const std::byte> bytes) {
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t left = bytes.size() - pos;
      const std::span<std::byte> dest = fsm.payload_dest();
      if (!dest.empty()) {
        const std::size_t n = std::min(dest.size(), left);
        std::memcpy(dest.data(), bytes.data() + pos, n);
        direct_bytes += n;
        pos += n;
        if (Status st = fsm.commit(n, [&] { return on_frame(); }); !st.is_ok()) return st;
        continue;
      }
      const std::size_t n = std::min(fsm.needed(), left);
      if (Status st = feed(bytes.subspan(pos, n)); !st.is_ok()) return st;
      pos += n;
    }
    return Status::ok();
  }

  Status on_frame() {
    frames.emplace_back(pending, staging);
    return Status::ok();
  }

  FrameHeader pending;
  std::size_t direct_bytes = 0;
};

TEST(FrameAssembler, WholeFrameInOneFeed) {
  std::vector<std::byte> payload(100, std::byte{0xab});
  const auto wire = frame_bytes(OpCode::write, payload);

  Collector c;
  ASSERT_TRUE(c.feed(wire).is_ok());
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].first.op, OpCode::write);
  EXPECT_EQ(c.frames[0].second, payload);
}

TEST(FrameAssembler, OneBytePerFeedReassemblesIdentically) {
  std::vector<std::byte> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i);
  const auto wire = frame_bytes(OpCode::write, payload, 9);

  Collector c;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(c.feed({wire.data() + i, 1}).is_ok());
    // The frame must complete exactly at the last byte, not before.
    EXPECT_EQ(c.frames.size(), i + 1 == wire.size() ? 1u : 0u) << "at byte " << i;
  }
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].first.seq, 9u);
  EXPECT_EQ(c.frames[0].second, payload);
}

TEST(FrameAssembler, SplitAtEveryBoundary) {
  // Cut the wire bytes at every possible single split point; the assembler
  // must produce the identical frame regardless of where the cut lands
  // (mid-header, exactly at the header edge, mid-payload).
  std::vector<std::byte> payload(64, std::byte{0x5c});
  const auto wire = frame_bytes(OpCode::write, payload);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    Collector c;
    ASSERT_TRUE(c.feed({wire.data(), cut}).is_ok());
    ASSERT_TRUE(c.feed({wire.data() + cut, wire.size() - cut}).is_ok());
    ASSERT_EQ(c.frames.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(c.frames[0].second, payload) << "cut at " << cut;
  }
}

TEST(FrameAssembler, MultipleFramesInOneChunk) {
  std::vector<std::byte> wire;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    std::vector<std::byte> payload(16 * s, static_cast<std::byte>(s));
    auto f = frame_bytes(OpCode::write, payload, s);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  Collector c;
  ASSERT_TRUE(c.feed(wire).is_ok());
  ASSERT_EQ(c.frames.size(), 3u);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    EXPECT_EQ(c.frames[s - 1].first.seq, s);
    EXPECT_EQ(c.frames[s - 1].second.size(), 16 * s);
  }
}

TEST(FrameAssembler, ZeroPayloadFrameCompletesWithoutMoreBytes) {
  const auto wire = frame_bytes(OpCode::fsync, {});
  Collector c;
  ASSERT_TRUE(c.feed(wire).is_ok());
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].first.payload_len, 0u);
  // needed() is back to a fresh header — never zero — and there never was
  // a payload destination to read into.
  EXPECT_EQ(c.fsm.needed(), FrameHeader::kWireSize);
  EXPECT_TRUE(c.fsm.payload_dest().empty());
  // The next frame's payload is received directly.
  std::vector<std::byte> payload(9, std::byte{7});
  ASSERT_TRUE(c.pump(frame_bytes(OpCode::write, payload, 2)).is_ok());
  ASSERT_EQ(c.frames.size(), 2u);
  EXPECT_EQ(c.frames[1].second, payload);
  EXPECT_EQ(c.direct_bytes, payload.size());
}

TEST(FrameAssembler, NeededTracksHeaderThenPayload) {
  std::vector<std::byte> payload(10, std::byte{1});
  const auto wire = frame_bytes(OpCode::write, payload);

  Collector c;
  EXPECT_EQ(c.fsm.needed(), FrameHeader::kWireSize);
  ASSERT_TRUE(c.feed({wire.data(), 20}).is_ok());
  EXPECT_EQ(c.fsm.needed(), FrameHeader::kWireSize - 20);
  ASSERT_TRUE(c.feed({wire.data() + 20, FrameHeader::kWireSize - 20}).is_ok());
  EXPECT_EQ(c.fsm.needed(), payload.size());
  ASSERT_TRUE(c.feed({wire.data() + FrameHeader::kWireSize, 4}).is_ok());
  EXPECT_EQ(c.fsm.needed(), payload.size() - 4);
}

TEST(FrameAssembler, NullSinkSwallowsPayload) {
  // dest == nullptr: consume the payload, store nothing (oversize bounce).
  std::vector<std::byte> payload(128, std::byte{0xee});
  const auto wire = frame_bytes(OpCode::write, payload);

  FrameAssembler fsm;
  int frames = 0;
  auto on_header = [&](std::span<const std::byte, FrameHeader::kWireSize> hdr)
      -> Result<FrameAssembler::Sink> {
    auto h = FrameHeader::decode(hdr);
    EXPECT_TRUE(h.is_ok());
    return FrameAssembler::Sink{h.value().payload_len, nullptr};
  };
  auto on_frame = [&]() -> Status {
    ++frames;
    return Status::ok();
  };
  ASSERT_TRUE(fsm.feed({wire.data(), FrameHeader::kWireSize}, on_header, on_frame).is_ok());
  // Mid-payload, but there is nothing to read into: the bytes go through feed().
  EXPECT_TRUE(fsm.payload_dest().empty());
  EXPECT_EQ(fsm.needed(), payload.size());
  ASSERT_TRUE(fsm.feed({wire.data() + FrameHeader::kWireSize, payload.size()}, on_header,
                       on_frame)
                  .is_ok());
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(fsm.needed(), FrameHeader::kWireSize);
}

TEST(FrameAssembler, HeaderErrorStopsFeedAndDropsRestOfChunk) {
  std::vector<std::byte> payload(8, std::byte{2});
  auto wire = frame_bytes(OpCode::write, payload);
  wire[5] ^= std::byte{0x01};  // flip a header bit -> header CRC mismatch

  Collector c;
  const Status st = c.feed(wire);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::checksum_error);
  EXPECT_TRUE(c.frames.empty());
}

TEST(FrameAssembler, OnFrameErrorPropagates) {
  const auto wire = frame_bytes(OpCode::fsync, {});
  FrameAssembler fsm;
  auto st = fsm.feed(
      wire,
      [&](std::span<const std::byte, FrameHeader::kWireSize>)
          -> Result<FrameAssembler::Sink> { return FrameAssembler::Sink{0, nullptr}; },
      [&]() -> Status { return Status(Errc::shutdown, "client requested shutdown"); });
  EXPECT_EQ(st.code(), Errc::shutdown);
}

TEST(FrameAssembler, ResetDropsPartialFrame) {
  std::vector<std::byte> payload(32, std::byte{3});
  const auto wire = frame_bytes(OpCode::write, payload);

  Collector c;
  ASSERT_TRUE(c.feed({wire.data(), FrameHeader::kWireSize + 5}).is_ok());
  EXPECT_LT(c.fsm.needed(), payload.size());
  // Ten more payload bytes arrive directly before the reset.
  const std::span<std::byte> dest = c.fsm.payload_dest();
  ASSERT_EQ(dest.size(), payload.size() - 5);
  std::memcpy(dest.data(), wire.data() + FrameHeader::kWireSize + 5, 10);
  ASSERT_TRUE(c.fsm.commit(10, [&] { return c.on_frame(); }).is_ok());
  EXPECT_EQ(c.fsm.payload_dest().size(), payload.size() - 15);
  c.fsm.reset();
  EXPECT_EQ(c.fsm.needed(), FrameHeader::kWireSize);
  EXPECT_TRUE(c.fsm.payload_dest().empty());
  EXPECT_TRUE(c.frames.empty());
  // A whole fresh frame reassembles cleanly after the reset, both ways.
  ASSERT_TRUE(c.feed(wire).is_ok());
  ASSERT_TRUE(c.pump(wire).is_ok());
  ASSERT_EQ(c.frames.size(), 2u);
  EXPECT_EQ(c.frames[0].second, payload);
  EXPECT_EQ(c.frames[1].second, payload);
}

// --------------------------------------------------------------------------
// Direct receive: payload_dest() + commit().
// --------------------------------------------------------------------------

TEST(FrameAssembler, DirectReceiveAtEverySplitPointMixedWithFeed) {
  // Two frames back to back. The first `cut` bytes arrive as one scratch
  // read through feed(); the rest is pumped, payloads straight into the
  // destination. Every cut yields the same two frames, and every payload
  // byte the scratch read did not carry went the direct way.
  std::vector<std::byte> a(64), b(40);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::byte>(i);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::byte>(0x80 + i);
  auto wire = frame_bytes(OpCode::write, a, 1);
  const std::size_t a_end = wire.size();
  const auto fb = frame_bytes(OpCode::write, b, 2);
  wire.insert(wire.end(), fb.begin(), fb.end());

  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    Collector c;
    ASSERT_TRUE(c.feed({wire.data(), cut}).is_ok()) << "cut at " << cut;
    ASSERT_TRUE(c.pump({wire.data() + cut, wire.size() - cut}).is_ok()) << "cut at " << cut;
    ASSERT_EQ(c.frames.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(c.frames[0].first.seq, 1u);
    EXPECT_EQ(c.frames[0].second, a) << "cut at " << cut;
    EXPECT_EQ(c.frames[1].first.seq, 2u);
    EXPECT_EQ(c.frames[1].second, b) << "cut at " << cut;
    // Payload bytes of a frame whose payload starts at `start` that the
    // scratch read did not already carry.
    auto direct = [&](std::size_t start, std::size_t len) {
      const std::size_t carried = std::clamp(cut, start, start + len) - start;
      return len - carried;
    };
    const std::size_t a_direct = direct(FrameHeader::kWireSize, a.size());
    const std::size_t b_direct = direct(a_end + FrameHeader::kWireSize, b.size());
    EXPECT_EQ(c.direct_bytes, a_direct + b_direct) << "cut at " << cut;
    EXPECT_TRUE(c.fsm.payload_dest().empty());
    EXPECT_EQ(c.fsm.needed(), FrameHeader::kWireSize);
  }
}

TEST(FrameAssembler, DirectReceiveOneBytePerCommit) {
  std::vector<std::byte> payload(33, std::byte{0x42});
  const auto wire = frame_bytes(OpCode::write, payload, 5);
  Collector c;
  ASSERT_TRUE(c.feed({wire.data(), FrameHeader::kWireSize}).is_ok());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const std::span<std::byte> dest = c.fsm.payload_dest();
    ASSERT_EQ(dest.size(), payload.size() - i);
    dest[0] = payload[i];
    ASSERT_TRUE(c.fsm.commit(1, [&] { return c.on_frame(); }).is_ok());
    // The frame completes at the last committed byte, not before.
    EXPECT_EQ(c.frames.size(), i + 1 == payload.size() ? 1u : 0u) << "at byte " << i;
  }
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].second, payload);
}

}  // namespace
}  // namespace iofwd::rt
