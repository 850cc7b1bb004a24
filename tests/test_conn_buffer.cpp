// Per-connection buffer tests (DESIGN.md §6h/§6j): the edge cases of the
// incremental frame peel and the staged write queue — frames split across
// 1-byte reads, EAGAIN mid-frame flushes, stage/consume pointer
// stability, capacity reclaim after a burst — are pinned here without a
// reactor in the loop.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "rpc/conn_buffer.h"
#include "rpc/framing.h"

namespace via {
namespace {

std::vector<std::byte> encode_frame(std::uint8_t type, std::size_t payload_len,
                                    std::byte fill = std::byte{0xAB}) {
  std::vector<std::byte> out;
  const auto len = static_cast<std::uint32_t>(payload_len);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
  }
  out.push_back(static_cast<std::byte>(type));
  out.insert(out.end(), payload_len, fill);
  return out;
}

// ------------------------------------------------------------- ReadBuffer

TEST(ReadBuffer, FrameSplitAcrossOneByteChunks) {
  // The peel must hold partial state across arbitrarily small reads: one
  // byte at a time is the worst case a non-blocking socket can deliver.
  const std::vector<std::byte> wire = encode_frame(3, 11, std::byte{0x5C});
  ReadBuffer rb;
  Frame frame;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const auto dst = rb.writable(1);
    ASSERT_GE(dst.size(), 1u);
    dst[0] = wire[i];
    rb.commit(1);
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(rb.next_frame(frame)) << "frame complete after " << i + 1 << " bytes";
    }
  }
  ASSERT_TRUE(rb.next_frame(frame));
  EXPECT_EQ(frame.type, 3);
  ASSERT_EQ(frame.payload.size(), 11u);
  EXPECT_EQ(frame.payload[10], std::byte{0x5C});
  EXPECT_EQ(rb.buffered(), 0u);
  EXPECT_FALSE(rb.next_frame(frame));
}

TEST(ReadBuffer, ManyFramesFromOneCommit) {
  std::vector<std::byte> wire;
  for (std::uint8_t t = 1; t <= 5; ++t) {
    const auto f = encode_frame(t, t * 3u);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  ReadBuffer rb;
  const auto dst = rb.writable(wire.size());
  std::memcpy(dst.data(), wire.data(), wire.size());
  rb.commit(wire.size());

  Frame frame;
  for (std::uint8_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(rb.next_frame(frame));
    EXPECT_EQ(frame.type, t);
    EXPECT_EQ(frame.payload.size(), t * 3u);
  }
  EXPECT_FALSE(rb.next_frame(frame));
}

TEST(ReadBuffer, OversizedHeaderThrowsProtocolError) {
  const auto wire = encode_frame(1, 0);
  std::vector<std::byte> bad(wire.begin(), wire.begin() + 5);
  const std::uint32_t len = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) bad[static_cast<std::size_t>(i)] =
      static_cast<std::byte>((len >> (8 * i)) & 0xFF);
  ReadBuffer rb;
  const auto dst = rb.writable(bad.size());
  std::memcpy(dst.data(), bad.data(), bad.size());
  rb.commit(bad.size());
  Frame frame;
  EXPECT_THROW((void)rb.next_frame(frame), ProtocolError);
}

TEST(ReadBuffer, BufferedNonzeroAtMidFrameEof) {
  const auto wire = encode_frame(2, 40);
  ReadBuffer rb;
  const std::size_t partial = wire.size() - 7;
  const auto dst = rb.writable(partial);
  std::memcpy(dst.data(), wire.data(), partial);
  rb.commit(partial);
  Frame frame;
  EXPECT_FALSE(rb.next_frame(frame));
  // What a reactor checks at EOF to tell "clean close" from "died
  // mid-frame".
  EXPECT_GT(rb.buffered(), 0u);
}

// ------------------------------------------------------------ WriteBuffer

TEST(WriteBuffer, StageConsumeRoundTrip) {
  WriteBuffer wb;
  const std::vector<std::byte> p1(10, std::byte{0x11});
  const std::vector<std::byte> p2(20, std::byte{0x22});
  wb.frame(1, p1);
  wb.frame(2, p2);
  const std::size_t total = (5 + 10) + (5 + 20);
  EXPECT_EQ(wb.pending(), total);
  EXPECT_EQ(wb.approx_bytes(), total);

  auto span = wb.stage();
  ASSERT_EQ(span.size(), total);
  const std::byte* stable = span.data();

  // Partial consume: the remaining staged bytes keep their addresses even
  // if new frames arrive meanwhile (an async send may reference them).
  wb.consume(7);
  wb.frame(3, p1);
  span = wb.stage();
  EXPECT_EQ(span.data(), stable + 7);
  EXPECT_EQ(span.size(), total - 7);
  EXPECT_EQ(wb.pending(), total - 7 + 5 + 10);

  // Drain the staged region; the next stage() promotes the queued frame.
  wb.consume(span.size());
  span = wb.stage();
  ASSERT_EQ(span.size(), 5u + 10);
  EXPECT_EQ(static_cast<std::uint8_t>(span[4]), 3);
  wb.consume(span.size());
  EXPECT_TRUE(wb.empty());
  EXPECT_EQ(wb.pending(), 0u);
  EXPECT_TRUE(wb.stage().empty());
}

TEST(WriteBuffer, FullDrainReclaimsBurstCapacity) {
  WriteBuffer wb;
  // A burst far above the retain threshold (64 KiB)...
  const std::vector<std::byte> big(200 * 1024, std::byte{0x77});
  wb.frame(9, big);
  auto span = wb.stage();
  ASSERT_GT(span.size(), 200u * 1024);
  EXPECT_GT(wb.reserve_bytes(), 200u * 1024);
  // ...must not pin its high-water allocation after the queue drains.
  wb.consume(span.size());
  EXPECT_TRUE(wb.empty());
  EXPECT_LT(wb.reserve_bytes(), 128u * 1024);

  // And a small queue keeps its capacity for reuse (no thrash).
  const std::vector<std::byte> small(100, std::byte{0x33});
  wb.frame(1, small);
  span = wb.stage();
  const std::size_t kept = wb.reserve_bytes();
  wb.consume(span.size());
  EXPECT_EQ(wb.reserve_bytes(), kept);
}

TEST(WriteBuffer, FlushHandlesEagainMidFrame) {
  // Tiny kernel buffers force flush() to park mid-frame (even mid-header)
  // and pick up exactly where it left off once the reader drains.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  // The writer side must be non-blocking, as in the reactors.
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);

  WriteBuffer wb;
  std::vector<std::byte> expected;
  for (std::uint8_t t = 1; t <= 40; ++t) {
    const std::vector<std::byte> payload(1000 + t, static_cast<std::byte>(t));
    wb.frame(t, payload);
    const auto f = encode_frame(t, payload.size(), static_cast<std::byte>(t));
    expected.insert(expected.end(), f.begin(), f.end());
  }

  std::vector<std::byte> received;
  received.reserve(expected.size());
  char buf[2048];
  bool drained = wb.flush(fds[0]);
  EXPECT_FALSE(drained);  // ~41 KB cannot fit a 4 KB socket buffer
  int spins = 0;
  while (!drained) {
    ASSERT_LT(++spins, 10000);
    const ssize_t n = ::read(fds[1], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    const auto* p = reinterpret_cast<const std::byte*>(buf);
    received.insert(received.end(), p, p + n);
    drained = wb.flush(fds[0]);
  }
  EXPECT_TRUE(wb.empty());
  for (;;) {
    const ssize_t n = ::read(fds[1], buf, sizeof(buf));
    if (n <= 0) break;
    const auto* p = reinterpret_cast<const std::byte*>(buf);
    received.insert(received.end(), p, p + n);
    if (received.size() >= expected.size()) break;
  }
  // Byte-exact: no frame reordered, duplicated, or torn by the partial
  // writes.
  EXPECT_EQ(received, expected);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WriteBuffer, FlushReportsHardErrors) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
  ::close(fds[1]);  // peer gone: writes now fail hard (EPIPE), not EAGAIN
  WriteBuffer wb;
  const std::vector<std::byte> payload(64, std::byte{0x01});
  wb.frame(1, payload);
  EXPECT_THROW((void)wb.flush(fds[0]), std::system_error);
  ::close(fds[0]);
}

}  // namespace
}  // namespace via
