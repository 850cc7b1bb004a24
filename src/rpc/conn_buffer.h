// Per-connection byte buffers for the reactor (DESIGN.md §6h/§6j).
//
// A non-blocking socket hands the reactor arbitrary byte chunks, so frame
// boundaries no longer line up with read/write calls.  ReadBuffer
// accumulates inbound bytes and yields complete frames incrementally —
// one readiness event can surface many frames (the batched-decode path) or
// none (a partial frame waiting for its tail).  WriteBuffer queues encoded
// reply frames and flushes as much as the socket accepts, leaving the rest
// for the next EPOLLOUT.
//
// WriteBuffer keeps two vectors: `buf_` accepts new frames (and may
// reallocate freely), while `staged_` holds the bytes currently being
// sent and is never touched until consume() retires them.  stage()
// promotes queued bytes into the staged vector with a swap (zero copy when
// the staged side is empty), so steady-state traffic ping-pongs two
// allocations; flush(fd) is built on the stage/consume pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rpc/framing.h"

namespace via {

/// Inbound byte accumulator with incremental frame decode.
class ReadBuffer {
 public:
  /// A span of at least `min_size` writable bytes at the buffer's tail;
  /// recv(2) directly into it, then commit() the byte count actually read.
  /// Compacts the consumed prefix away when it dominates the buffer.
  [[nodiscard]] std::span<std::byte> writable(std::size_t min_size);
  void commit(std::size_t n) noexcept { end_ += n; }

  /// Extracts the next complete frame.  Returns false when more bytes are
  /// needed.  Throws ProtocolError when the buffered header declares a
  /// payload over kMaxPayload — the stream can't be resynchronized after
  /// that, so the caller must close the connection.
  [[nodiscard]] bool next_frame(Frame& out);

  /// Bytes received but not yet consumed as frames; nonzero at EOF means
  /// the peer died mid-frame.
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }

  /// Heap bytes currently held (capacity, not live bytes) — RSS accounting.
  [[nodiscard]] std::size_t approx_bytes() const noexcept { return buf_.capacity(); }

 private:
  std::vector<std::byte> buf_;
  std::size_t begin_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;    ///< one past the last received byte
};

/// Outbound frame queue with partial-write draining through a
/// pointer-stable staged region.
class WriteBuffer {
 public:
  /// Encodes one frame (header + payload) onto the queue.
  void frame(std::uint8_t type, std::span<const std::byte> payload);

  [[nodiscard]] bool empty() const noexcept {
    return buf_.empty() && staged_pos_ == staged_.size();
  }
  /// Unsent bytes across both the queued and staged regions.
  [[nodiscard]] std::size_t pending() const noexcept {
    return buf_.size() + (staged_.size() - staged_pos_);
  }
  /// Same as pending(); the name the backpressure caps read against.
  [[nodiscard]] std::size_t approx_bytes() const noexcept { return pending(); }

  /// Heap bytes currently held (capacity across both vectors), making the
  /// full-drain capacity reclaim observable.
  [[nodiscard]] std::size_t reserve_bytes() const noexcept {
    return buf_.capacity() + staged_.capacity();
  }

  /// Promotes queued bytes into the staged region and returns the
  /// contiguous unsent span.  The returned bytes are pointer-stable until
  /// consume() retires them — frame() appends go to the other vector.
  /// When the staged region still has unsent bytes, no promotion happens;
  /// the remaining staged span is returned as-is.  Empty span means
  /// nothing to send.
  [[nodiscard]] std::span<const std::byte> stage();

  /// Retires `n` bytes of the span last returned by stage() (the socket
  /// took them).  On full drain of the staged region, reclaims its
  /// capacity when it outgrew the retain threshold, so a burst does not
  /// pin its high-water allocation for the connection's lifetime.
  void consume(std::size_t n) noexcept;

  /// Writes to `fd` until the queue drains or the socket would block.
  /// Returns true when drained (the caller can disarm EPOLLOUT).  Throws
  /// std::system_error on a hard write error.  Built on stage()/consume().
  [[nodiscard]] bool flush(int fd);

 private:
  /// Staged capacity above this is released on full drain instead of
  /// being kept for reuse.  64 KiB ≈ one read-chunk's worth of replies.
  static constexpr std::size_t kRetainCapacity = 64 * 1024;

  std::vector<std::byte> buf_;      ///< accepts new frames; may reallocate
  std::vector<std::byte> staged_;   ///< being sent; pointer-stable
  std::size_t staged_pos_ = 0;      ///< first unsent byte within staged_
};

}  // namespace via
