// Byte-frame transport between co-simulation endpoints.
//
// The paper couples OPNET and VSS as separate UNIX processes exchanging
// time-stamped messages over IPC (§3.1).  A FramePipe is that seam: a
// reliable, ordered, bidirectional pipe of length-prefixed binary frames.
// Its implementation is an AF_UNIX SOCK_STREAM socket (make_socket_pipe,
// wrap_socket), whose endpoints may live in different processes — the
// session farm's worker protocol and remote DutBackend hosting.  The
// interface stays abstract so protocol code and tests can take any pipe.
//
// Frames are opaque bytes at this layer; castanet/wire.hpp defines the
// message serialization on top.  Modeled transport latency is NOT accounted
// here — it stays a property of the message-level channel (the simulated
// per-message overhead of MessageChannel), so swapping the real transport
// never changes simulated time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace castanet::transport {

/// Largest frame a pipe carries: far above the largest frames sent in
/// practice (a 70,000-byte test frame; farm results with a telemetry
/// snapshot take about 4 KB).  A length prefix above it is taken as a
/// corrupt or hostile header.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{16} << 20;

/// Result of one blocking receive attempt.
enum class RecvStatus {
  kFrame,    ///< a complete frame was written to `out`
  kClosed,   ///< peer closed (or died); no more frames will arrive
  kTimeout,  ///< `timeout_ms` elapsed with no complete frame
};

/// A reliable, ordered, bidirectional frame pipe between two endpoints.
/// One endpoint object per side; each side may have at most one sender and
/// one receiver thread at a time.
class FramePipe {
 public:
  virtual ~FramePipe() = default;
  FramePipe(const FramePipe&) = delete;
  FramePipe& operator=(const FramePipe&) = delete;

  /// Sends one frame; blocks until the peer (or the kernel buffer) accepted
  /// it.  Returns false when the pipe is closed or the frame is larger than
  /// kMaxFrameBytes — the frame is dropped.
  virtual bool send_frame(const void* data, std::size_t len) = 0;
  bool send_frame(const std::vector<std::uint8_t>& frame) {
    return send_frame(frame.data(), frame.size());
  }

  /// Receives the next frame into `out` (replaced, not appended).  Blocks up
  /// to `timeout_ms` milliseconds; negative means wait forever.  A length
  /// prefix above kMaxFrameBytes closes this endpoint and yields kClosed.
  virtual RecvStatus recv_frame(std::vector<std::uint8_t>& out,
                                int timeout_ms) = 0;

  /// Closes this endpoint: the peer's pending receives return kClosed once
  /// drained, subsequent sends on either side fail.
  virtual void close() = 0;

  virtual std::uint64_t frames_sent() const = 0;
  virtual std::uint64_t frames_received() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;

  /// OS-pollable handle (the socket fd), or -1 when this endpoint has none
  /// (closed).  Lets a dispatcher poll() many pipes at once.
  virtual int native_handle() const { return -1; }

 protected:
  FramePipe() = default;
};

/// Creates a connected AF_UNIX SOCK_STREAM endpoint pair (socketpair).
/// Either endpoint may be carried across fork() into a child process; close
/// the other endpoint in each process.  Throws IoError on failure.
std::pair<std::unique_ptr<FramePipe>, std::unique_ptr<FramePipe>>
make_socket_pipe();

/// Wraps an already-connected stream socket fd (takes ownership).
std::unique_ptr<FramePipe> wrap_socket(int fd);

}  // namespace castanet::transport
