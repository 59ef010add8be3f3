#include "src/core/transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/core/error.hpp"

namespace castanet::transport {

namespace {

// ---------------------------------------------------------------------------
// Socket pipe: length-prefixed frames over a stream socket.  The reader
// keeps a reassembly buffer because SOCK_STREAM has no message boundaries.

class SocketEndpoint final : public FramePipe {
 public:
  explicit SocketEndpoint(int fd) : fd_(fd) {}
  ~SocketEndpoint() override { close(); }

  bool send_frame(const void* data, std::size_t len) override {
    if (fd_ < 0 || len > kMaxFrameBytes) return false;
    std::uint8_t hdr[4];
    const std::uint32_t n = static_cast<std::uint32_t>(len);
    hdr[0] = static_cast<std::uint8_t>(n);
    hdr[1] = static_cast<std::uint8_t>(n >> 8);
    hdr[2] = static_cast<std::uint8_t>(n >> 16);
    hdr[3] = static_cast<std::uint8_t>(n >> 24);
    if (!write_all(hdr, sizeof hdr)) return false;
    if (!write_all(data, len)) return false;
    ++sent_;
    bytes_ += len;
    return true;
  }

  RecvStatus recv_frame(std::vector<std::uint8_t>& out,
                        int timeout_ms) override {
    // Deadline-based: partial frames keep waiting within the original budget.
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      if (buf_.size() >= 4) {
        const std::size_t flen = static_cast<std::size_t>(buf_[0]) |
                                 (static_cast<std::size_t>(buf_[1]) << 8) |
                                 (static_cast<std::size_t>(buf_[2]) << 16) |
                                 (static_cast<std::size_t>(buf_[3]) << 24);
        if (flen > kMaxFrameBytes) {
          // A corrupt or hostile length prefix: nothing after it can be
          // framed again, so drop the connection instead of buffering up
          // to 4 GiB while waiting for the "frame" to complete.
          close();
          buf_.clear();
          return RecvStatus::kClosed;
        }
        if (buf_.size() >= 4 + flen) {
          out.assign(buf_.begin() + 4, buf_.begin() + 4 + flen);
          buf_.erase(buf_.begin(), buf_.begin() + 4 + flen);
          ++received_;
          return RecvStatus::kFrame;
        }
      }
      if (fd_ < 0) return RecvStatus::kClosed;
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        wait_ms = static_cast<int>(
            std::max<std::int64_t>(0, timeout_ms - elapsed));
      }
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, wait_ms);
      if (pr == 0) return RecvStatus::kTimeout;
      if (pr < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::kClosed;
      }
      std::uint8_t chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got > 0) {
        buf_.insert(buf_.end(), chunk, chunk + got);
      } else if (got == 0) {
        return RecvStatus::kClosed;  // peer closed; partial frame is lost
      } else if (errno != EINTR && errno != EAGAIN) {
        return RecvStatus::kClosed;
      }
    }
  }

  void close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

  std::uint64_t frames_sent() const override { return sent_; }
  std::uint64_t frames_received() const override { return received_; }
  std::uint64_t bytes_sent() const override { return bytes_; }
  int native_handle() const override { return fd_; }

 private:
  bool write_all(const void* data, std::size_t len) {
    const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
    while (len > 0) {
      const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // EPIPE and friends: peer is gone
      }
      p += n;
      len -= static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  std::vector<std::uint8_t> buf_;  ///< stream reassembly buffer
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace

std::pair<std::unique_ptr<FramePipe>, std::unique_ptr<FramePipe>>
make_socket_pipe() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw IoError(std::string("socketpair(AF_UNIX) failed: ") +
                  std::strerror(errno));
  }
  return {std::make_unique<SocketEndpoint>(fds[0]),
          std::make_unique<SocketEndpoint>(fds[1])};
}

std::unique_ptr<FramePipe> wrap_socket(int fd) {
  require(fd >= 0, "wrap_socket: invalid fd");
  return std::make_unique<SocketEndpoint>(fd);
}

}  // namespace castanet::transport
