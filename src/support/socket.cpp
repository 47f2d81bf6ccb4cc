#include "support/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn {
namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void set_nodelay(int fd) {
  // Request/response lines are tiny; Nagle would add 40ms stalls.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      scanned_(other.scanned_) {
  other.fd_ = -1;
  other.scanned_ = 0;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    scanned_ = other.scanned_;
    other.fd_ = -1;
    other.scanned_ = 0;
  }
  return *this;
}

bool Socket::send_all(const std::string& data) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not process death.
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> Socket::recv_line(std::size_t max_bytes,
                                             bool* too_long) {
  if (too_long != nullptr) *too_long = false;
  for (;;) {
    // Only the bytes appended since the last scan can hold the newline,
    // so a long line costs linear, not quadratic, scanning.
    const std::size_t newline = buffer_.find('\n', scanned_);
    if ((newline == std::string::npos ? buffer_.size() : newline) >
        max_bytes) {
      if (too_long != nullptr) *too_long = true;
      break;
    }
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    if (fd_ < 0) break;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // includes EAGAIN from SO_RCVTIMEO
    }
    if (n == 0) break;  // EOF
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  // EOF, error or over-cap: a fragment without its '\n' is a truncated
  // line, not a request, so it is dropped rather than returned.
  buffer_.clear();
  scanned_ = 0;
  return std::nullopt;
}

std::optional<std::string> Socket::recv_exact(std::size_t n) {
  while (buffer_.size() < n) {
    if (fd_ < 0) return std::nullopt;
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;  // includes EAGAIN from SO_RCVTIMEO
    }
    if (got == 0) return std::nullopt;  // EOF mid-payload
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
  std::string payload = buffer_.substr(0, n);
  buffer_.erase(0, n);
  scanned_ = 0;
  return payload;
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::~ListenSocket() { close(); }

void ListenSocket::listen(std::uint16_t port) {
  BFDN_REQUIRE(fd_ < 0, "ListenSocket: already listening");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  BFDN_REQUIRE(fd_ >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close();
    BFDN_REQUIRE(false, str_format("bind(127.0.0.1:%u) failed: %s", port,
                                   std::strerror(err)));
  }
  socklen_t len = sizeof(addr);
  BFDN_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
                 0,
             "getsockname failed");
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, 64) != 0) {
    const int err = errno;
    close();
    BFDN_REQUIRE(false,
                 str_format("listen failed: %s", std::strerror(err)));
  }
}

std::optional<Socket> ListenSocket::accept(std::int32_t timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return std::nullopt;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return std::nullopt;
  set_nodelay(client);
  return Socket(client);
}

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_local(std::uint16_t port, std::int32_t recv_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BFDN_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    BFDN_REQUIRE(false, str_format("connect(127.0.0.1:%u) failed: %s",
                                   port, std::strerror(err)));
  }
  set_nodelay(fd);
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return Socket(fd);
}

}  // namespace bfdn
