// Thin POSIX TCP helpers for the local serving subsystem
// (src/service). Loopback only: the protocol carries no authentication,
// so the listener binds 127.0.0.1 exclusively.
//
// Blocking I/O with a line-oriented receive buffer — the service
// protocol is one JSON document per '\n'-terminated line, so recv_line
// is the only framing either side needs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace bfdn {

/// Connected TCP socket (move-only RAII over the fd).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes the whole buffer (retrying short writes). Returns false on
  /// a connection error (EPIPE etc.; SIGPIPE is suppressed).
  bool send_all(const std::string& data);

  /// Reads up to and including the next '\n'; returns the line without
  /// its terminator. std::nullopt on EOF / connection error; a final
  /// unterminated fragment before EOF is dropped, never returned.
  /// Linear in the line length: each received byte is scanned once.
  ///
  /// A line longer than `max_bytes` (terminator excluded) is not
  /// returned either: reading stops once the cap is passed, *too_long
  /// is set and std::nullopt returned, so an unterminated stream costs
  /// at most `max_bytes` plus one receive chunk of memory.
  std::optional<std::string> recv_line(
      std::size_t max_bytes = std::string::npos, bool* too_long = nullptr);

  /// Reads exactly `n` raw bytes (consuming any bytes already buffered
  /// past the last returned line first — the segment-shipping protocol
  /// sends a JSON header line followed by a binary payload on the same
  /// connection). std::nullopt on EOF / connection error before `n`
  /// bytes arrived.
  std::optional<std::string> recv_exact(std::size_t n);

  /// Half-closes the read side, waking a peer blocked in recv_line.
  void shutdown_read();

  /// Half-closes the write side: the peer reads EOF after the bytes
  /// already sent.
  void shutdown_write();

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last returned line
  // Prefix of buffer_ already searched for '\n' by recv_line.
  std::size_t scanned_ = 0;
};

/// Listening socket bound to 127.0.0.1. port 0 picks an ephemeral port;
/// port() reports the actual one.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket();

  ListenSocket(ListenSocket&&) = delete;
  ListenSocket& operator=(ListenSocket&&) = delete;

  /// Binds and listens; throws CheckError on failure (e.g. port in use).
  void listen(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Waits up to timeout_ms for a connection. Returns a connected
  /// socket, or std::nullopt on timeout or once close()d.
  std::optional<Socket> accept(std::int32_t timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:port. Throws CheckError when nothing listens
/// there. recv_timeout_ms > 0 arms SO_RCVTIMEO so a dead server cannot
/// hang the client forever.
Socket connect_local(std::uint16_t port, std::int32_t recv_timeout_ms = 0);

}  // namespace bfdn
