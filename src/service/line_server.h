// The connection core of every daemon that speaks the line protocol
// (protocol.h): the shard (ServiceServer) and the router (RouterServer)
// are request handlers on top of one LineServer.
//
// The core owns the loopback listener, one accept thread, one thread
// per connection (finished ones are reaped on the next accept), the
// framing of request lines under kMaxRequestLineBytes, the
// parse_request preamble (a parse error is answered with
// error_response and counted as a protocol error), the writing of each
// response, the request counters (every response is counted once, by
// the status its envelope carries) and the drain.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "support/json.h"
#include "support/socket.h"
#include "support/thread_annotations.h"

namespace bfdn {

class LineServer {
 public:
  /// Answers one parsed request with one response line (no '\n').
  /// `line` is the raw request line (the router forwards it verbatim);
  /// `socket` is the client connection, for requests whose payload
  /// follows the line (segment_fill).
  using Handler = std::function<std::string(
      const ServiceRequest& request, const std::string& line,
      Socket& socket)>;

  explicit LineServer(Handler handler);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens and starts accepting. Throws CheckError when the
  /// port is taken.
  void start(std::uint16_t port);
  std::uint16_t port() const { return listener_.port(); }

  /// Graceful drain: stop accepting, run `before_release` (the server's
  /// own drain step; in-flight requests may still be answering), then
  /// wake and join every connection thread. Idempotent: later calls,
  /// and their hooks, are no-ops.
  void drain(const std::function<void()>& before_release = {})
      BFDN_EXCLUDES(drain_mutex_, connections_mutex_);

  /// The stats document: `uptime_s` and the `requests` block, then the
  /// server's own blocks, written by `blocks` (given the uptime).
  std::string stats_json(
      const std::function<void(JsonWriter&, double uptime_s)>& blocks) const;

  std::int64_t protocol_errors() const { return protocol_errors_; }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop() BFDN_EXCLUDES(connections_mutex_);
  void serve_connection(Connection* connection);
  /// Counts the response by its envelope status and writes it.
  bool respond(Socket& socket, std::string response);
  void reap_finished_locked() BFDN_REQUIRES(connections_mutex_);

  Handler handler_;
  ListenSocket listener_;

  std::thread accept_thread_;
  Mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      BFDN_GUARDED_BY(connections_mutex_);

  std::atomic<bool> draining_{false};
  // drain() is serialized by drain_mutex_; the flag never needs to be
  // read outside it, so it is a plain guarded bool rather than an
  // atomic. Acquisition order is drain_mutex_ -> connections_mutex_
  // (the lock-order analyzer tracks this edge).
  Mutex drain_mutex_;
  bool drained_ BFDN_GUARDED_BY(drain_mutex_) = false;

  std::chrono::steady_clock::time_point started_at_;
  std::atomic<std::int64_t> requests_total_{0};
  // Indexed by ResponseStatus.
  std::array<std::atomic<std::int64_t>, 3> responses_{};
  std::atomic<std::int64_t> protocol_errors_{0};
};

}  // namespace bfdn
