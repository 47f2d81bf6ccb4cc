#include "service/line_server.h"

#include <utility>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn {

LineServer::LineServer(Handler handler) : handler_(std::move(handler)) {}

LineServer::~LineServer() { drain(); }

void LineServer::start(std::uint16_t port) {
  BFDN_REQUIRE(!accept_thread_.joinable(), "server already started");
  listener_.listen(port);
  started_at_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void LineServer::accept_loop() {
  while (!draining_) {
    auto socket = listener_.accept(/*timeout_ms=*/50);
    if (!socket.has_value()) continue;
    MutexLock lock(connections_mutex_);
    reap_finished_locked();
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(*socket);
    Connection* raw = connection.get();
    connection->thread =
        std::thread([this, raw] { serve_connection(raw); });
    connections_.push_back(std::move(connection));
  }
}

void LineServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void LineServer::serve_connection(Connection* connection) {
  Socket& socket = connection->socket;
  for (;;) {
    bool too_long = false;
    const auto line = socket.recv_line(kMaxRequestLineBytes, &too_long);
    if (too_long) {
      // The rest of the line cannot be framed, so the connection ends
      // here: one error, then EOF for the client.
      ++requests_total_;
      ++protocol_errors_;
      respond(socket, error_response(
                          "", str_format("request line exceeds %zu bytes",
                                         kMaxRequestLineBytes)));
      socket.shutdown_write();
      break;
    }
    if (!line.has_value()) break;
    if (line->empty()) continue;
    ++requests_total_;
    ServiceRequest request;
    std::string error;
    std::string response;
    if (parse_request(*line, request, &error)) {
      response = handler_(request, *line, socket);
    } else {
      ++protocol_errors_;
      response = error_response("", error);
    }
    if (!respond(socket, std::move(response))) break;
  }
  connection->finished = true;
}

bool LineServer::respond(Socket& socket, std::string response) {
  ++responses_[static_cast<std::size_t>(response_status(response))];
  response += '\n';
  return socket.send_all(response);
}

void LineServer::drain(const std::function<void()>& before_release) {
  MutexLock drain_lock(drain_mutex_);
  if (drained_) return;
  draining_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (before_release) before_release();

  // Wake connection threads idling in recv_line and let them exit.
  {
    MutexLock lock(connections_mutex_);
    for (const auto& connection : connections_) {
      connection->socket.shutdown_read();
    }
    for (const auto& connection : connections_) {
      connection->thread.join();
    }
    connections_.clear();
  }
  drained_ = true;
}

std::string LineServer::stats_json(
    const std::function<void(JsonWriter&, double uptime_s)>& blocks) const {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  JsonWriter w;
  w.begin_object();
  w.kv("uptime_s", uptime_s, 3);
  w.key("requests").begin_object();
  w.kv("total", requests_total_.load());
  static constexpr const char* kStatusNames[] = {"ok", "retry", "error"};
  for (std::size_t i = 0; i < responses_.size(); ++i) {
    w.kv(kStatusNames[i], responses_[i].load());
  }
  w.kv("protocol_errors", protocol_errors_.load());
  w.end_object();
  blocks(w, uptime_s);
  w.end_object();
  return w.str();
}

}  // namespace bfdn
