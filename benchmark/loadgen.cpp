#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#include "support/check.h"
#include "support/socket.h"

namespace bfdn::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int32_t kRecvTimeoutMs = 60000;
constexpr std::int32_t kMaxAttempts = 200;

/// End (exclusive) of the JSON object starting at `start`, or npos.
std::size_t object_end(std::string_view text, std::size_t start) {
  if (start >= text.size() || text[start] != '{') {
    return std::string_view::npos;
  }
  std::int32_t depth = 0;
  bool in_string = false;
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

std::int64_t int_field(std::string_view text, std::string_view name,
                       std::int64_t fallback) {
  const std::size_t at = text.find(name);
  if (at == std::string_view::npos) return fallback;
  return std::strtoll(text.data() + at + name.size(), nullptr, 10);
}

double since_ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Per-client tallies, merged after the clients joined.
struct Tally {
  Clock::time_point origin;  // Sample::done_s counts from here
  PhaseResult result;
  std::vector<std::pair<std::int64_t, double>> late;  // (index, ms)
};

/// Sends `line` and returns the final non-retry response, or nullopt
/// on a transport failure or exhausted retries (with *error set).
std::optional<std::string> exchange(Socket& socket, const std::string& line,
                                    std::int64_t* retries,
                                    std::string* error) {
  for (std::int32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (!socket.send_all(line + "\n")) {
      *error = "send failed";
      return std::nullopt;
    }
    std::optional<std::string> response = socket.recv_line();
    if (!response.has_value()) {
      *error = "connection closed before a response";
      return std::nullopt;
    }
    if (response->find("\"status\":\"retry\"") == std::string::npos) {
      return response;
    }
    ++*retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        int_field(*response, "\"retry_after_ms\":", 20)));
  }
  *error = "backpressure retries exhausted";
  return std::nullopt;
}

/// Runs one request and books its outcome. Returns false when the
/// connection is unusable afterwards.
bool serve_one(Socket& socket, std::int64_t index, const std::string& line,
               Clock::time_point latency_from, double slo_ms,
               const CheckFn& check, Tally& tally) {
  PhaseResult& r = tally.result;
  ++r.attempted;
  std::string error;
  const std::optional<std::string> response =
      exchange(socket, line, &r.retries, &error);
  const auto done = Clock::now();
  Verdict verdict;
  if (response.has_value()) {
    verdict = check(index, *response);
    if (!verdict.ok) {
      error = "wrong or non-ok response: " + response->substr(0, 200);
    }
  }
  if (!verdict.ok) {
    ++r.failed;
    if (r.first_error.empty()) r.first_error = error;
    return response.has_value();
  }
  ++r.ok;
  r.results += verdict.results;
  r.cached += verdict.cached;
  const double latency = since_ms(latency_from, done);
  r.samples.push_back(
      {since_ms(tally.origin, done) / 1e3, latency, verdict.rounds});
  if (latency <= slo_ms) ++r.within_slo;
  return true;
}

PhaseResult merge(std::vector<Tally>& tallies, Clock::time_point start,
                  Clock::time_point end) {
  PhaseResult out;
  std::vector<std::pair<std::int64_t, double>> late;
  for (Tally& tally : tallies) {
    const PhaseResult& r = tally.result;
    out.attempted += r.attempted;
    out.ok += r.ok;
    out.failed += r.failed;
    out.retries += r.retries;
    out.results += r.results;
    out.cached += r.cached;
    out.within_slo += r.within_slo;
    out.samples.insert(out.samples.end(), r.samples.begin(),
                       r.samples.end());
    late.insert(late.end(), tally.late.begin(), tally.late.end());
    if (out.first_error.empty()) out.first_error = r.first_error;
  }
  std::sort(late.begin(), late.end());
  for (const auto& [index, ms] : late) out.late_ms.push_back(ms);
  out.wall_s = std::chrono::duration<double>(end - start).count();
  return out;
}

/// Runs `body(socket, tally)` on `connections` client threads, each with
/// its own connection, and merges their tallies.
template <typename Body>
PhaseResult run_clients(std::uint16_t port, std::int32_t connections,
                        Clock::time_point origin, Body body) {
  std::vector<Tally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::thread> clients;
  const auto start = Clock::now();
  for (std::int32_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      tally.origin = origin;
      try {
        Socket socket = connect_local(port, kRecvTimeoutMs);
        body(socket, tally);
      } catch (const std::exception& e) {
        ++tally.result.failed;
        if (tally.result.first_error.empty()) {
          tally.result.first_error = e.what();
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  return merge(tallies, start, Clock::now());
}

}  // namespace

bool response_results(std::string_view line, std::vector<ResultView>* out) {
  out->clear();
  const std::size_t status = line.find("\"status\":\"ok\"");
  if (status == std::string_view::npos) return false;
  std::size_t pos = status;
  for (;;) {
    const std::size_t cached = line.find("\"cached\":", pos);
    if (cached == std::string_view::npos) break;
    const std::size_t result = line.find("\"result\":", cached);
    if (result == std::string_view::npos) return false;
    const std::size_t begin = result + 9;
    const std::size_t end = object_end(line, begin);
    if (end == std::string_view::npos) return false;
    out->push_back({line.compare(cached + 9, 4, "true") == 0,
                    line.substr(begin, end - begin)});
    pos = end;
  }
  return !out->empty();
}

std::int64_t result_rounds(std::string_view result) {
  return int_field(result, "\"rounds\":", 0);
}

double backlog_growth_ms(const std::vector<double>& late_ms) {
  const std::size_t quarter = late_ms.size() / 4;
  if (quarter == 0) return 0;
  double first = 0;
  double last = 0;
  for (std::size_t i = 0; i < quarter; ++i) {
    first += late_ms[i];
    last += late_ms[late_ms.size() - 1 - i];
  }
  return (last - first) / static_cast<double>(quarter);
}

PhaseResult run_closed(std::uint16_t port, std::int32_t connections,
                       std::int32_t chunk, double seconds,
                       std::int64_t limit, double slo_ms, const LineFn& line,
                       const CheckFn& check) {
  std::atomic<std::int64_t> next{0};
  const auto origin = Clock::now();
  const auto deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  return run_clients(port, connections, origin,
                     [&](Socket& socket, Tally& tally) {
    for (;;) {
      const std::int64_t first = next.fetch_add(chunk);
      for (std::int64_t index = first; index < first + chunk; ++index) {
        if (Clock::now() >= deadline || index >= limit) return;
        const std::string text = line(index);
        if (!serve_one(socket, index, text, Clock::now(), slo_ms, check,
                       tally)) {
          return;
        }
      }
    }
  });
}

PhaseResult run_open(std::uint16_t port, std::int32_t connections,
                     const std::vector<double>& due, double slo_ms,
                     const LineFn& line, const CheckFn& check) {
  BFDN_REQUIRE(!due.empty(), "open loop needs an arrival schedule");
  std::atomic<std::int64_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  return run_clients(
      port, connections, start, [&](Socket& socket, Tally& tally) {
        for (;;) {
          const std::int64_t index = next.fetch_add(1);
          if (index >= static_cast<std::int64_t>(due.size())) return;
          const std::string text = line(index);
          const auto due_at =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              due[static_cast<std::size_t>(index)]));
          std::this_thread::sleep_until(due_at);
          tally.late.emplace_back(index, since_ms(due_at, Clock::now()));
          if (!serve_one(socket, index, text, due_at, slo_ms, check, tally)) {
            return;
          }
        }
      });
}

}  // namespace bfdn::bench
