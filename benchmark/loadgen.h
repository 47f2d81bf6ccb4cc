// The benchmark's load generator: one process, a few client threads,
// each holding one raw loopback connection, so response bytes arrive
// exactly as the fleet wrote them and can be compared byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace bfdn::bench {

/// One result object spliced into a response, with its cached flag.
struct ResultView {
  bool cached = false;
  std::string_view bytes;
};

/// The result objects of an ok run or campaign response, in order.
/// Returns false when the line is not an ok response.
bool response_results(std::string_view line, std::vector<ResultView>* out);
/// The "rounds" field of one result object (0 when absent).
std::int64_t result_rounds(std::string_view result);

/// The checker's judgement of one response.
struct Verdict {
  bool ok = false;
  std::int64_t rounds = 0;
  std::int64_t results = 0;  // result objects in the response
  std::int64_t cached = 0;   // of which served from a cache or store
};

using LineFn = std::function<std::string(std::int64_t index)>;
using CheckFn =
    std::function<Verdict(std::int64_t index, const std::string& response)>;

/// One successful request.
struct Sample {
  /// Completion, seconds after the phase's origin.
  double done_s = 0;
  /// Closed loop: from the send; open loop: from the due time, so a
  /// stall also charges the requests queued behind it.
  double latency_ms = 0;
  std::int64_t rounds = 0;
};

struct PhaseResult {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t cached = 0;
  std::int64_t results = 0;  // result objects in ok responses
  std::int64_t within_slo = 0;
  /// First send to last response.
  double wall_s = 0;
  std::vector<Sample> samples;
  /// Open loop: how late each request was sent, in schedule order.
  std::vector<double> late_ms;
  std::string first_error;
};

/// Closed loop: each of `connections` clients takes the next `chunk`
/// unsent indices and sends them one by one, each as soon as the
/// previous response arrived, until `seconds` passed or `limit` indices
/// were sent. Latency counts from the send.
PhaseResult run_closed(std::uint16_t port, std::int32_t connections,
                       std::int32_t chunk, double seconds,
                       std::int64_t limit, double slo_ms, const LineFn& line,
                       const CheckFn& check);

/// Open loop: index i is due `due[i]` seconds after the start; the next
/// free client sends it then, or as soon as one frees up.
PhaseResult run_open(std::uint16_t port, std::int32_t connections,
                     const std::vector<double>& due, double slo_ms,
                     const LineFn& line, const CheckFn& check);

/// Mean lateness of the last quarter of an open-loop schedule minus
/// that of the first quarter: a growing backlog means the arrival rate
/// is past what the fleet sustains.
double backlog_growth_ms(const std::vector<double>& late_ms);

}  // namespace bfdn::bench
