#include "live.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <thread>

#include "loadgen.h"
#include "support/check.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/thread_annotations.h"

namespace bfdn::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kNoDeadline = 1e9;
constexpr double kNoSlo = std::numeric_limits<double>::infinity();
constexpr std::int64_t kNoLimit = std::numeric_limits<std::int64_t>::max();
constexpr std::size_t kSampleFingerprints = 64;
constexpr std::size_t kSampleCampaigns = 8;
// CPU readings per measured phase; every window length divides it.
constexpr std::int32_t kMarks = 30;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Up to `count` entries spread evenly over `sorted`.
std::vector<std::int64_t> spread_sample(
    const std::vector<std::int64_t>& sorted, std::size_t count) {
  std::vector<std::int64_t> sample;
  if (sorted.empty()) return sample;
  const std::size_t stride = std::max<std::size_t>(1, sorted.size() / count);
  for (std::size_t i = 0; i < sorted.size() && sample.size() < count;
       i += stride) {
    sample.push_back(sorted[i]);
  }
  return sample;
}

/// Runs work(i) for every i in [0, n) on two threads.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& work) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  Mutex error_mutex;
  const auto body = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) work(i);
    } catch (...) {
      MutexLock lock(error_mutex);
      error = std::current_exception();
    }
  };
  std::thread helper(body);
  body();
  helper.join();
  if (error) std::rethrow_exception(error);
}

/// A served request and the bytes it must produce.
struct Expected {
  ServiceRequest run;
  std::string bytes;
};

/// The measured phase's rate and latency metrics, taken per window with
/// the median window reported, so the seconds a shared machine runs slow
/// do not move a whole run. Windows are as short as a real p99 allows:
/// at least 1000 samples each, and a whole number of CPU marks.
struct WindowMedians {
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double rounds_per_s = 0;
  double cpu_us_per_req = 0;
  std::int32_t windows = 1;
  std::size_t fewest = 0;  // samples in the emptiest window
};

WindowMedians window_medians(const std::vector<Sample>& samples,
                             const std::vector<double>& cpu_marks,
                             double seconds) {
  WindowMedians out;
  for (const std::int32_t w : {2, 3, 5, 6, 10, 15, 30}) {
    if (static_cast<std::int64_t>(samples.size()) >= 1000 * w) {
      out.windows = w;
    }
  }
  const double window_s = seconds / out.windows;
  const std::size_t marks_per_window =
      static_cast<std::size_t>(kMarks / out.windows);
  std::vector<std::vector<double>> latency(
      static_cast<std::size_t>(out.windows));
  std::vector<double> rounds(latency.size(), 0.0);
  for (const Sample& s : samples) {
    const auto w = static_cast<std::size_t>(std::clamp<std::int64_t>(
        static_cast<std::int64_t>(s.done_s / window_s), 0, out.windows - 1));
    latency[w].push_back(s.latency_ms);
    rounds[w] += static_cast<double>(s.rounds);
  }
  std::vector<double> rps, rounds_ps, p50, p99, cpu_us;
  out.fewest = samples.size();
  for (std::size_t w = 0; w < latency.size(); ++w) {
    const auto n = static_cast<double>(latency[w].size());
    out.fewest = std::min(out.fewest, latency[w].size());
    rps.push_back(n / window_s);
    rounds_ps.push_back(rounds[w] / window_s);
    p50.push_back(tail(latency[w], 0.5));
    p99.push_back(tail(latency[w], 0.99));
    const double cpu_s = cpu_marks[(w + 1) * marks_per_window] -
                         cpu_marks[w * marks_per_window];
    cpu_us.push_back(n > 0 ? cpu_s * 1e6 / n : 0);
  }
  const auto median = [](std::vector<double> values) {
    return quartiles(std::move(values)).median;
  };
  out.throughput_rps = median(rps);
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  out.rounds_per_s = median(rounds_ps);
  out.cpu_us_per_req = median(cpu_us);
  return out;
}

}  // namespace

void RunOutcome::fail(const std::string& why) {
  correct = false;
  ++failed;
  notes.push_back("FAIL " + why);
}

std::string recompute(const ServiceRequest& run) {
  const Tree tree = run.recipe.build();
  return execute_run(run, tree);
}

std::unique_ptr<Fleet> set_up(const Plan& plan, const RunOptions& options,
                              const std::string& dir,
                              std::vector<std::string>* fill,
                              RunOutcome* outcome) {
  const WorkloadSpec& spec = plan.spec();
  auto fleet = std::make_unique<Fleet>(spec.topology, options.bin_dir, dir);
  const std::vector<std::string>& lines = plan.vocabulary_lines();
  fill->assign(lines.size(), std::string());
  if (!lines.empty()) {
    const PhaseResult r = run_closed(
        fleet->entry_port(), spec.connections, 1, kNoDeadline,
        static_cast<std::int64_t>(lines.size()), kNoSlo,
        [&](std::int64_t i) { return lines[static_cast<std::size_t>(i)]; },
        [&](std::int64_t i, const std::string& response) -> Verdict {
          std::vector<ResultView> results;
          if (!response_results(response, &results) || results.size() != 1 ||
              results[0].cached) {
            return {};
          }
          (*fill)[static_cast<std::size_t>(i)] = std::string(results[0].bytes);
          return {true, 0, 1, 0};
        });
    if (r.failed > 0 || r.ok != static_cast<std::int64_t>(lines.size())) {
      outcome->fail("vocabulary fill: " + r.first_error);
    }
  }
  if (spec.topology.restart_after_fill) fleet->restart_shards();
  const std::vector<std::string> warmup = plan.warmup_lines();
  const PhaseResult w = run_closed(
      fleet->entry_port(), spec.connections, 1, kNoDeadline,
      static_cast<std::int64_t>(warmup.size()), kNoSlo,
      [&](std::int64_t i) { return warmup[static_cast<std::size_t>(i)]; },
      [](std::int64_t, const std::string& response) -> Verdict {
        std::vector<ResultView> results;
        return {response_results(response, &results), 0, 0, 0};
      });
  if (w.failed > 0) outcome->fail("warm-up: " + w.first_error);
  return fleet;
}

RunOutcome run_live(const WorkloadSpec& spec, const RunOptions& options) {
  RunOutcome out;
  const Plan plan(spec, options.seed, options.scale);
  const std::string dir = options.work_dir + "/" + spec.name;

  // Set-up, repeated from nothing each time; the last fleet stays up
  // for the measured phase. The vocabulary must come out byte-identical
  // every time.
  std::vector<double> setup_s;
  std::vector<std::string> fill;
  std::unique_ptr<Fleet> fleet;
  for (std::int32_t r = 0; r < options.setup_repeats; ++r) {
    if (fleet != nullptr && !fleet->stop()) {
      out.fail("a daemon did not exit cleanly after set-up");
    }
    fleet.reset();
    remove_tree(dir);
    std::vector<std::string> bytes;
    const auto start = Clock::now();
    fleet = set_up(plan, options, dir, &bytes, &out);
    setup_s.push_back(seconds_since(start));
    if (r == 0) {
      fill = std::move(bytes);
    } else if (bytes != fill) {
      out.fail("vocabulary bytes differ between set-ups");
    }
  }

  // Measured phase. Vocabulary answers are compared with the set-up's
  // bytes on every response; fresh answers are kept for the checks after.
  const std::size_t members =
      spec.campaigns ? expand_campaign(plan.fresh(0)).size() : 1;
  Mutex recorded_mutex;
  std::map<std::int64_t, std::vector<std::string>> recorded;
  const CheckFn check = [&](std::int64_t index,
                            const std::string& response) -> Verdict {
    thread_local std::vector<ResultView> results;
    if (!response_results(response, &results) || results.size() != members) {
      return {};
    }
    Verdict verdict{true, 0, static_cast<std::int64_t>(members), 0};
    for (const ResultView& result : results) {
      if ((spec.expect == CacheExpect::kAllHits && !result.cached) ||
          (spec.expect == CacheExpect::kAllMisses && result.cached)) {
        return {};
      }
      verdict.rounds += result_rounds(result.bytes);
      verdict.cached += result.cached ? 1 : 0;
    }
    const Item item = plan.item(index);
    if (item.vocab >= 0) {
      if (results[0].bytes != fill[static_cast<std::size_t>(item.vocab)]) {
        return {};
      }
      return verdict;
    }
    std::vector<std::string> bytes;
    for (const ResultView& result : results) bytes.emplace_back(result.bytes);
    MutexLock lock(recorded_mutex);
    recorded.emplace(index, std::move(bytes));
    return verdict;
  };
  const LineFn line = [&](std::int64_t index) {
    return plan.line(plan.item(index));
  };
  // The daemons' CPU time is read kMarks times while the load runs, so
  // that CPU per request can be taken per window below.
  const bool open_loop = spec.rate_rps > 0;
  const double mark_s = options.seconds / kMarks;
  std::vector<double> cpu_marks(kMarks + 1, 0.0);
  PhaseResult phase;
  {
    const auto origin = Clock::now();
    const std::jthread sampler([&] {
      for (std::size_t m = 0; m < cpu_marks.size(); ++m) {
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             mark_s * static_cast<double>(m))));
        cpu_marks[m] = fleet->cpu_seconds();
      }
    });
    phase = open_loop
                ? run_open(fleet->entry_port(), spec.connections,
                           plan.due_times(options.seconds), spec.slo_ms, line,
                           check)
                : run_closed(fleet->entry_port(), spec.connections,
                             spec.chunk, options.seconds, kNoLimit,
                             spec.slo_ms, line, check);
  }
  const double rss_mb = fleet->peak_rss_mb();
  out.attempted += phase.attempted;
  if (phase.failed > 0) {
    out.correct = false;
    out.failed += phase.failed;
    out.notes.push_back(str_format("FAIL %lld measured requests; first: %s",
                                   static_cast<long long>(phase.failed),
                                   phase.first_error.c_str()));
  }

  // Off the clock. A deterministic sample of fresh fingerprints (every
  // member of the sampled campaigns) is asked again and must now be a
  // hit with the miss's bytes; then the sample and a spread of the
  // vocabulary are recomputed in-process and compared byte for byte.
  std::vector<std::int64_t> fresh_indices;
  for (const auto& [index, bytes] : recorded) fresh_indices.push_back(index);
  if (!spec.topology.store) {
    // Only what the cache still holds comes back as a hit: sample among
    // the newest requests, a quarter of its capacity.
    const std::size_t resident =
        static_cast<std::size_t>(spec.topology.cache) / (4 * members);
    if (fresh_indices.size() > resident) {
      fresh_indices.erase(fresh_indices.begin(),
                          fresh_indices.end() -
                              static_cast<std::ptrdiff_t>(resident));
    }
  }
  std::vector<Expected> expected;
  for (const std::int64_t index : spread_sample(
           fresh_indices,
           spec.campaigns ? kSampleCampaigns : kSampleFingerprints)) {
    const ServiceRequest request = plan.fresh(index);
    const std::vector<std::string>& bytes = recorded.at(index);
    if (spec.campaigns) {
      const std::vector<ServiceRequest> runs = expand_campaign(request);
      for (std::size_t m = 0; m < runs.size(); ++m) {
        expected.push_back({runs[m], bytes[m]});
      }
    } else {
      expected.push_back({request, bytes[0]});
    }
  }
  const std::size_t fresh_expected = expected.size();
  std::vector<std::int64_t> vocab_indices;
  for (std::size_t v = 0; v < fill.size(); ++v) {
    vocab_indices.push_back(static_cast<std::int64_t>(v));
  }
  for (const std::int64_t v :
       spread_sample(vocab_indices, kSampleFingerprints)) {
    expected.push_back({plan.vocabulary()[static_cast<std::size_t>(v)],
                        fill[static_cast<std::size_t>(v)]});
  }

  const PhaseResult again = run_closed(
      fleet->entry_port(), spec.connections, 1, kNoDeadline,
      static_cast<std::int64_t>(fresh_expected), kNoSlo,
      [&](std::int64_t i) {
        ServiceRequest run = expected[static_cast<std::size_t>(i)].run;
        run.id = str_format("again%lld", static_cast<long long>(i));
        return serialize_request(run);
      },
      [&](std::int64_t i, const std::string& response) -> Verdict {
        std::vector<ResultView> results;
        const bool same =
            response_results(response, &results) && results.size() == 1 &&
            results[0].cached &&
            results[0].bytes == expected[static_cast<std::size_t>(i)].bytes;
        return {same, 0, 1, 1};
      });
  out.attempted += again.attempted;
  if (again.failed > 0) {
    out.correct = false;
    out.failed += again.failed;
    out.notes.push_back("FAIL hit-after-miss: " + again.first_error);
  }
  if (!fleet->stop()) out.fail("a daemon did not exit cleanly");
  fleet.reset();
  remove_tree(dir);

  std::atomic<std::int64_t> mismatches{0};
  parallel_for(expected.size(), [&](std::size_t i) {
    if (recompute(expected[i].run) != expected[i].bytes) ++mismatches;
  });
  out.attempted += static_cast<std::int64_t>(expected.size());
  if (mismatches > 0) {
    out.correct = false;
    out.failed += mismatches;
    out.notes.push_back(str_format(
        "FAIL %lld of %zu served results differ from an in-process rerun",
        static_cast<long long>(mismatches.load()), expected.size()));
  }

  const WindowMedians windowed =
      window_medians(phase.samples, cpu_marks, options.seconds);
  const auto attempted =
      static_cast<double>(std::max<std::int64_t>(1, phase.attempted));
  out.metrics = {
      {"throughput_rps", "req/s", windowed.throughput_rps},
      {"latency_p50_ms", "ms", windowed.p50_ms},
      {"latency_p99_ms", "ms", windowed.p99_ms},
      {"rounds_per_s", "rounds/s", windowed.rounds_per_s},
      {"slo_attainment", "fraction",
       static_cast<double>(phase.within_slo) / attempted},
      {"cpu_us_per_req", "us", windowed.cpu_us_per_req},
      {"ok_ratio", "fraction", static_cast<double>(phase.ok) / attempted},
      {"setup_s", "s", quartiles(setup_s).median},
      {"peak_rss_mb", "MiB", rss_mb},
  };

  std::string setups;
  for (const double s : setup_s) setups += str_format(" %.3f", s);
  out.notes.push_back(str_format(
      "%s loop, %d connections%s: %lld requests, %zu latency "
      "samples, at least %zu in each of %d windows (p99 taken at q=%.4f), "
      "%lld retries, hit ratio %.4f, wall %.3f s",
      open_loop ? "open" : "closed", spec.connections,
      open_loop ? str_format(" at %.0f req/s", spec.rate_rps).c_str() : "",
      static_cast<long long>(phase.attempted),
      phase.samples.size(), windowed.fewest, windowed.windows,
      supported_quantile(windowed.fewest, 0.99),
      static_cast<long long>(phase.retries),
      phase.results > 0 ? static_cast<double>(phase.cached) /
                              static_cast<double>(phase.results)
                        : 0.0,
      phase.wall_s));
  out.notes.push_back("set-up seconds:" + setups);
  if (open_loop) {
    out.notes.push_back(str_format(
        "generator lateness p99 %.3f ms, backlog growth %.3f ms "
        "(SLO %.0f ms)",
        tail(phase.late_ms, 0.99), backlog_growth_ms(phase.late_ms),
        spec.slo_ms));
  }
  out.notes.push_back(str_format(
      "cross-checks: %zu hit-after-miss, %zu in-process reruns",
      fresh_expected, expected.size()));
  return out;
}

}  // namespace bfdn::bench
