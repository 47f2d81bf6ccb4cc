// A measured run of one workload against the real daemons: set-up
// (spawn, fill, restart, warm-up) repeated a few times, one measured
// phase with tracing off, then the correctness cross-checks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan.h"
#include "procs.h"
#include "report.h"

namespace bfdn::bench {

struct RunOptions {
  std::string bin_dir;   // holds bfdn_serve and bfdn_route
  std::string work_dir;  // holds logs, store directories and traces
  std::uint64_t seed = 1;
  double seconds = 10;
  double scale = 1;
  std::int32_t setup_repeats = 7;
};

struct RunOutcome {
  MetricSet metrics;
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void fail(const std::string& why);
};

/// Spawns the workload's fleet, fills its vocabulary (recording each
/// entry's result bytes in *fill), restarts the shards when the
/// topology asks for boot recovery, and sends the warm-up. Problems go
/// to outcome->fail.
std::unique_ptr<Fleet> set_up(const Plan& plan, const RunOptions& options,
                              const std::string& dir,
                              std::vector<std::string>* fill,
                              RunOutcome* outcome);

/// The bytes a fresh in-process execution of `run` produces
/// (TreeRecipe::build + execute_run), the reference every served result
/// is compared with.
std::string recompute(const ServiceRequest& run);

/// Measured run with tracing off; metrics are end_to_end_metrics().
RunOutcome run_live(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace bfdn::bench
