// The traced run: per-layer metrics measured from outside the program.
//
// The workload's plan is replayed on one thread through the public call
// of each layer, in the order a shard makes them, with a span around
// every call (name, start, end, parent, request id). Spans stay in
// memory and are written once, at the end, as Chrome trace-event JSON.
// Layers that only exist between processes (socket, router hop) and the
// scheduler's queue wait are derived from live calls minus the replayed
// work they contain.
#pragma once

#include <string>

#include "live.h"
#include "plan.h"

namespace bfdn::bench {

/// Traced run; metrics are per_layer_metrics(). Writes
/// `<trace_dir>/<workload>.trace.json`.
RunOutcome run_traced(const WorkloadSpec& spec, const RunOptions& options,
                      const std::string& trace_dir);

}  // namespace bfdn::bench
