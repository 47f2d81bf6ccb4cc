// Serializable instance specifications for the verification harness.
//
// A spec names everything needed to re-run a simulation bit-exactly:
// which algorithm (and its options), how many robots, and — for the
// break-down setting of Section 4.2 — which adversarial schedule. Specs
// are plain data so they can be written into trace files (trace.h) and
// fuzz-artifact recipes and reconstructed offline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "adversarial/async_scheduler.h"
#include "adversarial/schedules.h"
#include "core/bfdn.h"
#include "graph/tree.h"
#include "sim/engine.h"

namespace bfdn {

/// Which simulation an instance runs. The first four run through the
/// synchronous engine (run_exploration); kWriteRead and kGraphBfdn have
/// their own drivers and are traced through per-round robot positions.
enum class AlgoKind : std::uint8_t {
  kBfdn = 0,
  kBfdnEll = 1,
  kBfsLevels = 2,
  kCte = 3,
  kWriteRead = 4,
  kGraphBfdn = 5,
};

/// Adversarial break-down schedule family (src/adversarial). kNone is
/// the plain complete-communication setting.
enum class ScheduleKind : std::uint8_t {
  kNone = 0,
  kFull = 1,
  kRoundRobin = 2,
  kRandom = 3,
  kBurst = 4,
  kRollingOutage = 5,
};

struct ScheduleSpec {
  ScheduleKind kind = ScheduleKind::kNone;
  std::int64_t horizon = 0;
  double p = 0.5;           // kRandom: per-(t, i) allow probability
  std::uint64_t seed = 1;   // kRandom
  std::int64_t period = 1;  // kBurst: burst length; kRollingOutage: shift

  /// Instantiates the schedule (nullptr for kNone). Deterministic: two
  /// instances from the same spec produce identical allow decisions.
  std::unique_ptr<FiniteSchedule> make(std::int32_t k) const;

  std::string label() const;
};

/// Per-robot-clock scheduler family (src/adversarial/async_scheduler).
/// kNone is the synchronous model; mutually exclusive with a break-down
/// ScheduleSpec — the two adversaries control different things (speeds
/// vs. permitted moves) and the engine rejects the combination.
enum class AsyncKind : std::uint8_t {
  kNone = 0,
  kRoundRobin = 1,
  kFixedRate = 2,
  kLaggard = 3,
  kRandom = 4,
};

struct AsyncSpec {
  AsyncKind kind = AsyncKind::kNone;
  std::uint64_t seed = 1;      // kRandom
  std::int64_t max_delay = 3;  // kRandom: gap in [1, max_delay + 1]
  std::int64_t period = 2;     // kFixedRate: speed ratio; kLaggard: window
  std::int32_t num_slow = 1;   // kFixedRate / kLaggard

  /// Instantiates the scheduler (nullptr for kNone). Deterministic:
  /// activation times are pure functions of the spec.
  std::unique_ptr<AsyncScheduler> make(std::int32_t k) const;

  /// For slow schedulers the default 3Dn round limit no longer covers
  /// a full exploration; this is the factor by which callers should
  /// scale it (worst-case activation gap of the slowest robot).
  std::int64_t slowdown() const;

  std::string label() const;
};

struct AlgoSpec {
  AlgoKind kind = AlgoKind::kBfdn;
  std::int32_t k = 1;
  /// kBfdn: full option block (policy, seed, depth cap, shortcut, and
  /// the verification knobs reference_loads / fault_load_leak).
  BfdnOptions options;
  /// kBfdnEll: recursion depth.
  std::int32_t ell = 1;

  std::string label() const;

  /// True for kinds driven by run_exploration (ExplorationState hashes);
  /// false for the position-traced drivers (kWriteRead, kGraphBfdn).
  bool engine_based() const {
    return kind != AlgoKind::kWriteRead && kind != AlgoKind::kGraphBfdn;
  }
};

// Append-style writers of the label()s above (label() is one of these
// into a fresh string), for callers that render into a reused buffer.
void append_label(std::string& out, const ScheduleSpec& spec);
void append_label(std::string& out, const AsyncSpec& spec);
void append_label(std::string& out, const AlgoSpec& spec);

/// Instantiates an engine-based algorithm (requires engine_based()).
/// CTE needs the ground-truth tree at construction, hence the argument.
std::unique_ptr<Algorithm> make_algorithm(const AlgoSpec& spec,
                                          const Tree& tree);

}  // namespace bfdn
