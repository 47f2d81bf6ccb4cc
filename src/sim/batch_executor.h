// Multi-run campaign executor: runs R explorations of one shared tree
// (seed sweeps, k sweeps, option sweeps) with the runs that provably
// repeat each other executed once.
//
// run() executes each distinct member through run_exploration, one
// after another in add order, so a member's result is the solo
// engine's by construction (pinned by OracleCheck::kBatchEquivalence
// and tests/batch_executor_test.cpp). Members with a break-down
// schedule, reactive adversary or async scheduler are rejected at
// add_member: the batch contract, and the oracle that pins it, cover
// the synchronous complete-communication model only.
//
// Coalescing: members whose inputs provably describe the same run
// (e.g. a BFDN seed sweep under any non-random reanchor policy — the
// algorithm seed is only ever consumed by ReanchorPolicy::kRandom) may
// be tagged with equal coalesce keys by the caller; the run executes
// once and the result is replicated. The promise is the caller's, but
// it is differential-tested: the batch-equivalence oracle compares
// every member, replicated or not, against its own solo run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace bfdn {

class BatchExecutor {
 public:
  /// The tree must outlive the executor; all members run on it.
  explicit BatchExecutor(const Tree& tree);
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Adds one member run and returns its index (results come back in
  /// add order). The config must describe a synchronous
  /// complete-communication run: schedule, reactive and async members
  /// are rejected (BFDN_REQUIRE) — per-run adversaries stay out of
  /// batches, use run_exploration.
  /// `coalesce_key`: members sharing a non-empty key are promised by
  /// the caller to be semantically identical runs; only the first
  /// executes and the others receive copies of its result. An empty
  /// key never coalesces.
  std::int32_t add_member(std::unique_ptr<Algorithm> algorithm,
                          const RunConfig& config,
                          std::string coalesce_key = {});

  std::size_t num_members() const;

  /// Executes every member and returns their results in add_member
  /// order, each bit-identical to run_exploration on the same inputs.
  /// Call at most once.
  std::vector<RunResult> run();

  struct Stats {
    std::int64_t members = 0;        // add_member calls
    std::int64_t distinct_runs = 0;  // actually executed
    std::int64_t coalesced = 0;      // members served by a twin's run
  };
  /// Populated by run().
  const Stats& stats() const { return stats_; }

 private:
  struct Member;

  const Tree& tree_;
  std::vector<Member> members_;
  Stats stats_;
  bool ran_ = false;
};

}  // namespace bfdn
