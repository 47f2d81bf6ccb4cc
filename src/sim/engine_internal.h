// Engine internals shared between the execution drivers: the stepped
// round loop and the async event loop in engine.cpp, and the batched
// campaign kernel in batch_executor.cpp. Everything here used to live
// in engine.cpp's anonymous namespace; it is exposed (under
// engine_internal) so the batch executor can replay the fast-forward
// semantics bit-identically instead of approximating them. Not part of
// the public simulation API — include sim/engine.h instead.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"

namespace bfdn {

// Engine-private access to MoveSelector internals (friend of
// MoveSelector; see engine.h).
struct EngineAccess {
  static const std::vector<MoveSelector::Pending>& pending(
      const MoveSelector& sel) {
    return sel.pending_;
  }
  static const std::vector<std::uint64_t>& reanchors(
      const MoveSelector& sel) {
    return sel.reanchor_counts_;
  }
  static const std::vector<std::uint64_t>& reanchor_switches(
      const MoveSelector& sel) {
    return sel.reanchor_switch_counts_;
  }
  static const std::vector<std::int32_t>& reanchor_depths(
      const MoveSelector& sel) {
    return sel.reanchor_depths_;
  }
  static const std::vector<std::pair<NodeId, NodeId>>& reservations(
      const MoveSelector& sel) {
    return sel.reserved_this_round_;
  }
};

namespace engine_internal {

/// Whether a synchronous run takes the fast-forward loop. It needs
/// committed-segment hints from the algorithm and is incompatible with
/// anything that must see (or perturb) every round: per-round hooks and
/// adversaries force the stepped loop. run_exploration dispatches on
/// it, and BatchExecutor interleaves exactly the members it admits.
inline bool sync_fast_forward_eligible(const Algorithm& algorithm,
                                       const RunConfig& config) {
  return config.fast_forward && config.schedule == nullptr &&
         config.reactive == nullptr && config.trace == nullptr &&
         config.observer == nullptr && !config.check_invariants &&
         algorithm.transit_capability() ==
             TransitCapability::kCommittedSegments;
}

/// Claim 4: all open nodes lie in the union of anchor subtrees.
void check_open_node_coverage(const Tree& tree,
                              const ExplorationState& state,
                              const std::vector<NodeId>& anchors);

/// Shared result/accounting setup for every engine mode.
void init_depth_accounting(const Tree& tree, RunResult& result,
                           std::vector<std::int64_t>& unexplored_at_depth);

/// Flushes the selector's per-depth reanchor counters into the result
/// histograms (identical in every engine mode).
void flush_reanchor_counts(const MoveSelector& selector, RunResult& result);

/// The MOVE step for one robot's selected move, identical in every
/// engine mode: position update, first-traversal flags, dangling commit
/// with depth-completion accounting, per-robot move counter. Returns
/// true iff the robot actually moved (i.e. not stay/none; the caller
/// does its own idle accounting). `commit_round` is the round recorded
/// in depth_completed_round when this move commits the last unexplored
/// node of a depth.
bool apply_pending_move(const Tree& tree, ExplorationState& state,
                        std::int32_t robot, const MoveSelector::Pending& p,
                        std::vector<std::int64_t>& unexplored_at_depth,
                        RunResult& result, std::int64_t commit_round);

/// A whole committed walk (TransitPlan::kWalk) in one call: validates
/// it, records its traversals and moves the robot to plan.target. A
/// climb must end at the ancestor exactly plan.steps levels up; its
/// upward first-traversal flags are set through
/// ExplorationState::record_climb. A descent must end at an explored
/// node exactly plan.steps levels down; the explored set is
/// ancestor-closed, so every step is an explored down-move, and it
/// sets no flag (every explored non-root node's down-edge was
/// traversed when it was discovered). Near-O(1) amortized; used by the
/// fast-forward engine, which executes walks eagerly.
void apply_walk(const Tree& tree, ExplorationState& state,
                std::int32_t robot, const TransitPlan& plan,
                RunResult& result);

/// The nodes a committed walk from `from` visits, in order (excluding
/// `from`), written into `out`. O(plan.steps); for the one case that
/// steps a walk one node at a time: the round limit cutting a walk
/// short in either fast-forward engine (sync or async).
void walk_path(const Tree& tree, NodeId from, const TransitPlan& plan,
               std::vector<NodeId>& out);

/// One step of a materialized committed walk: validates the step,
/// records the traversal and advances the robot.
void apply_walk_step(const Tree& tree, ExplorationState& state,
                     std::int32_t robot, NodeId next, RunResult& result);

/// Resumable fast-forward execution context: run_fast_forward's event
/// loop cut at its event boundaries. One advance() call processes one
/// event round (the algorithm's real selection logic for the woken
/// robots, their moves, and the eager execution of any committed walks
/// they plan), including the analytic gap accounting that precedes the
/// event. The run's observable behavior is a pure function of
/// (tree, algorithm, k, max_rounds) — each context owns all of its
/// mutable state — so any interleaving of advance() calls across
/// independent contexts produces exactly the results of running each
/// context to completion on its own. BatchExecutor relies on this to
/// interleave R runs over one shared tree.
class FastForwardRun {
 public:
  FastForwardRun(const Tree& tree, Algorithm& algorithm, std::int32_t k,
                 std::int64_t max_rounds);

  /// Round of the next pending selection event; max_rounds + 1 when
  /// every robot is parked or capped (the next advance() terminates).
  /// O(1): cached at the end of every advance().
  std::int64_t next_event_round() const { return next_event_round_; }

  bool done() const { return done_; }

  /// Processes one event round. Returns false once the run has ended
  /// (round limit, algorithm finished, or terminal all-stay).
  bool advance();

  /// Final accounting (round-limit flag, activation total, completion
  /// flags, state hash) and result hand-over. Call once, after done().
  RunResult finish();

 private:
  const Tree& tree_;
  Algorithm& algorithm_;
  const std::int32_t k_;
  const std::int64_t max_rounds_;
  ExplorationState state_;
  RunResult result_;
  std::vector<std::int64_t> unexplored_at_depth_;
  const std::vector<char> movable_;
  ExplorationView view_;
  MoveSelector selector_;
  // wake_[i]: next round in which robot i runs selection; parked robots
  // (kStayForever, or walks capped by the round limit) get the sentinel
  // max_rounds + 1 and never wake. All robots start awake at round 1.
  std::vector<std::int64_t> wake_;
  // Robots parked by kStayForever (they idle in every remaining round;
  // a capped walker moves in every remaining round instead).
  std::int64_t num_parked_ = 0;
  std::vector<std::int32_t> woken_;
  std::int64_t next_event_round_ = 1;
  TransitPlan plan_;
  // Nodes of a walk the round limit cuts short (reused across events).
  std::vector<NodeId> capped_walk_;
  bool done_ = false;
  bool finished_ = false;

  /// The earliest wake over all robots (max_rounds + 1 if none wakes).
  std::int64_t earliest_wake() const;
};

}  // namespace engine_internal
}  // namespace bfdn
