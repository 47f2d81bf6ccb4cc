#include "sim/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn {

// Engine-private access to MoveSelector internals (friend of
// MoveSelector; see engine.h).
struct EngineAccess {
  static std::vector<MoveSelector::Pending>& pending(MoveSelector& sel) {
    return sel.pending_;
  }
  static const std::vector<std::pair<NodeId, NodeId>>& reservations(
      const MoveSelector& sel) {
    return sel.reserved_this_round_;
  }

  /// Flushes the selector's per-depth reanchor counters into the result
  /// histograms (identical in every engine mode).
  static void flush_reanchor_counts(const MoveSelector& sel,
                                    RunResult& result) {
    const std::vector<std::uint64_t>& reanchors = sel.reanchor_counts_;
    const std::vector<std::uint64_t>& switches = sel.reanchor_switch_counts_;
    for (const std::int32_t depth : sel.reanchor_depths_) {
      const auto d = static_cast<std::size_t>(depth);
      if (reanchors[d] != 0) {
        result.reanchors_by_depth.add(depth, reanchors[d]);
        result.total_reanchors += static_cast<std::int64_t>(reanchors[d]);
      }
      if (switches[d] != 0) {
        result.reanchor_switches_by_depth.add(depth, switches[d]);
        result.total_reanchor_switches +=
            static_cast<std::int64_t>(switches[d]);
      }
    }
  }
};

namespace {

/// The end-of-run fields every engine loop derives from its final
/// state: completion, edge events, all-at-root and the state hash.
void finalize_result(const Tree& tree, const ExplorationState& state,
                     RunResult& result) {
  result.complete = state.num_explored_nodes() == tree.num_nodes();
  result.edge_events = state.edge_events();
  result.all_at_root = true;
  for (std::int32_t i = 0; i < state.num_robots(); ++i) {
    if (state.robot_pos(i) != tree.root()) {
      result.all_at_root = false;
      break;
    }
  }
  result.final_state_hash = state.state_hash();
}

}  // namespace

std::int64_t AsyncScheduler::nth_activation(std::int64_t now,
                                            std::int32_t robot,
                                            std::int64_t n) const {
  BFDN_REQUIRE(n >= 1, "nth_activation needs n >= 1");
  for (std::int64_t j = 0; j < n; ++j) now = next_activation(now, robot);
  return now;
}

MoveSelector::MoveSelector(ExplorationState& state,
                           const std::vector<char>& movable)
    : state_(state), movable_(movable) {
  pending_.assign(static_cast<std::size_t>(state.num_robots()), Pending{});
  selected_.reserve(static_cast<std::size_t>(state.num_robots()));
}

void MoveSelector::reset() {
  for (const std::int32_t robot : selected_) {
    pending_[static_cast<std::size_t>(robot)] = Pending{};
  }
  selected_.clear();
  reserved_this_round_.clear();
  for (const std::int32_t depth : reanchor_depths_) {
    reanchor_counts_[static_cast<std::size_t>(depth)] = 0;
    reanchor_switch_counts_[static_cast<std::size_t>(depth)] = 0;
  }
  reanchor_depths_.clear();
}

void MoveSelector::require_selectable(std::int32_t robot) const {
  BFDN_REQUIRE(robot >= 0 && robot < state_.num_robots(), "robot index");
  BFDN_REQUIRE(movable_[static_cast<std::size_t>(robot)] != 0,
               "selection for a robot the adversary blocked this round");
  BFDN_REQUIRE(pending_[static_cast<std::size_t>(robot)].kind == Kind::kNone,
               "robot already selected a move this round");
}

void MoveSelector::select(std::int32_t robot, Pending move) {
  pending_[static_cast<std::size_t>(robot)] = move;
  selected_.push_back(robot);
}

void MoveSelector::stay(std::int32_t robot) {
  require_selectable(robot);
  select(robot, {Kind::kStay, kInvalidNode});
}

void MoveSelector::move_up(std::int32_t robot) {
  require_selectable(robot);
  const NodeId pos = state_.robot_pos(robot);
  if (pos == state_.tree().root()) {
    // "If Robot_i is at the root, up is interpreted as ⊥."
    select(robot, {Kind::kStay, kInvalidNode});
    return;
  }
  select(robot, {Kind::kUp, pos});
}

void MoveSelector::move_down(std::int32_t robot, NodeId child) {
  require_selectable(robot);
  BFDN_REQUIRE(state_.is_explored(child),
               "move_down target must be an explored child");
  BFDN_REQUIRE(state_.tree().parent(child) == state_.robot_pos(robot),
               "move_down target is not a child of the robot's position");
  select(robot, {Kind::kDownExplored, child});
}

NodeId MoveSelector::try_take_dangling(std::int32_t robot) {
  require_selectable(robot);
  const NodeId pos = state_.robot_pos(robot);
  if (state_.num_unreserved_dangling(pos) == 0) return kInvalidNode;
  const NodeId child = state_.reserve_dangling(pos);
  select(robot, {Kind::kDownDangling, child});
  reserved_this_round_.emplace_back(child, pos);
  return child;
}

std::vector<NodeId> MoveSelector::reserved_dangling_at(NodeId u) const {
  std::vector<NodeId> out;
  for (const auto& [token, at] : reserved_this_round_) {
    if (at == u) out.push_back(token);
  }
  return out;
}

void MoveSelector::join_dangling(std::int32_t robot, NodeId token) {
  require_selectable(robot);
  const NodeId pos = state_.robot_pos(robot);
  bool valid = false;
  for (const auto& [t, at] : reserved_this_round_) {
    if (t == token && at == pos) {
      valid = true;
      break;
    }
  }
  BFDN_REQUIRE(valid, "join_dangling token not reserved at robot's node");
  select(robot, {Kind::kDownDangling, token});
}

void MoveSelector::touch_reanchor_depth(std::size_t depth) {
  if (depth >= reanchor_counts_.size()) {
    reanchor_counts_.resize(depth + 1, 0);
    reanchor_switch_counts_.resize(depth + 1, 0);
  }
  if (reanchor_counts_[depth] == 0 && reanchor_switch_counts_[depth] == 0) {
    reanchor_depths_.push_back(static_cast<std::int32_t>(depth));
  }
}

void MoveSelector::note_reanchor(std::int32_t depth) {
  BFDN_REQUIRE(depth >= 0, "negative reanchor depth");
  const auto d = static_cast<std::size_t>(depth);
  touch_reanchor_depth(d);
  ++reanchor_counts_[d];
}

void MoveSelector::note_reanchor_switch(std::int32_t depth) {
  BFDN_REQUIRE(depth >= 0, "negative reanchor depth");
  const auto d = static_cast<std::size_t>(depth);
  touch_reanchor_depth(d);
  ++reanchor_switch_counts_[d];
}

bool MoveSelector::has_selected(std::int32_t robot) const {
  BFDN_REQUIRE(robot >= 0 && robot < state_.num_robots(), "robot index");
  return pending_[static_cast<std::size_t>(robot)].kind != Kind::kNone;
}

void Algorithm::begin(const ExplorationView&) {}
bool Algorithm::finished(const ExplorationView&) const { return false; }
std::vector<NodeId> Algorithm::anchors() const { return {}; }

ActivationGranularity Algorithm::activation_granularity() const {
  return ActivationGranularity::kLockstep;
}

TransitCapability Algorithm::transit_capability() const {
  return TransitCapability::kStepOnly;
}

void Algorithm::plan_transit(const ExplorationView&, std::int32_t,
                             TransitPlan&) {
  BFDN_CHECK(false, "plan_transit called on a step-only algorithm");
}

void Algorithm::select_moves_subset(const ExplorationView& view,
                                    MoveSelector& selector,
                                    const std::vector<std::int32_t>&) {
  select_moves(view, selector);
}

// Per-move/per-round helpers shared by the engine loops below.
namespace {

/// Claim 4: all open nodes lie in the union of anchor subtrees.
void check_open_node_coverage(const Tree& tree,
                              const ExplorationState& state,
                              const std::vector<NodeId>& anchors) {
  if (anchors.empty()) return;
  for (NodeId open : state.open_nodes()) {
    bool covered = false;
    for (NodeId anchor : anchors) {
      if (anchor != kInvalidNode &&
          tree.is_ancestor_or_self(anchor, open)) {
        covered = true;
        break;
      }
    }
    BFDN_CHECK(covered, str_format("Claim 4 violated: open node %d is in "
                                   "no anchor subtree",
                                   open));
  }
}

/// Shared result/accounting setup for every engine mode.
void init_depth_accounting(const Tree& tree, RunResult& result,
                           std::vector<std::int64_t>& unexplored_at_depth) {
  unexplored_at_depth.assign(static_cast<std::size_t>(tree.depth()) + 1, 0);
  for (NodeId v = 1; v < tree.num_nodes(); ++v) {
    ++unexplored_at_depth[static_cast<std::size_t>(tree.depth(v))];
  }
  result.depth_completed_round.assign(
      static_cast<std::size_t>(tree.depth()) + 1, -1);
  result.depth_completed_round[0] = 0;
  for (std::size_t d = 1; d < unexplored_at_depth.size(); ++d) {
    if (unexplored_at_depth[d] == 0) {
      result.depth_completed_round[d] = 0;  // hollow level (impossible
                                            // in a tree, but cheap)
    }
  }
}

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
                        RunResult& result, std::int64_t commit_round) {
  const NodeId pos = state.robot_pos(robot);
  switch (p.kind) {
    case MoveSelector::Kind::kNone:
    case MoveSelector::Kind::kStay:
      return false;
    case MoveSelector::Kind::kUp:
      BFDN_CHECK(p.target == pos, "stale up-move");
      state.set_robot_pos(robot, tree.parent(pos));
      state.record_traversal(pos, /*downward=*/false);
      ++result.robot_moves[static_cast<std::size_t>(robot)];
      return true;
    case MoveSelector::Kind::kDownExplored:
      state.set_robot_pos(robot, p.target);
      state.record_traversal(p.target, /*downward=*/true);
      ++result.robot_moves[static_cast<std::size_t>(robot)];
      return true;
    case MoveSelector::Kind::kDownDangling:
      if (!state.is_explored(p.target)) {
        state.commit_dangling(pos, p.target);
        const auto d = static_cast<std::size_t>(tree.depth(p.target));
        if (--unexplored_at_depth[d] == 0) {
          result.depth_completed_round[d] = commit_round;
        }
      }
      // else: a joiner; an earlier robot in this round's commit order
      // already explored the edge (group traversal).
      state.set_robot_pos(robot, p.target);
      state.record_traversal(p.target, /*downward=*/true);
      ++result.robot_moves[static_cast<std::size_t>(robot)];
      return true;
  }
  return false;  // unreachable
}

/// A whole committed walk (TransitPlan::kWalk) in one call: validates
/// it, records its traversals and moves the robot to plan.target. A
/// climb must end at the ancestor exactly plan.steps levels up; its
/// upward first-traversal flags are set through
/// ExplorationState::record_climb. A descent must end at an explored
/// node exactly plan.steps levels down; the explored set is
/// ancestor-closed, so every step is an explored down-move, and it
/// sets no flag (every explored non-root node's down-edge was
/// traversed when it was discovered). Near-O(1) amortized; used by the
/// fast-forward loop, which executes walks eagerly.
void apply_walk(const Tree& tree, ExplorationState& state,
                std::int32_t robot, const TransitPlan& plan,
                RunResult& result) {
  const NodeId from = state.robot_pos(robot);
  const NodeId to = plan.target;
  if (tree.is_ancestor_or_self(to, from)) {
    BFDN_CHECK(tree.depth(from) - tree.depth(to) == plan.steps,
               "committed climb does not end plan.steps levels up");
    state.record_climb(from, to);
  } else {
    BFDN_CHECK(state.is_explored(to) && tree.is_ancestor_or_self(from, to) &&
                   tree.depth(to) - tree.depth(from) == plan.steps,
               "committed walk is neither a climb to an ancestor nor a "
               "descent to an explored descendant plan.steps levels down");
  }
  state.set_robot_pos(robot, to);
  result.robot_moves[static_cast<std::size_t>(robot)] += plan.steps;
}

/// The nodes a committed walk from `from` visits, in order (excluding
/// `from`), written into `out`. O(plan.steps); for the one case that
/// steps a walk one node at a time: the round limit cutting a walk
/// short in the fast-forward loop (on either clock).
void walk_path(const Tree& tree, NodeId from, const TransitPlan& plan,
               std::vector<NodeId>& out) {
  out.clear();
  if (tree.is_ancestor_or_self(plan.target, from)) {
    for (NodeId v = from; v != plan.target;) {
      v = tree.parent(v);
      out.push_back(v);
    }
  } else {
    BFDN_CHECK(tree.is_ancestor_or_self(from, plan.target),
               "committed walk is not monotone");
    for (NodeId v = plan.target; v != from; v = tree.parent(v)) {
      out.push_back(v);
    }
    std::reverse(out.begin(), out.end());
  }
  BFDN_CHECK(static_cast<std::int64_t>(out.size()) == plan.steps,
             "committed walk length does not match plan.steps");
}

/// One step of a materialized committed walk: validates the step,
/// records the traversal and advances the robot.
void apply_walk_step(const Tree& tree, ExplorationState& state,
                     std::int32_t robot, NodeId next, RunResult& result) {
  const NodeId cur = state.robot_pos(robot);
  if (cur != tree.root() && next == tree.parent(cur)) {
    state.record_traversal(cur, /*downward=*/false);
  } else {
    BFDN_CHECK(tree.parent(next) == cur && state.is_explored(next),
               "committed walk step is not an up-move or an "
               "explored down-move");
    state.record_traversal(next, /*downward=*/true);
  }
  state.set_robot_pos(robot, next);
  ++result.robot_moves[static_cast<std::size_t>(robot)];
}

/// True iff the selected move changes the robot's position.
bool is_move(const MoveSelector::Pending& p) {
  return p.kind == MoveSelector::Kind::kUp ||
         p.kind == MoveSelector::Kind::kDownExplored ||
         p.kind == MoveSelector::Kind::kDownDangling;
}

/// Remark 8's reactive adversary, between selection and MOVE: it sees
/// every robot's selection for round `round` (0-based), each robot it
/// blocks stays put, and reservations whose edge no robot will traverse
/// anymore return to the pool.
void apply_reactive_blocks(
    ReactiveAdversary& adversary, std::int64_t round, ExplorationState& state,
    MoveSelector& selector,
    std::vector<ReactiveAdversary::ObservedMove>& observed,
    RunResult& result) {
  std::vector<MoveSelector::Pending>& pending = EngineAccess::pending(selector);
  const std::int32_t k = state.num_robots();
  observed.assign(static_cast<std::size_t>(k),
                  ReactiveAdversary::ObservedMove{});
  for (std::int32_t i = 0; i < k; ++i) {
    auto& entry = observed[static_cast<std::size_t>(i)];
    const MoveSelector::Pending& p = pending[static_cast<std::size_t>(i)];
    entry.robot = i;
    entry.moves = is_move(p);
    entry.takes_dangling = p.kind == MoveSelector::Kind::kDownDangling;
  }
  const std::vector<char> blocked = adversary.choose_blocked(round, observed);
  BFDN_CHECK(static_cast<std::int32_t>(blocked.size()) == k,
             "reactive adversary returned a wrong-sized block mask");
  // A blocked robot without a move already stays; a blocked mover's
  // selection becomes a stay in place (it stays listed for the
  // selector's next reset).
  for (std::int32_t i = 0; i < k; ++i) {
    auto& p = pending[static_cast<std::size_t>(i)];
    if (!blocked[static_cast<std::size_t>(i)] || !is_move(p)) continue;
    ++result.reactive_blocks;
    p = {MoveSelector::Kind::kStay, kInvalidNode};
  }
  // Release reservations whose edge no robot will traverse anymore
  // (a group-joining teammate may still carry a blocked reserver's
  // edge, in which case the reservation must survive to be consumed
  // by that commit).
  for (const auto& [token, at] : EngineAccess::reservations(selector)) {
    const bool still_used =
        std::any_of(pending.begin(), pending.end(), [token](const auto& p) {
          return p.kind == MoveSelector::Kind::kDownDangling &&
                 p.target == token;
        });
    if (!still_used) state.release_dangling(at, token);
  }
}

/// Stepped execution, the reference loop for both clocks: every
/// activation runs real selection and every per-round hook and
/// adversary sees it. Each processed virtual time T is one synchronous
/// mini-round over the robots activated at T (the batch): selection
/// against the pre-MOVE state, then MOVE in ascending robot index (the
/// commit order group traversals and Claim 2's reservations rely on).
/// The activation source is either
///  * lockstep (`clocks` == nullptr): T = t + 1 for round t, all clocks
///    set at once, every robot activated unless a break-down schedule
///    masks the batch (and the view's movable array) with allowed(t, i);
///  * per-robot clocks (kAsyncSafe algorithms under RunConfig::async):
///    T is the earliest next activation, the batch the robots due at T.
/// So a round-robin schedule reproduces lockstep bit-exactly.
///
/// Termination: no global all-stay round exists under a partial
/// schedule, so the loop tracks the last time any robot moved and, per
/// robot, the last time it was activated and chose to stay. Once every
/// robot has stayed strictly after the last move, stay-stability (part
/// of the kAsyncSafe contract) guarantees nobody ever moves again; in
/// lockstep this fires exactly on Algorithm 1's uncounted terminal
/// all-stay round. Under an adversary an all-stay round can simply mean
/// every useful robot was blocked: time still passes, and the run ends
/// only once the tree is explored (Section 4.2 has no return phase) or
/// the schedule is exhausted.
///
/// Accounting: T is counted iff a move executes at T or an adversary is
/// present. A counted T adds the batch size to total_activations and is
/// shown to the observer; if a move executed it also adds the idle
/// slots, flushes the reanchor counts, and feeds the trace and the
/// invariant checker. result.rounds is the last counted T.
RunResult run_stepped(const Tree& tree, Algorithm& algorithm,
                      const RunConfig& config, std::int64_t max_rounds,
                      const AsyncScheduler* clocks) {
  const std::int32_t k = config.num_robots;
  ExplorationState state(tree, k);
  RunResult result;
  result.robot_moves.assign(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> unexplored_at_depth;
  init_depth_accounting(tree, result, unexplored_at_depth);

  std::vector<char> movable(static_cast<std::size_t>(k), 1);
  ExplorationView view(state, movable);
  algorithm.begin(view);

  // Loop scratch, hoisted so a steady-state round allocates nothing:
  // the selector is reset in place every round.
  MoveSelector selector(state, movable);
  std::vector<ReactiveAdversary::ObservedMove> observed;
  // Robots activated at T, ascending. In lockstep without a schedule it
  // is every robot for the whole run.
  std::vector<std::int32_t> batch(static_cast<std::size_t>(k));
  std::iota(batch.begin(), batch.end(), 0);
  // Per-robot clocks only: each robot's next activation time.
  std::vector<std::int64_t> next_time;
  if (clocks != nullptr) {
    next_time.resize(static_cast<std::size_t>(k));
    for (std::int32_t i = 0; i < k; ++i) {
      const std::int64_t first = clocks->first_activation(i);
      BFDN_CHECK(first >= 1, "scheduler first_activation must be >= 1");
      next_time[static_cast<std::size_t>(i)] = first;
    }
  }
  const bool adversary =
      config.schedule != nullptr || config.reactive != nullptr;

  std::vector<std::int64_t> last_stay_time(static_cast<std::size_t>(k), -1);
  std::int64_t last_move_time = 0;
  // Robots whose last stay is later than last_move_time; the run is
  // stable when that is every robot.
  std::int64_t stayed_since_move = 0;

  for (std::int64_t now = 0;;) {
    if (clocks == nullptr) {
      ++now;
    } else {
      now = *std::min_element(next_time.begin(), next_time.end());
    }
    if (algorithm.finished(view)) break;
    if (now > max_rounds) {
      result.hit_round_limit = true;
      break;
    }
    if (adversary && state.exploration_complete()) break;

    if (clocks == nullptr) {
      if (config.schedule != nullptr) {
        const std::int64_t round = now - 1;  // the schedule's t
        if (config.schedule->exhausted(round)) break;
        batch.clear();
        for (std::int32_t i = 0; i < k; ++i) {
          const bool allowed = config.schedule->allowed(round, i);
          movable[static_cast<std::size_t>(i)] = allowed ? 1 : 0;
          if (allowed) batch.push_back(i);
        }
      }
      state.set_clock_base(now);
    } else {
      batch.clear();
      for (std::int32_t i = 0; i < k; ++i) {
        if (next_time[static_cast<std::size_t>(i)] != now) continue;
        batch.push_back(i);
        const std::int64_t next = clocks->next_activation(now, i);
        BFDN_CHECK(next > now, "scheduler next_activation must advance time");
        next_time[static_cast<std::size_t>(i)] = next;
        state.set_robot_clock(i, now);
      }
    }

    selector.reset();
    algorithm.select_moves_subset(view, selector, batch);
    if (config.reactive != nullptr) {
      apply_reactive_blocks(*config.reactive, now - 1, state, selector,
                            observed, result);
    }
    const std::vector<MoveSelector::Pending>& pending =
        EngineAccess::pending(selector);

    std::int64_t moves = 0;
    std::int64_t stays = 0;
    for (const std::int32_t i : batch) {
      const auto s = static_cast<std::size_t>(i);
      if (apply_pending_move(tree, state, i, pending[s], unexplored_at_depth,
                             result, now)) {
        ++moves;
      } else {
        ++stays;
        if (last_stay_time[s] <= last_move_time) ++stayed_since_move;
        last_stay_time[s] = now;
      }
    }

    const bool counted = moves > 0 || adversary;
    if (counted) {
      result.rounds = now;
      result.total_activations += static_cast<std::int64_t>(batch.size());
    }
    if (moves > 0) {
      last_move_time = now;
      stayed_since_move = 0;
      if (stays > 0) {
        ++result.rounds_with_idle;
        result.idle_robot_rounds += stays;
      }
      EngineAccess::flush_reanchor_counts(selector, result);
      if (config.trace != nullptr) {
        TraceFrame frame;
        frame.round = now;
        frame.positions.reserve(static_cast<std::size_t>(k));
        for (std::int32_t i = 0; i < k; ++i) {
          frame.positions.push_back(state.robot_pos(i));
        }
        config.trace->push_back(std::move(frame));
      }
    }
    if (config.observer != nullptr && counted) {
      config.observer->on_round(now, state);
    }
    if (config.check_invariants && moves > 0) {
      check_open_node_coverage(tree, state, algorithm.anchors());
    }

    if (!adversary && stayed_since_move == k) break;
  }

  finalize_result(tree, state, result);
  return result;
}

/// Monotone calendar of rate-class activations. A time less than 64
/// past the last processed one lands in a ring of per-time buckets
/// with an occupancy mask, so pushing and finding the next time are
/// O(1); a later time waits in a min-heap. With one class per robot
/// most classes activate at every processed time, where a heap alone
/// costs more than the O(k) scan it replaces.
class ActivationCalendar {
 public:
  /// Schedules `index` at `time`, which must lie after the last
  /// processed time.
  void push(std::int64_t time, std::int32_t index) {
    if (time - now_ < kSlots) {
      const auto slot = static_cast<std::size_t>(time & (kSlots - 1));
      ring_[slot].push_back(index);
      occupied_ |= std::uint64_t{1} << slot;
    } else {
      overflow_.emplace_back(time, index);
      std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>());
    }
  }

  /// The earliest scheduled time; requires a scheduled entry.
  std::int64_t next_time() const {
    std::int64_t next = overflow_.empty()
                            ? std::numeric_limits<std::int64_t>::max()
                            : overflow_.front().first;
    if (occupied_ != 0) {
      // Bit j of the rotated mask is the bucket of time now_ + j.
      const int offset = std::countr_zero(
          std::rotr(occupied_, static_cast<int>(now_ & (kSlots - 1))));
      next = std::min(next, now_ + offset);
    }
    return next;
  }

  /// Appends every index scheduled at `time` == next_time() to `out`
  /// (in no particular order) and makes `time` the processed time.
  void pop(std::int64_t time, std::vector<std::int32_t>& out) {
    now_ = time;
    const auto slot = static_cast<std::size_t>(time & (kSlots - 1));
    if ((occupied_ >> slot) & 1) {
      out.insert(out.end(), ring_[slot].begin(), ring_[slot].end());
      ring_[slot].clear();
      occupied_ &= ~(std::uint64_t{1} << slot);
    }
    while (!overflow_.empty() && overflow_.front().first == time) {
      std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>());
      out.push_back(overflow_.back().second);
      overflow_.pop_back();
    }
  }

 private:
  static constexpr std::int64_t kSlots = 64;
  std::array<std::vector<std::int32_t>, kSlots> ring_;
  std::uint64_t occupied_ = 0;
  std::int64_t now_ = 0;
  // (time, rate class) min-heap; ties pop in ascending index.
  std::vector<std::pair<std::int64_t, std::int32_t>> overflow_;
};

/// Event-driven fast-forward, the one loop for both clocks. Robots
/// alternate between selections, where they run the algorithm's real
/// selection logic, and committed walks (TransitPlan::kWalk), which the
/// loop executes in one apply_walk call the moment they are planned:
/// the robot's position, the first-traversal flags and its move counter
/// advance over the whole segment, and the robot next selects at the
/// activation after its last walk step. Because a committed-segment
/// algorithm decides each robot's move from shared exploration state
/// plus that robot's own private state only, and transit moves touch no
/// shared state another robot's decision reads (traversal flags are
/// write-only bookkeeping; dangling counts only ever decrease),
/// executing the walk eagerly is indistinguishable from interleaving it
/// with the other robots' activations — the stepped loop would produce
/// exactly the same moves. Every accounting rule below mirrors one line
/// of the stepped loop (see docs/MODEL.md).
///
/// Robots of one rate class share every activation time, so a processed
/// time T needs only the per-class counts of the classes activated at T
/// — activated = Σ class sizes, moves = Σ class walkers + selector
/// moves, idle = Σ class parked + stayers. The activation source is
///  * lockstep (kLockstepSource, `clocks` == nullptr): one class of all k
///    robots, active at every tick, all clocks set at once; a robot's
///    next selection is T + 1 and a walk of s steps ends at T + s, so no
///    scheduler is asked and no calendar kept, and the walkers are the
///    robots neither selecting nor parked. Ticks at which no robot
///    selects have every unparked robot mid-walk and are accounted in
///    closed form;
///  * per-robot clocks (kAsyncSafe algorithms under RunConfig::async): a
///    walk ends at nth_activation(T, i, steps), a calendar yields the
///    classes activated at T, and per-class walker counts check that
///    class members share their activation times.
/// The source is a template parameter, so the lockstep instance carries
/// no scheduler branch.
/// Each robot's next selection time sits in a per-robot array beside
/// their cached minimum; a time at which robots select adds one O(k)
/// pass over the array, which yields them in the ascending order
/// Claim 2's reservations need.
template <bool kLockstepSource>
RunResult run_event_driven(const Tree& tree, Algorithm& algorithm,
                           std::int32_t k, std::int64_t max_rounds,
                           const AsyncScheduler* clocks) {
  ExplorationState state(tree, k);
  RunResult result;
  result.robot_moves.assign(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> unexplored_at_depth;
  init_depth_accounting(tree, result, unexplored_at_depth);

  const std::vector<char> movable(static_cast<std::size_t>(k), 1);
  ExplorationView view(state, movable);
  algorithm.begin(view);
  MoveSelector selector(state, movable);

  // The activation after time t of robot i.
  const auto next_after = [clocks](std::int64_t t, std::int32_t i) {
    const std::int64_t next =
        kLockstepSource ? t + 1 : clocks->next_activation(t, i);
    BFDN_CHECK(next > t, "scheduler next_activation must advance time");
    return next;
  };

  struct RateClass {
    std::int64_t size = 0;
    std::int64_t walkers = 0;  // members inside a committed walk
    std::int64_t parked = 0;   // members parked by kStayForever
    std::int32_t member = -1;  // any member: the class's clock
    std::int64_t active_at = 0;
  };
  const std::int32_t num_classes =
      kLockstepSource ? 1 : clocks->num_rate_classes(k);
  BFDN_CHECK(num_classes >= 1, "scheduler needs at least one rate class");
  std::vector<RateClass> classes(static_cast<std::size_t>(num_classes));
  std::vector<std::int32_t> class_of(static_cast<std::size_t>(k));
  // Each robot's next selection time (kNever once it never selects
  // again) and the minimum over all robots.
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> next_selection(static_cast<std::size_t>(k));
  std::int64_t earliest_selection = kNever;
  for (std::int32_t i = 0; i < k; ++i) {
    const std::int32_t c = kLockstepSource ? 0 : clocks->rate_class(i);
    BFDN_CHECK(c >= 0 && c < num_classes, "rate class out of range");
    class_of[static_cast<std::size_t>(i)] = c;
    RateClass& rate_class = classes[static_cast<std::size_t>(c)];
    ++rate_class.size;
    if (rate_class.member < 0) rate_class.member = i;
    const std::int64_t first =
        kLockstepSource ? 1 : clocks->first_activation(i);
    BFDN_CHECK(first >= 1, "scheduler first_activation must be >= 1");
    next_selection[static_cast<std::size_t>(i)] = first;
    earliest_selection = std::min(earliest_selection, first);
  }
  // Classes activated at T, popped from the calendar of class
  // activations (in lockstep the one class is always active).
  std::vector<std::int32_t> active;
  active.reserve(static_cast<std::size_t>(num_classes));
  ActivationCalendar activations;
  for (std::int32_t c = 0; !kLockstepSource && c < num_classes; ++c) {
    const RateClass& rate_class = classes[static_cast<std::size_t>(c)];
    if (rate_class.size > 0) {
      activations.push(clocks->first_activation(rate_class.member), c);
    }
  }

  // Robots inside a committed walk; kept under a scheduler only, for
  // the per-class walker counts.
  std::vector<char> walking(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> last_stay_time(static_cast<std::size_t>(k), -1);
  std::int64_t last_move_time = 0;
  std::int64_t num_parked = 0;
  // Unparked robots whose last stay is later than last_move_time; the
  // run is stable when that is every unparked robot (in lockstep: on
  // Algorithm 1's uncounted terminal all-stay round).
  std::int64_t stayed_since_move = 0;

  std::vector<std::int32_t> selecting;  // robots selecting at T, ascending
  selecting.reserve(static_cast<std::size_t>(k));
  TransitPlan plan;
  std::vector<NodeId> capped_walk;

  for (std::int64_t now = 0;;) {
    if constexpr (kLockstepSource) {
      // Lockstep ticks before the next selection (up to the limit): every
      // unparked robot is mid-walk and moves in each of them, so they all
      // count; parked robots stay, which is exactly the stepped loop's
      // idle accounting. Robots whose walk the limit cut never select
      // again and keep moving up to the limit.
      const std::int64_t gap_end = std::min(earliest_selection - 1, max_rounds);
      if (gap_end > now) {
        const std::int64_t gap = gap_end - now;
        result.total_activations += static_cast<std::int64_t>(k) * gap;
        if (num_parked > 0) {
          result.rounds_with_idle += gap;
          result.idle_robot_rounds += gap * num_parked;
        }
        last_move_time = gap_end;
        stayed_since_move = 0;
      }
      now = earliest_selection;
    } else {
      now = activations.next_time();
    }
    if (algorithm.finished(view)) break;
    // As in the stepped loop, the limit check precedes the time's
    // all-stay test, so a run still moving at max_rounds hits the limit.
    if (now > max_rounds) {
      result.hit_round_limit = true;
      break;
    }

    // Branch-free compaction of the robots selecting now beside the
    // minimum over everyone else (the buffer keeps capacity k, so the
    // resizes never allocate). The selectors' entries are rewritten when
    // they are re-planned below.
    BFDN_CHECK(earliest_selection >= now,
               "a robot's selection time was never processed");
    std::size_t num_selecting = 0;
    if (earliest_selection == now) {
      earliest_selection = kNever;
      selecting.resize(static_cast<std::size_t>(k));
      for (std::int32_t i = 0; i < k; ++i) {
        const std::int64_t t = next_selection[static_cast<std::size_t>(i)];
        selecting[num_selecting] = i;
        num_selecting += static_cast<std::size_t>(t == now);
        earliest_selection =
            std::min(earliest_selection, t == now ? kNever : t);
      }
    }
    selecting.resize(num_selecting);
    // The members of the classes activated at T: in lockstep all k, of
    // which those neither selecting nor parked are mid-walk.
    std::int64_t activated = k;
    std::int64_t parked = num_parked;
    std::int64_t walkers =
        k - num_parked - static_cast<std::int64_t>(selecting.size());
    if constexpr (kLockstepSource) {
      state.set_clock_base(now);
    } else {
      active.clear();
      activations.pop(now, active);
      activated = parked = walkers = 0;  // less the walks ending now
      for (const std::int32_t c : active) {
        RateClass& rate_class = classes[static_cast<std::size_t>(c)];
        rate_class.active_at = now;
        activated += rate_class.size;
        parked += rate_class.parked;
        walkers += rate_class.walkers;
        activations.push(next_after(now, rate_class.member), c);
      }
      for (const std::int32_t i : selecting) state.set_robot_clock(i, now);
    }

    if (!selecting.empty()) {
      selector.reset();
      algorithm.select_moves_subset(view, selector, selecting);
    }
    const std::vector<MoveSelector::Pending>& pending =
        EngineAccess::pending(selector);

    // MOVE for the selecting robots, ascending robot index; the
    // walkers' moves at T were applied when their walks were planned.
    std::int64_t moves = 0;
    std::int64_t stayers = 0;
    for (const std::int32_t i : selecting) {
      const auto s = static_cast<std::size_t>(i);
      if constexpr (!kLockstepSource) {
        RateClass& rate_class = classes[static_cast<std::size_t>(class_of[s])];
        BFDN_CHECK(rate_class.active_at == now,
                   "a robot's activation is not one of its rate class's");
        // A walker's walk ended at the class's last activation.
        rate_class.walkers -= walking[s];
        walkers -= walking[s];
        walking[s] = 0;
      }
      if (apply_pending_move(tree, state, i, pending[s], unexplored_at_depth,
                             result, now)) {
        ++moves;
      } else {
        ++stayers;
        if (last_stay_time[s] <= last_move_time) ++stayed_since_move;
        last_stay_time[s] = now;
      }
    }
    BFDN_CHECK(activated ==
                   walkers + parked + static_cast<std::int64_t>(
                                          selecting.size()),
               "rate class members do not share their activation times");
    moves += walkers;
    if (moves > 0) {
      last_move_time = now;
      stayed_since_move = 0;
      const std::int64_t idle = parked + stayers;
      if (idle > 0) {
        ++result.rounds_with_idle;
        result.idle_robot_rounds += idle;
      }
      result.total_activations += activated;
      // Without selectors the selector still holds an earlier time's
      // counts, already flushed or dropped with that time.
      if (!selecting.empty()) {
        EngineAccess::flush_reanchor_counts(selector, result);
      }
    }

    // Re-plan the robots that just selected, from the post-MOVE state.
    for (const std::int32_t i : selecting) {
      const auto s = static_cast<std::size_t>(i);
      plan = TransitPlan{};
      algorithm.plan_transit(view, i, plan);
      if (plan.kind == TransitPlan::Kind::kStayForever) {
        next_selection[s] = kNever;
        ++classes[static_cast<std::size_t>(class_of[s])].parked;
        ++num_parked;
        if (last_stay_time[s] > last_move_time) --stayed_since_move;
        continue;
      }
      if (plan.kind == TransitPlan::Kind::kEvent || plan.steps == 0) {
        next_selection[s] = next_after(now, i);
        earliest_selection = std::min(earliest_selection, next_selection[s]);
        continue;
      }
      if constexpr (!kLockstepSource) {
        walking[s] = 1;
        ++classes[static_cast<std::size_t>(class_of[s])].walkers;
      }
      const std::int64_t walk_end =
          kLockstepSource ? now + plan.steps
                            : clocks->nth_activation(now, i, plan.steps);
      BFDN_CHECK(walk_end > now, "scheduler nth_activation must advance time");
      if (walk_end <= max_rounds) {
        apply_walk(tree, state, i, plan, result);
        next_selection[s] = next_after(walk_end, i);
        earliest_selection = std::min(earliest_selection, next_selection[s]);
        continue;
      }
      // A limit-capped walk: only the steps at activations inside the
      // limit execute, and the robot never selects again.
      next_selection[s] = kNever;
      walk_path(tree, state.robot_pos(i), plan, capped_walk);
      std::size_t step = 0;
      for (std::int64_t t = next_after(now, i); t <= max_rounds;
           t = next_after(t, i)) {
        apply_walk_step(tree, state, i, capped_walk[step++], result);
      }
    }

    if (stayed_since_move == k - num_parked) break;
  }

  result.rounds = last_move_time;
  finalize_result(tree, state, result);
  return result;
}

}  // namespace

RunResult run_exploration(const Tree& tree, Algorithm& algorithm,
                          const RunConfig& config) {
  BFDN_REQUIRE(config.num_robots >= 1, "need at least one robot");
  BFDN_REQUIRE(config.schedule == nullptr || config.reactive == nullptr,
               "schedule and reactive adversary are mutually exclusive");
  BFDN_REQUIRE(config.async == nullptr ||
                   (config.schedule == nullptr && config.reactive == nullptr),
               "async scheduler is mutually exclusive with the break-down "
               "and reactive adversaries");
  const std::int64_t max_rounds = config.max_rounds > 0
                                      ? config.max_rounds
                                      : default_round_limit(tree);

  // Only algorithms that advertise async-safety run on per-robot
  // clocks; a lockstep-only algorithm under an async config is
  // auto-driven in lockstep, i.e. executed synchronously.
  const AsyncScheduler* clocks =
      algorithm.activation_granularity() == ActivationGranularity::kAsyncSafe
          ? config.async
          : nullptr;

  // Two loops, each with both activation sources. The fast-forward
  // loop needs committed-segment hints from the algorithm and is
  // incompatible with anything that must see (or perturb) every round:
  // per-round hooks and adversaries force the stepped loop, as does
  // fast_forward = false, on either clock.
  if (config.fast_forward && config.schedule == nullptr &&
      config.reactive == nullptr && config.trace == nullptr &&
      config.observer == nullptr && !config.check_invariants &&
      algorithm.transit_capability() ==
          TransitCapability::kCommittedSegments) {
    return clocks == nullptr
               ? run_event_driven<true>(tree, algorithm, config.num_robots,
                                        max_rounds, clocks)
               : run_event_driven<false>(tree, algorithm, config.num_robots,
                                         max_rounds, clocks);
  }
  return run_stepped(tree, algorithm, config, max_rounds, clocks);
}

std::int64_t default_round_limit(const Tree& tree) {
  return 3 * static_cast<std::int64_t>(std::max(tree.depth(), 1)) *
             tree.num_nodes() +
         4 * tree.num_nodes() + 4 * tree.depth() + 64;
}

double theorem1_bound(std::int64_t n, std::int32_t depth,
                      std::int32_t max_degree, std::int32_t k) {
  const double log_term = std::min(std::log(static_cast<double>(k)),
                                   std::log(static_cast<double>(
                                       std::max(max_degree, 1))));
  return 2.0 * static_cast<double>(n) / static_cast<double>(k) +
         static_cast<double>(depth) * static_cast<double>(depth) *
             (std::max(log_term, 0.0) + 3.0);
}

double lemma2_bound(std::int32_t k, std::int32_t max_degree) {
  const double log_term = std::min(std::log(static_cast<double>(k)),
                                   std::log(static_cast<double>(
                                       std::max(max_degree, 1))));
  return static_cast<double>(k) * (std::max(log_term, 0.0) + 3.0);
}

double offline_lower_bound(std::int64_t n, std::int32_t depth,
                           std::int32_t k) {
  return std::max(
      2.0 * static_cast<double>(n - 1) / static_cast<double>(k),
      2.0 * static_cast<double>(depth));
}

}  // namespace bfdn
