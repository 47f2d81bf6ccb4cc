// Synchronous round engine for collaborative tree exploration
// (complete-communication model, Section 2; break-down extension,
// Section 4.2).
//
// A round is: (1) the algorithm makes sequential per-robot selections
// through MoveSelector (mirroring Algorithm 1's "for i = 1 to k"
// decision loop, including exclusive reservation of dangling edges —
// Claim 2 holds by construction); (2) all selected moves execute
// synchronously and the partially explored tree is updated. Under
// per-robot clocks (AsyncScheduler) the same two phases run over the
// robots activated at each virtual time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/tree.h"
#include "sim/exploration_state.h"
#include "support/stats.h"

namespace bfdn {

/// Adversarial movement schedule M(t, i) of Section 4.2. Outside the
/// break-down setting pass nullptr (every robot may always move).
class BreakdownSchedule {
 public:
  virtual ~BreakdownSchedule() = default;
  /// May robot `robot` move at round `t` (0-based)?
  virtual bool allowed(std::int64_t t, std::int32_t robot) = 0;
  /// True iff no robot will ever be allowed to move at round >= t.
  virtual bool exhausted(std::int64_t t) const = 0;
};

/// Per-robot virtual clock source for the asynchronous execution model
/// (see docs/MODEL.md, "Per-robot clocks"). The scheduler decides at
/// which virtual times each robot is activated; the engine processes
/// activations in ascending time order, robots sharing a time forming
/// one synchronous mini-round. Implementations must be deterministic
/// pure functions of (robot, now) — no internal state — so a run is
/// reproducible from the spec alone, and must satisfy
/// first_activation(i) >= 1 and next_activation(now, i) > now with all
/// gaps finite (every robot is activated infinitely often).
///
/// Robots are partitioned into rate classes: robots of one class share
/// every activation time, so the engine counts a class's activations
/// once per time instead of once per robot. The default is one class
/// per robot, which is always correct.
/// Concrete schedulers live in src/adversarial/async_scheduler.h.
class AsyncScheduler {
 public:
  virtual ~AsyncScheduler() = default;
  virtual std::string name() const = 0;
  /// Virtual time of robot's first activation (>= 1).
  virtual std::int64_t first_activation(std::int32_t robot) const = 0;
  /// Next activation of `robot` strictly after virtual time `now`.
  virtual std::int64_t next_activation(std::int64_t now,
                                       std::int32_t robot) const = 0;
  /// The n-th (n >= 1) activation of `robot` strictly after `now`:
  /// next_activation iterated n times. Schedulers with a closed form
  /// override it; the engine calls it once per committed walk.
  virtual std::int64_t nth_activation(std::int64_t now, std::int32_t robot,
                                      std::int64_t n) const;
  /// Number of rate classes among `num_robots` robots (some may be
  /// empty); rate_class(i) lies in [0, num_rate_classes(num_robots)).
  virtual std::int32_t num_rate_classes(std::int32_t num_robots) const {
    return num_robots;
  }
  virtual std::int32_t rate_class(std::int32_t robot) const { return robot; }
  /// True iff every robot is activated at every virtual time (all
  /// clocks tick together) — the schedule under which the async engine
  /// must reproduce the synchronous engine bit-identically.
  virtual bool lockstep() const { return false; }
};

/// Remark 8 extension: an adversary that inspects the moves the robots
/// selected this round BEFORE deciding which robots to block. Blocked
/// robots stay put and their dangling-edge reservations return to the
/// pool. Implementations must stop blocking after a finite budget, or
/// the run only ends at the round limit. Requires algorithms that
/// navigate statelessly from observed positions (BfdnAlgorithm does).
class ReactiveAdversary {
 public:
  virtual ~ReactiveAdversary() = default;

  /// What the adversary sees about one robot's selection.
  struct ObservedMove {
    std::int32_t robot = 0;
    bool moves = false;           // false: stays anyway
    bool takes_dangling = false;  // would discover a new edge
  };

  /// Flags (size k) of robots to block this round.
  virtual std::vector<char> choose_blocked(
      std::int64_t round, const std::vector<ObservedMove>& observed) = 0;
};

/// Per-round move selection handed to the algorithm. One instance is
/// reused across rounds (reset() clears it) so the steady-state round
/// loop does not allocate.
class MoveSelector {
 public:
  MoveSelector(ExplorationState& state, const std::vector<char>& movable);

  /// Clears all selections, reservations and reanchor counts for the
  /// next round, keeping buffer capacity. Visits only the robots that
  /// selected and the depths whose reanchor counters were touched since
  /// the last reset.
  void reset();

  /// Robot stays put (the paper's ⊥).
  void stay(std::int32_t robot);
  /// Moves one step towards the root; at the root this is ⊥/stay.
  void move_up(std::int32_t robot);
  /// Moves down an *explored* edge to the given explored child.
  void move_down(std::int32_t robot, NodeId child);
  /// Reserves and selects a dangling edge at the robot's position.
  /// Returns the opaque edge token, or kInvalidNode (selecting nothing)
  /// if no unreserved dangling edge exists there. Exclusive: no other
  /// try_take_dangling call this round can return the same token, which
  /// is exactly Claim 2's guarantee for BFDN's DN procedure.
  NodeId try_take_dangling(std::int32_t robot);

  /// Dangling edges at u already reserved this round (tokens usable
  /// with join_dangling). The general model permits several robots to
  /// traverse one edge synchronously; group-based algorithms such as
  /// CTE opt in through this pair of calls. BFDN never joins.
  std::vector<NodeId> reserved_dangling_at(NodeId u) const;

  /// Selects an already-reserved dangling edge for an additional robot
  /// at the same node (group traversal).
  void join_dangling(std::int32_t robot, NodeId token);

  /// Records that the algorithm re-anchored a robot to depth `depth`
  /// (Lemma 2 bookkeeping; purely observational).
  void note_reanchor(std::int32_t depth);

  /// Records a re-anchor that *changed* the robot's anchor. This is the
  /// quantity Lemma 2's urn-game argument bounds by
  /// k(min{log k, log Delta} + 3) per depth: repeated assignments to the
  /// same anchor (e.g. the root of a star, once per excursion) are not
  /// ball moves in the game and are excluded. Call in addition to
  /// note_reanchor when the anchor moved.
  void note_reanchor_switch(std::int32_t depth);

  bool has_selected(std::int32_t robot) const;

  /// Engine-facing move representation (read by the engine only).
  enum class Kind : std::uint8_t { kNone, kStay, kUp, kDownExplored,
                                   kDownDangling };
  struct Pending {
    Kind kind = Kind::kNone;
    NodeId target = kInvalidNode;  // child id for the down kinds
  };

 private:
  friend struct EngineAccess;
  void require_selectable(std::int32_t robot) const;
  /// Records `move` as the robot's selection and lists the robot for
  /// reset().
  void select(std::int32_t robot, Pending move);
  /// Sizes both reanchor counters for `depth` and lists the depth in
  /// reanchor_depths_ on its first count since the last reset.
  void touch_reanchor_depth(std::size_t depth);

  ExplorationState& state_;
  const std::vector<char>& movable_;
  std::vector<Pending> pending_;
  // Robots with a selection since the last reset, in selection order.
  std::vector<std::int32_t> selected_;
  // token -> node it hangs off, for join validation.
  std::vector<std::pair<NodeId, NodeId>> reserved_this_round_;
  // Reanchor counts indexed by depth (flat: note_reanchor must stay
  // allocation-free once warmed up to the deepest anchor seen).
  std::vector<std::uint64_t> reanchor_counts_;
  std::vector<std::uint64_t> reanchor_switch_counts_;
  // Depths with a non-zero count in either vector, in first-touch
  // order: reset() and the engine's flush visit only these, so their
  // cost is independent of the deepest anchor seen.
  std::vector<std::int32_t> reanchor_depths_;
};

/// Whether an algorithm can expose per-robot committed transit segments
/// to the engine's fast-forward mode (see TransitPlan). kStepOnly
/// algorithms are always simulated round by round.
enum class TransitCapability : std::uint8_t {
  kStepOnly,
  kCommittedSegments,
};

/// Whether an algorithm's per-robot decisions stay correct when robots
/// are activated out of lockstep by an AsyncScheduler. kAsyncSafe
/// requires (1) select_moves_subset implemented for arbitrary batches
/// (not only the fast-forward wake sets), (2) each robot's decision to
/// depend only on shared exploration state plus that robot's private
/// state, (3) stay-stability: a robot that selected stay selects stay
/// again at its next activation if no move executed in between, and
/// (4) finished() left at the default. Lockstep-only algorithms under
/// an async RunConfig are auto-driven in lockstep: the stepped loop's
/// lockstep source activates every robot every round, i.e. the run is
/// synchronous whatever the scheduler. Either way a run takes one of
/// two loops, each with both activation sources (see RunConfig).
enum class ActivationGranularity : std::uint8_t {
  kLockstep,
  kAsyncSafe,
};

/// One robot's committed plan between two of its decision points
/// ("events"), produced by Algorithm::plan_transit right after the
/// robot's move in an event round:
///  - kEvent: the robot's very next selection depends on shared state
///    (it may reanchor, take a dangling edge, ...); wake it next round.
///  - kWalk: the robot will deterministically walk the monotone path to
///    `target`, one node per round — either a climb to the ancestor
///    `steps` levels up or a descent along already-explored edges to
///    the explored descendant `steps` levels down — then needs a fresh
///    selection on the round after arrival. steps == 0 (target == the
///    robot's position) is equivalent to kEvent.
///  - kStayForever: the robot selects stay (the paper's ⊥) in every
///    remaining round of the run, no matter how the state evolves.
/// The contract is that replaying the stepped engine would produce
/// exactly these moves; see docs/MODEL.md ("Fast-forward") for the
/// obligations this places on the algorithm.
struct TransitPlan {
  enum class Kind : std::uint8_t { kEvent, kWalk, kStayForever };
  Kind kind = Kind::kEvent;
  NodeId target = kInvalidNode;  // kWalk only: where the walk ends
  std::int32_t steps = 0;        // kWalk only: its length in moves
};

/// A collaborative exploration algorithm in the complete-communication
/// model. Implementations keep their own per-robot state across rounds.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;

  /// Called once before the first round.
  virtual void begin(const ExplorationView& view);

  /// Called every round; make one selection per robot (unselected robots
  /// stay). Selections for robots with view.can_move(i) == false are
  /// rejected by the selector.
  virtual void select_moves(const ExplorationView& view,
                            MoveSelector& selector) = 0;

  /// Early-termination signal for algorithms that finish away from the
  /// root (e.g. the recursive BFDN_l). Default: never; the engine then
  /// stops on the first round with no movement (Algorithm 1's do-while).
  virtual bool finished(const ExplorationView& view) const;

  /// Current anchor of each robot, if the algorithm is anchor-based;
  /// used by the optional Claim-4 invariant checker. Empty = not
  /// anchor-based.
  virtual std::vector<NodeId> anchors() const;

  /// Opt-in to per-robot clocks (RunConfig::async). Default: kLockstep —
  /// the engine then drives the algorithm in lockstep (synchronously)
  /// even when an async scheduler is configured.
  virtual ActivationGranularity activation_granularity() const;

  /// Opt-in to the engine's fast-forward mode. Default: kStepOnly.
  /// Implementations returning kCommittedSegments must also override
  /// plan_transit and select_moves_subset, must not override finished(),
  /// and their select_moves must decide each robot's move from shared
  /// exploration state plus that robot's own private state only (never
  /// from another robot's position) — the fast-forward engine advances
  /// robots out of lockstep between events.
  virtual TransitCapability transit_capability() const;

  /// Fast-forward planning hook, called for robot `robot` immediately
  /// after its move in an event round (post-MOVE state). Fills `plan`
  /// (reset to kEvent by the engine beforehand) with the robot's
  /// committed segment. Only called when transit_capability() is
  /// kCommittedSegments.
  virtual void plan_transit(const ExplorationView& view, std::int32_t robot,
                            TransitPlan& plan);

  /// Like select_moves but only for the given robots (ascending robot
  /// indices); all other robots are mid-walk, parked or not activated
  /// and make no selection. Must behave exactly as select_moves
  /// restricted to `robots` — in particular dangling-edge reservation
  /// order follows the given index order, preserving Claim 2. The
  /// stepped loop calls it every round; for a lockstep-only algorithm
  /// `robots` is then exactly the movable set, so the default, which
  /// forwards to select_moves, is exact. Algorithms that are
  /// kCommittedSegments or kAsyncSafe get other batches and must
  /// override it.
  virtual void select_moves_subset(const ExplorationView& view,
                                   MoveSelector& selector,
                                   const std::vector<std::int32_t>& robots);
};

struct TraceFrame {
  std::int64_t round = 0;
  std::vector<NodeId> positions;
};

/// Per-round observation hook for the verification harness
/// (src/verify): called after the synchronous MOVE of every counted
/// round — including all-stay rounds under break-downs, where time
/// passes without movement — with the post-move state. The reference is
/// only valid during the call.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  virtual void on_round(std::int64_t round, const ExplorationState& state) = 0;
};

/// A run takes one of two loops, chosen by run_exploration: the
/// fast-forward loop when `fast_forward` holds and nothing needs every
/// round, and otherwise the stepped loop. Each has two activation
/// sources, lockstep and an AsyncScheduler; the fast-forward loop
/// accounts lockstep ticks at which no robot selects in closed form
/// (docs/MODEL.md).
struct RunConfig {
  std::int32_t num_robots = 1;
  /// 0 = automatic limit (comfortably above the 3*D*n termination bound).
  std::int64_t max_rounds = 0;
  /// Check Claims 2 and 4 every round (slow; for tests).
  bool check_invariants = false;
  /// Break-down adversary; nullptr = all robots always move.
  BreakdownSchedule* schedule = nullptr;
  /// Reactive adversary (Remark 8); mutually exclusive with `schedule`.
  ReactiveAdversary* reactive = nullptr;
  /// Per-robot-clock activation source; nullptr = the synchronous
  /// model (all robots activated every round). Mutually exclusive with
  /// `schedule` and `reactive`. Algorithms advertising kAsyncSafe run on
  /// these clocks; kLockstep algorithms are auto-driven in lockstep
  /// (i.e. the scheduler is ignored and the run is synchronous; see
  /// docs/MODEL.md).
  AsyncScheduler* async = nullptr;
  /// If non-null, receives one frame per executed round.
  std::vector<TraceFrame>* trace = nullptr;
  /// If non-null, called after every counted round (verification hook).
  RoundObserver* observer = nullptr;
  /// Event-driven fast-forward: between events the engine executes each
  /// robot's committed walk in one batched update instead of stepping
  /// every round. Results are identical to the stepped loop; false
  /// forces the stepped loop on either clock. Auto-disabled (falls back
  /// to stepping) when the algorithm is step-only, an observer/trace/
  /// invariant-checker needs per-round state, or a break-down schedule
  /// / reactive adversary can interrupt transits.
  bool fast_forward = true;
};

struct RunResult {
  /// Rounds executed (the terminal all-stay round is not counted, as in
  /// the paper's do-while).
  std::int64_t rounds = 0;
  bool complete = false;      // every node explored
  bool all_at_root = false;   // every robot back at the root
  bool hit_round_limit = false;
  std::int64_t edge_events = 0;
  /// Rounds in which at least one *movable* robot stayed put.
  std::int64_t rounds_with_idle = 0;
  /// Total robot-rounds in which a movable robot stayed put.
  std::int64_t idle_robot_rounds = 0;
  /// Moves actually performed, per robot; sum = k*A(M) in Section 4.2.
  std::vector<std::int64_t> robot_moves;
  /// Reanchor calls per returned depth (Lemma 2).
  Histogram reanchors_by_depth;
  std::int64_t total_reanchors = 0;
  /// Reanchor calls that *changed* the robot's anchor, per depth — the
  /// per-depth quantity Lemma 2 bounds by k(min{log k, log Delta} + 3)
  /// (see MoveSelector::note_reanchor_switch).
  Histogram reanchor_switches_by_depth;
  std::int64_t total_reanchor_switches = 0;
  /// Robot-moves cancelled by a reactive adversary (Remark 8).
  std::int64_t reactive_blocks = 0;
  /// Robot-activation slots in counted rounds: one per (robot, time)
  /// pair in which the scheduler activated the robot and the round was
  /// counted. Synchronously this is movable-robots x counted rounds
  /// (= k x rounds outside break-downs); under an async schedule, the
  /// sum of mini-round batch sizes over counted event times. The
  /// bench's activations/s throughput denominator.
  std::int64_t total_activations = 0;
  /// depth_completed_round[d]: first round after which every node at
  /// depth d is explored (-1 if the run ended before that; [0] == 0).
  /// BFDN's breadth-first re-anchoring makes this strictly increasing
  /// and front-loaded; depth-first swarms fill it almost all at once.
  std::vector<std::int64_t> depth_completed_round;
  /// Digest of the final ExplorationState (positions, per-edge traversal
  /// flags, counters); lets differential checks compare end states of
  /// two runs without attaching an observer.
  std::uint64_t final_state_hash = 0;
};

/// Runs `algorithm` on `tree` until termination (see RunConfig).
RunResult run_exploration(const Tree& tree, Algorithm& algorithm,
                          const RunConfig& config);

/// The automatic round limit run_exploration applies when
/// RunConfig::max_rounds == 0: comfortably above the 3*D*n termination
/// bound. Exposed so callers driving slow async schedules can scale it.
std::int64_t default_round_limit(const Tree& tree);

/// The round budget of a run whose slowest robot waits up to `slowdown`
/// ticks between activations (AsyncSpec::slowdown): `max_rounds` when
/// set, else default_round_limit(tree) * slowdown when slowdown > 1,
/// else 0 (the engine's default). Requires the product to fit int64.
std::int64_t scaled_round_limit(const Tree& tree, std::int64_t max_rounds,
                                std::int64_t slowdown);

/// Theorem 1 right-hand side: 2n/k + D^2 (min(log k, log Delta) + 3).
double theorem1_bound(std::int64_t n, std::int32_t depth,
                      std::int32_t max_degree, std::int32_t k);

/// Lemma 2 right-hand side: k (min(log k, log Delta) + 3).
double lemma2_bound(std::int32_t k, std::int32_t max_degree);

/// Offline lower bound, stated in the paper as max(2n/k, 2D): every
/// edge is crossed in both directions and some robot must reach the
/// deepest node and come home. The exact edge count is n - 1, so we
/// use max(2(n-1)/k, 2D) — a single-robot DFS achieves exactly 2(n-1).
double offline_lower_bound(std::int64_t n, std::int32_t depth,
                           std::int32_t k);

}  // namespace bfdn
