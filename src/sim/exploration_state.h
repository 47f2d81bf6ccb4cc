// Partially explored tree — the online information state of Section 2.
//
// The hidden ground-truth Tree lives in the engine; algorithms interact
// only with ExplorationView, which exposes exactly what the paper's
// model reveals: explored nodes, discovered edges (including dangling
// ones), node depths within the discovered tree, and robot positions.
//
// Edge identity. In a tree every non-root node c corresponds to the
// unique edge (parent(c), c); we therefore key edges by the child's
// NodeId. For a *dangling* edge the child id acts as an opaque
// reservation token: algorithms never learn anything about the subtree
// behind it until a robot traverses the edge (the view offers no
// accessor on unexplored nodes, and dangling edges at a node are handed
// out one at a time by the reservation API).
//
// Hot-path layout. Everything the per-round loop touches is flat and
// incrementally maintained, so a steady-state round allocates nothing:
//  * open nodes live in depth-indexed buckets (vector-of-vectors with a
//    per-node in-bucket position index for O(1) insert and swap-remove)
//    behind a cached min-open-depth cursor;
//  * dangling edges live in one CSR-shaped pool sliced per node — a
//    prefix of each node's child list is "unreserved", reserve/release
//    move the slice boundary.
// Accessors hand out const references into the buckets instead of
// copies; see the invalidation contract on open_nodes_at_depth.
//
// Committed walks. Two path-compressed skip arrays make a whole
// monotone walk cost near-O(1) amortized instead of O(length): one
// skips runs of edges already traversed upwards (record_climb), the
// other skips runs of closed nodes (nearest_open_ancestor). Both only
// ever link a node to an ancestor, and both properties they skip are
// monotone (a traversed edge stays traversed, a closed node stays
// closed), so a link never goes stale.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/tree.h"
#include "support/check.h"

namespace bfdn {

class ExplorationState {
 public:
  ExplorationState(const Tree& tree, std::int32_t num_robots);

  const Tree& tree() const { return tree_; }
  std::int32_t num_robots() const { return num_robots_; }

  // --- robot positions -----------------------------------------------
  NodeId robot_pos(std::int32_t robot) const {
    BFDN_REQUIRE(robot >= 0 && robot < num_robots_, "robot index");
    return robot_pos_[static_cast<std::size_t>(robot)];
  }
  void set_robot_pos(std::int32_t robot, NodeId v) {
    BFDN_REQUIRE(robot >= 0 && robot < num_robots_, "robot index");
    robot_pos_[static_cast<std::size_t>(robot)] = v;
  }

  // --- per-robot virtual clocks ----------------------------------------
  /// Number of activations this robot has received so far. Under the
  /// synchronous model every robot's clock equals the round counter; an
  /// AsyncScheduler makes them diverge. Clocks are *derived* scheduling
  /// metadata, not observable exploration state, so they do NOT enter
  /// state_hash(): two executions reaching the same configuration at
  /// different robot speeds hash equal. The async fast-forward sets a
  /// robot's clock only when it selects, so there the clock is exact
  /// only while the robot selects.
  std::int64_t robot_clock(std::int32_t robot) const;
  /// Sets one robot's clock (async engines).
  void set_robot_clock(std::int32_t robot, std::int64_t t);
  /// Sets every robot's clock at once, O(1) (sync/fast-forward engines:
  /// all clocks tick together). A later set_robot_clock overrides the
  /// base for that robot only.
  void set_clock_base(std::int64_t t);

  // --- explored / dangling bookkeeping --------------------------------
  bool is_explored(NodeId v) const {
    BFDN_REQUIRE(v >= 0 && v < tree_.num_nodes(), "node id");
    return explored_[static_cast<std::size_t>(v)] != 0;
  }
  /// Number of incident child edges of u not yet traversed (dangling,
  /// whether or not currently reserved for this round).
  std::int32_t num_unexplored_child_edges(NodeId u) const;
  /// Number of dangling edges at u available for reservation right now.
  std::int32_t num_unreserved_dangling(NodeId u) const;

  /// Reserves one dangling edge at u for this round; returns the hidden
  /// child id (opaque token). Requires num_unreserved_dangling(u) > 0.
  NodeId reserve_dangling(NodeId u);
  /// Returns a reserved edge to the pool (robot was blocked).
  void release_dangling(NodeId u, NodeId child);
  /// Commits a reserved edge: the robot moved through it; the child
  /// becomes explored and its own child edges become dangling.
  void commit_dangling(NodeId u, NodeId child);

  // --- open nodes (adjacent to >= 1 unexplored edge) -------------------
  bool exploration_complete() const { return num_open_ == 0; }
  /// Depth of the shallowest open node; requires !exploration_complete().
  /// O(1): the cursor is maintained incrementally.
  std::int32_t min_open_depth() const;
  /// Open nodes at exactly the given depth (may be empty). Zero-copy:
  /// the reference stays valid — and its contents stable — across
  /// reserve/release calls, but is INVALIDATED by commit_dangling
  /// (which mutates the buckets). Bucket order is maintenance order,
  /// not sorted; consumers needing a canonical order must impose their
  /// own tie-breaks (see BfdnAlgorithm::reanchor).
  const std::vector<NodeId>& open_nodes_at_depth(std::int32_t depth) const;
  /// Largest depth that could hold an open node (== tree depth); for
  /// bucket scans of the form [min_open_depth() .. max_open_depth()].
  std::int32_t max_open_depth() const {
    return static_cast<std::int32_t>(open_buckets_.size()) - 1;
  }
  /// All open nodes, ascending depth (bucket order within a depth).
  /// Allocates; for tests and invariant checkers, not the round loop.
  std::vector<NodeId> open_nodes() const;
  std::int64_t num_open_nodes() const { return num_open_; }

  // --- edge-event accounting (Section 5) -------------------------------
  /// Marks a traversal of edge (parent(v), v) in the given direction;
  /// returns true iff this is the first traversal in that direction
  /// (an "edge event").
  bool record_traversal(NodeId child, bool downward);
  /// Marks the upward traversal of every edge on the path from `from`
  /// up to its ancestor-or-self `to`, exactly as record_traversal(v,
  /// false) for each node v on it below `to` would. Near-O(1)
  /// amortized: edges already traversed upwards are skipped in runs, so
  /// each edge is flagged once per run and then skipped.
  void record_climb(NodeId from, NodeId to);
  std::int64_t edge_events() const { return edge_events_; }

  /// First proper ancestor of the explored non-root node v that still
  /// has an unexplored child edge, or the root if there is none: the
  /// end of a depth-next return climb from v. Near-O(1) amortized
  /// (closed nodes are skipped in runs; a closed node stays closed).
  NodeId nearest_open_ancestor(NodeId v) const;

  std::int64_t num_explored_nodes() const { return num_explored_; }

  /// 64-bit digest of the observable exploration state: robot positions,
  /// the explored set, per-node unexplored-edge counts and the
  /// first-traversal flags. Independent of internal layout (bucket
  /// order, pool slicing), so two states that evolved through the same
  /// decisions hash equal even across representation refactors. O(n);
  /// for the trace record/replay harness (src/verify), not the round
  /// loop.
  std::uint64_t state_hash() const;

 private:
  void mark_open(NodeId u);
  void mark_closed(NodeId u);
  /// Representative of v in a skip array: follows links to the first
  /// self-linked node, halving the path on the way.
  static NodeId find_skip(std::vector<NodeId>& skip, NodeId v);

  const Tree& tree_;
  std::int32_t num_robots_;
  std::vector<NodeId> robot_pos_;
  // Per-robot virtual clocks. robot_clock(i) = max(clock_base_,
  // robot_clock_[i]); the base lets the synchronous engines advance all
  // k clocks in O(1) per round.
  std::vector<std::int64_t> robot_clock_;
  std::int64_t clock_base_ = 0;
  std::vector<char> explored_;
  // Dangling pool, CSR-shaped: slots [dangling_offset_[u],
  // dangling_offset_[u] + dangling_count_[u]) hold u's unreserved
  // dangling children. Initialized once to the tree's child lists; a
  // node's slice is pristine until the node is explored.
  std::vector<std::int64_t> dangling_offset_;
  std::vector<NodeId> dangling_pool_;
  std::vector<std::int32_t> dangling_count_;
  // Per node: count of dangling edges reserved this round.
  std::vector<std::int32_t> reserved_;
  // Open nodes in depth-indexed flat buckets (index 0..tree depth),
  // each pre-reserved to the number of tree nodes at that depth so
  // discovery never reallocates. open_pos_[v] is v's index inside its
  // bucket, -1 when v is not open.
  std::vector<std::vector<NodeId>> open_buckets_;
  std::vector<std::int32_t> open_pos_;
  std::int64_t num_open_ = 0;
  // Cached cursor: depth of the shallowest open node; == bucket count
  // (sentinel) when no node is open.
  std::int32_t min_open_depth_ = 0;
  // Per edge (keyed by child id): first-traversal flags down/up.
  std::vector<char> traversed_down_;
  std::vector<char> traversed_up_;
  // up_skip_[v]: v itself while edge (parent(v), v) is untraversed
  // upwards (and for the root), else an ancestor u such that every
  // edge from v up to u has been traversed upwards.
  std::vector<NodeId> up_skip_;
  // open_skip_[v]: v itself unless v is an explored non-root node with
  // no unexplored child edge, else an ancestor u such that every node
  // from v up to (excluding) u is closed. Path compression in the const
  // query nearest_open_ancestor only shortens links; it changes no
  // observable state, but two threads must not query one state at once.
  mutable std::vector<NodeId> open_skip_;
  std::int64_t edge_events_ = 0;
  std::int64_t num_explored_ = 0;
};

/// Read-only facade handed to algorithms. Exposes only model-legal
/// information (no subtree sizes, no unexplored structure).
class ExplorationView {
 public:
  ExplorationView(const ExplorationState& state,
                  const std::vector<char>& movable)
      : state_(state), movable_(movable) {}

  std::int32_t num_robots() const { return state_.num_robots(); }
  NodeId root() const { return state_.tree().root(); }
  NodeId robot_pos(std::int32_t robot) const {
    return state_.robot_pos(robot);
  }
  /// This robot's virtual clock: how many activations it has received.
  /// Synchronously all clocks agree with the round counter; see
  /// docs/MODEL.md "Per-robot clocks".
  std::int64_t robot_clock(std::int32_t robot) const {
    return state_.robot_clock(robot);
  }
  /// Whether the adversary allows this robot to move this round
  /// (always true outside the break-down setting of Section 4.2).
  bool can_move(std::int32_t robot) const;

  bool is_explored(NodeId v) const { return state_.is_explored(v); }
  /// Depth of an *explored* node in the discovered tree (== true depth).
  std::int32_t depth(NodeId v) const;
  /// Parent of an explored non-root node in the discovered tree.
  NodeId parent(NodeId v) const;
  /// Explored children of an explored node (traversed edges only).
  /// Allocates; hot paths should use for_each_explored_child.
  std::vector<NodeId> explored_children(NodeId v) const;
  /// Allocation-free iteration over the explored children of an
  /// explored node, in child order.
  template <typename Fn>
  void for_each_explored_child(NodeId v, Fn&& fn) const {
    BFDN_REQUIRE(state_.is_explored(v), "children of unexplored node");
    for (NodeId c : state_.tree().children(v)) {
      if (state_.is_explored(c)) fn(c);
    }
  }

  bool has_unexplored_child_edge(NodeId u) const {
    return state_.num_unexplored_child_edges(u) > 0;
  }
  std::int32_t num_unexplored_child_edges(NodeId u) const {
    return state_.num_unexplored_child_edges(u);
  }
  bool has_unreserved_dangling(NodeId u) const {
    return state_.num_unreserved_dangling(u) > 0;
  }
  std::int32_t num_unreserved_dangling(NodeId u) const {
    return state_.num_unreserved_dangling(u);
  }

  bool exploration_complete() const { return state_.exploration_complete(); }
  std::int32_t min_open_depth() const { return state_.min_open_depth(); }
  /// Zero-copy; same reference-invalidation contract as
  /// ExplorationState::open_nodes_at_depth. Within one select_moves
  /// call no commit happens, so the reference is stable for the whole
  /// round's selection phase.
  const std::vector<NodeId>& open_nodes_at_depth(std::int32_t d) const {
    return state_.open_nodes_at_depth(d);
  }
  std::int32_t max_open_depth() const { return state_.max_open_depth(); }
  std::vector<NodeId> open_nodes() const { return state_.open_nodes(); }
  std::int64_t num_open_nodes() const { return state_.num_open_nodes(); }

  /// Path root -> v (inclusive) within the discovered tree. Allocates;
  /// hot paths should use ancestor_at_depth for single steps.
  std::vector<NodeId> path_from_root(NodeId v) const;

  /// Ancestor relation within the discovered tree (both explored).
  bool is_ancestor_or_self(NodeId a, NodeId b) const;
  /// Ancestor of v at the given depth (<= depth(v)), both explored.
  /// Allocation-free, O(depth(v) - target_depth).
  NodeId ancestor_at_depth(NodeId v, std::int32_t target_depth) const;
  /// The next step down from a towards its explored proper descendant
  /// b (the BF step towards an anchor). O(log deg(a)); see
  /// Tree::child_toward.
  NodeId child_toward(NodeId a, NodeId b) const;
  /// End of a depth-next return climb from the explored non-root node
  /// v; see ExplorationState::nearest_open_ancestor.
  NodeId nearest_open_ancestor(NodeId v) const {
    return state_.nearest_open_ancestor(v);
  }

 private:
  const ExplorationState& state_;
  const std::vector<char>& movable_;
};

}  // namespace bfdn
