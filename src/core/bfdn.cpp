#include "core/bfdn.h"

#include <algorithm>
#include <limits>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn {

BfdnAlgorithm::BfdnAlgorithm(std::int32_t num_robots, BfdnOptions options)
    : num_robots_(num_robots),
      options_(options),
      rng_(options.seed),
      anchors_(static_cast<std::size_t>(num_robots), kInvalidNode),
      modes_(static_cast<std::size_t>(num_robots), Mode::kExploring),
      inactive_(static_cast<std::size_t>(num_robots), 0) {
  BFDN_REQUIRE(num_robots >= 1, "need at least one robot");
}

std::string BfdnAlgorithm::name() const {
  std::string out;
  name_of(options_, out);
  return out;
}

void BfdnAlgorithm::name_of(const BfdnOptions& options, std::string& out) {
  const char* policy = "least-loaded";
  switch (options.policy) {
    case ReanchorPolicy::kLeastLoaded: policy = "least-loaded"; break;
    case ReanchorPolicy::kRandom: policy = "random"; break;
    case ReanchorPolicy::kFirstFit: policy = "first-fit"; break;
    case ReanchorPolicy::kMostLoaded: policy = "most-loaded"; break;
  }
  if (options.depth_cap >= 0) {
    out += "BFDN_1(d=";
    append_int(out, options.depth_cap);
    out += ", ";
  } else {
    out += "BFDN(";
  }
  out += policy;
  if (options.shortcut_reanchor) out += "+shortcut";
  out += ')';
}

void BfdnAlgorithm::begin(const ExplorationView& view) {
  // "v_i <- root for all i" (line 2).
  std::fill(anchors_.begin(), anchors_.end(), view.root());
  std::fill(modes_.begin(), modes_.end(), Mode::kExploring);
  std::fill(inactive_.begin(), inactive_.end(), 0);
  anchor_load_.assign(static_cast<std::size_t>(view.root()) + 1, 0);
  anchor_load_[static_cast<std::size_t>(view.root())] = num_robots_;
}

void BfdnAlgorithm::set_anchor(std::size_t robot, NodeId v) {
  const NodeId old = anchors_[robot];
  if (old == v) return;
  if (old != kInvalidNode) {
    --anchor_load_[static_cast<std::size_t>(old)];
  }
  if (static_cast<std::size_t>(v) >= anchor_load_.size()) {
    anchor_load_.resize(static_cast<std::size_t>(v) + 1, 0);
  }
  // The injected fault (verification-harness demo) leaks the increment
  // on odd-id anchors, under-reporting n_v on nodes that are still open
  // and competed for; see BfdnOptions::fault_load_leak.
  if (!options_.fault_load_leak || v % 2 == 0) {
    ++anchor_load_[static_cast<std::size_t>(v)];
  }
  anchors_[robot] = v;
}

std::int32_t BfdnAlgorithm::load_of(NodeId v) const {
  if (options_.reference_loads) {
    // Slow reference: n_v recomputed from first principles every query.
    std::int32_t count = 0;
    for (const NodeId a : anchors_) count += a == v ? 1 : 0;
    return count;
  }
  const auto idx = static_cast<std::size_t>(v);
  return idx < anchor_load_.size() ? anchor_load_[idx] : 0;
}

NodeId BfdnAlgorithm::reanchor(const ExplorationView& view,
                               std::int32_t /*robot*/) {
  if (view.exploration_complete()) return kInvalidNode;
  const std::int32_t d = view.min_open_depth();
  if (options_.depth_cap >= 0 && d > options_.depth_cap) {
    return kInvalidNode;  // BFDN_1(k, k, d): nothing shallow left to do
  }
  const std::vector<NodeId>& candidates = view.open_nodes_at_depth(d);
  BFDN_CHECK(!candidates.empty(), "open depth with no open node");

  // The bucket is unsorted; all policies tie-break on the smallest node
  // id so the choice matches a scan of the candidates in id order.
  switch (options_.policy) {
    case ReanchorPolicy::kLeastLoaded: {
      NodeId best = candidates.front();
      std::int32_t best_load = load_of(best);
      for (NodeId v : candidates) {
        const std::int32_t load = load_of(v);
        if (load < best_load || (load == best_load && v < best)) {
          best = v;
          best_load = load;
        }
      }
      return best;
    }
    case ReanchorPolicy::kMostLoaded: {
      NodeId best = candidates.front();
      std::int32_t best_load = load_of(best);
      for (NodeId v : candidates) {
        const std::int32_t load = load_of(v);
        if (load > best_load || (load == best_load && v < best)) {
          best = v;
          best_load = load;
        }
      }
      return best;
    }
    case ReanchorPolicy::kFirstFit:
      return *std::min_element(candidates.begin(), candidates.end());
    case ReanchorPolicy::kRandom: {
      // r-th smallest id, to match drawing from an id-sorted list.
      const auto r = static_cast<std::ptrdiff_t>(
          rng_.next_below(candidates.size()));
      random_scratch_.assign(candidates.begin(), candidates.end());
      std::nth_element(random_scratch_.begin(), random_scratch_.begin() + r,
                       random_scratch_.end());
      return random_scratch_[static_cast<std::size_t>(r)];
    }
  }
  BFDN_CHECK(false, "unreachable reanchor policy");
  return kInvalidNode;
}

void BfdnAlgorithm::select_moves(const ExplorationView& view,
                                 MoveSelector& selector) {
  for (std::int32_t i = 0; i < num_robots_; ++i) {
    // Section 4.2 variant: blocked robots take no part in the
    // sequential assignment (so they cannot hoard dangling edges).
    if (!view.can_move(i)) continue;
    select_one(view, selector, i);
  }
}

void BfdnAlgorithm::select_moves_subset(
    const ExplorationView& view, MoveSelector& selector,
    const std::vector<std::int32_t>& robots) {
  // The engine lists only movable robots (under a break-down schedule
  // the stepped loop's batch is the movable set); the index-order walk
  // keeps Claim 2's reservation order.
  for (std::int32_t i : robots) select_one(view, selector, i);
}

void BfdnAlgorithm::select_one(const ExplorationView& view,
                               MoveSelector& selector, std::int32_t i) {
  const std::size_t idx = static_cast<std::size_t>(i);
  const NodeId pos = view.robot_pos(i);

  if (pos == view.root()) {
    const NodeId anchor = reanchor(view, i);
    if (anchor == kInvalidNode) {
      set_anchor(idx, view.root());
      modes_[idx] = Mode::kExploring;
      inactive_[idx] = 1;
    } else {
      const NodeId previous = anchors_[idx];
      set_anchor(idx, anchor);
      modes_[idx] = Mode::kOutbound;
      inactive_[idx] = 0;
      selector.note_reanchor(view.depth(anchor));
      if (previous != anchor) {
        selector.note_reanchor_switch(view.depth(anchor));
      }
    }
  }

  if (modes_[idx] == Mode::kOutbound) {
    if (pos == anchors_[idx]) {
      modes_[idx] = Mode::kExploring;  // arrived; fall into DN below
    } else if (view.is_ancestor_or_self(pos, anchors_[idx])) {
      // Procedure BF: one explored edge down towards the anchor.
      selector.move_down(i, view.child_toward(pos, anchors_[idx]));
      return;
    } else {
      // Only reachable in the shortcut ablation: climb to the LCA
      // first, then the ancestor branch above descends.
      selector.move_up(i);
      return;
    }
  }

  // Procedure DN: dangling-and-unselected edge if any, else up.
  if (selector.try_take_dangling(i) != kInvalidNode) return;
  if (options_.shortcut_reanchor && pos == anchors_[idx] &&
      pos != view.root()) {
    // Excursion over (about to leave T(anchor) upwards): re-anchor
    // from here and take the shortest explored path instead of
    // returning to the root first.
    const NodeId anchor = reanchor(view, i);
    if (anchor != kInvalidNode && anchor != pos) {
      const NodeId previous = anchors_[idx];
      set_anchor(idx, anchor);
      modes_[idx] = Mode::kOutbound;
      inactive_[idx] = 0;
      selector.note_reanchor(view.depth(anchor));
      if (previous != anchor) {
        selector.note_reanchor_switch(view.depth(anchor));
      }
      if (view.is_ancestor_or_self(pos, anchor)) {
        selector.move_down(i, view.child_toward(pos, anchor));
      } else {
        selector.move_up(i);
      }
      return;
    }
    // Nothing open anywhere: fall through and climb home.
  }
  selector.move_up(i);
}

ActivationGranularity BfdnAlgorithm::activation_granularity() const {
  return ActivationGranularity::kAsyncSafe;
}

TransitCapability BfdnAlgorithm::transit_capability() const {
  // The shortcut ablation re-anchors the moment an excursion ends —
  // i.e. in the middle of what the planner below would commit as an
  // uninterrupted return climb — so it cannot expose segments.
  return options_.shortcut_reanchor ? TransitCapability::kStepOnly
                                    : TransitCapability::kCommittedSegments;
}

void BfdnAlgorithm::plan_transit(const ExplorationView& view,
                                 std::int32_t robot, TransitPlan& plan) {
  const std::size_t idx = static_cast<std::size_t>(robot);
  const NodeId pos = view.robot_pos(robot);

  if (inactive_[idx] != 0) {
    // Depth-cap parking (BFDN_1's "inactive" robots): reanchor returned
    // kInvalidNode because min_open_depth exceeded the cap (or nothing
    // is open), and min_open_depth never decreases — dangling counts
    // only shrink and a newly opened node is a child of a node that was
    // already open — so every future reanchor fails too and the robot
    // selects ⊥ forever.
    plan.kind = TransitPlan::Kind::kStayForever;
    return;
  }
  if (pos == view.root()) {
    // Next selection is a Reanchor decision — by definition an event.
    plan.kind = TransitPlan::Kind::kEvent;
    return;
  }
  if (modes_[idx] == Mode::kOutbound) {
    const NodeId anchor = anchors_[idx];
    if (!view.is_ancestor_or_self(pos, anchor)) {
      plan.kind = TransitPlan::Kind::kEvent;  // shortcut-only climb;
      return;                                 // unreachable (step-only)
    }
    // Procedure BF, whole descent: the root -> anchor path is committed
    // at reanchor time and consists of explored edges only, so no
    // concurrent discovery can change any step of it. Arrival at the
    // anchor (possibly zero steps away) is the event: the first DN
    // decision reads the anchor's live dangling state.
    plan.kind = TransitPlan::Kind::kWalk;
    plan.target = anchor;
    plan.steps = view.depth(anchor) - view.depth(pos);
    return;
  }
  // Procedure DN. A node with an unexplored child edge means the next
  // selection is a try_take_dangling that may win or lose against other
  // robots' reservations — an event.
  if (view.has_unexplored_child_edge(pos)) {
    plan.kind = TransitPlan::Kind::kEvent;
    return;
  }
  // Return climb: DN moves up until the first ancestor that still has
  // an unexplored child edge (or the root, where Reanchor runs).
  // Committed because dangling counts only decrease: an ancestor with
  // none now has none when the robot passes it. An ancestor that HAS
  // one now may lose it before arrival — arrival is therefore an event
  // round running the real try_take_dangling, which falls back to
  // another up-move if the edges are gone.
  plan.kind = TransitPlan::Kind::kWalk;
  plan.target = view.nearest_open_ancestor(pos);
  plan.steps = view.depth(pos) - view.depth(plan.target);
}

std::vector<NodeId> BfdnAlgorithm::anchors() const { return anchors_; }

std::int32_t BfdnAlgorithm::num_inactive() const {
  std::int32_t count = 0;
  for (char flag : inactive_) count += flag;
  return count;
}

}  // namespace bfdn
