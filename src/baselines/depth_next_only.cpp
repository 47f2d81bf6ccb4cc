#include "baselines/depth_next_only.h"

#include "support/check.h"

namespace bfdn {

DepthNextOnlyAlgorithm::DepthNextOnlyAlgorithm(std::int32_t num_robots)
    : num_robots_(num_robots) {
  BFDN_REQUIRE(num_robots >= 1, "need at least one robot");
}

void DepthNextOnlyAlgorithm::select_moves(const ExplorationView& view,
                                          MoveSelector& selector) {
  for (std::int32_t i = 0; i < num_robots_; ++i) {
    if (!view.can_move(i)) continue;
    select_one(view, selector, i);
  }
}

void DepthNextOnlyAlgorithm::select_one(const ExplorationView& /*view*/,
                                        MoveSelector& selector,
                                        std::int32_t i) {
  if (selector.try_take_dangling(i) == kInvalidNode) {
    selector.move_up(i);  // at the root this is ⊥
  }
}

TransitCapability DepthNextOnlyAlgorithm::transit_capability() const {
  return TransitCapability::kCommittedSegments;
}

void DepthNextOnlyAlgorithm::select_moves_subset(
    const ExplorationView& view, MoveSelector& selector,
    const std::vector<std::int32_t>& robots) {
  for (std::int32_t i : robots) select_one(view, selector, i);
}

void DepthNextOnlyAlgorithm::plan_transit(const ExplorationView& view,
                                          std::int32_t robot,
                                          TransitPlan& plan) {
  const NodeId pos = view.robot_pos(robot);
  if (view.has_unexplored_child_edge(pos)) {
    // Next selection is a try_take_dangling that competes with other
    // robots' reservations — an event.
    plan.kind = TransitPlan::Kind::kEvent;
    return;
  }
  if (pos == view.root()) {
    // No dangling edge at the root and dangling counts only decrease:
    // the robot selects ⊥ in every remaining round.
    plan.kind = TransitPlan::Kind::kStayForever;
    return;
  }
  // Committed return climb, exactly as in BfdnAlgorithm::plan_transit:
  // up to the first ancestor that still has an unexplored child edge
  // (arrival is an event; the take may still lose to a rival and fall
  // back to another climb) or to the root.
  plan.kind = TransitPlan::Kind::kWalk;
  plan.target = view.nearest_open_ancestor(pos);
  plan.steps = view.depth(pos) - view.depth(plan.target);
}

}  // namespace bfdn
