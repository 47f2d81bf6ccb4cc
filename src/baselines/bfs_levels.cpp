#include "baselines/bfs_levels.h"

#include <algorithm>

#include "support/check.h"

namespace bfdn {

BfsLevelsAlgorithm::BfsLevelsAlgorithm(std::int32_t num_robots)
    : num_robots_(num_robots),
      phases_(static_cast<std::size_t>(num_robots), Phase::kIdle),
      targets_(static_cast<std::size_t>(num_robots), kInvalidNode) {
  BFDN_REQUIRE(num_robots >= 1, "need at least one robot");
}

void BfsLevelsAlgorithm::begin(const ExplorationView&) {
  std::fill(phases_.begin(), phases_.end(), Phase::kIdle);
  std::fill(targets_.begin(), targets_.end(), kInvalidNode);
}

void BfsLevelsAlgorithm::select_moves(const ExplorationView& view,
                                      MoveSelector& selector) {
  // The working level is stable for the whole selection phase (no
  // commit happens inside select_moves), so fetch it once per round.
  const bool complete = view.exploration_complete();
  const std::vector<NodeId>& level =
      complete ? view.open_nodes_at_depth(0)
               : view.open_nodes_at_depth(view.min_open_depth());
  for (std::int32_t i = 0; i < num_robots_; ++i) {
    if (!view.can_move(i)) continue;
    const std::size_t idx = static_cast<std::size_t>(i);
    const NodeId pos = view.robot_pos(i);

    if (phases_[idx] == Phase::kHome && pos == view.root()) {
      phases_[idx] = Phase::kIdle;
      targets_[idx] = kInvalidNode;
    }

    if (phases_[idx] == Phase::kIdle) {
      if (complete) continue;  // stay at the root
      // Assign an open node at the working (minimum open) depth with
      // the fewest robots already heading for it; ties break towards
      // the smallest node id (the bucket is unsorted).
      BFDN_CHECK(!level.empty(), "open depth with no open node");
      NodeId best = kInvalidNode;
      std::int32_t best_load = 0;
      for (const NodeId candidate : level) {
        std::int32_t load = 0;
        for (std::int32_t j = 0; j < num_robots_; ++j) {
          if (targets_[static_cast<std::size_t>(j)] == candidate) ++load;
        }
        if (best == kInvalidNode || load < best_load ||
            (load == best_load && candidate < best)) {
          best = candidate;
          best_load = load;
        }
      }
      targets_[idx] = best;
      phases_[idx] = Phase::kOutbound;
    }

    if (phases_[idx] == Phase::kOutbound) {
      if (pos == targets_[idx]) {
        phases_[idx] = Phase::kProbe;
      } else {
        selector.move_down(i, view.child_toward(pos, targets_[idx]));
        continue;
      }
    }

    if (phases_[idx] == Phase::kProbe) {
      // One discovery, then straight home (also home if other waves
      // finished this node first).
      phases_[idx] = Phase::kHome;
      if (selector.try_take_dangling(i) != kInvalidNode) continue;
      selector.move_up(i);
      continue;
    }

    // Phase::kHome, above the root.
    selector.move_up(i);
  }
}

double bfs_levels_cost_model(std::int64_t n, std::int32_t depth,
                             std::int32_t k) {
  return static_cast<double>(depth) * static_cast<double>(depth) +
         static_cast<double>(n) * static_cast<double>(depth) /
             static_cast<double>(k);
}

}  // namespace bfdn
