#include <gtest/gtest.h>

#include <cmath>

#include "baselines/depth_next_only.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/exploration_state.h"
#include "support/check.h"
#include "support/rng.h"

namespace bfdn {
namespace {

TEST(ExplorationStateTest, InitialStateExposesRootDangling) {
  const Tree t = make_star(5);
  ExplorationState s(t, 2);
  EXPECT_TRUE(s.is_explored(0));
  EXPECT_FALSE(s.is_explored(1));
  EXPECT_EQ(s.num_unexplored_child_edges(0), 4);
  EXPECT_EQ(s.num_unreserved_dangling(0), 4);
  EXPECT_FALSE(s.exploration_complete());
  EXPECT_EQ(s.min_open_depth(), 0);
  EXPECT_EQ(s.robot_pos(0), 0);
}

TEST(ExplorationStateTest, ReserveCommitLifecycle) {
  const Tree t = make_path(4);
  ExplorationState s(t, 1);
  const NodeId c = s.reserve_dangling(0);
  EXPECT_EQ(s.num_unreserved_dangling(0), 0);
  EXPECT_EQ(s.num_unexplored_child_edges(0), 1);  // reserved still counts
  s.commit_dangling(0, c);
  EXPECT_TRUE(s.is_explored(c));
  EXPECT_EQ(s.num_unexplored_child_edges(0), 0);
  EXPECT_EQ(s.min_open_depth(), 1);  // the new node has a dangling child
  EXPECT_EQ(s.num_explored_nodes(), 2);
}

TEST(ExplorationStateTest, ReleaseReturnsEdgeToPool) {
  const Tree t = make_star(3);
  ExplorationState s(t, 1);
  const NodeId c = s.reserve_dangling(0);
  s.release_dangling(0, c);
  EXPECT_EQ(s.num_unreserved_dangling(0), 2);
}

TEST(ExplorationStateTest, OpenNodesTrackDepths) {
  const Tree t = make_comb(3, 2);  // spine 0-1-2 with teeth
  ExplorationState s(t, 1);
  EXPECT_EQ(s.open_nodes_at_depth(0), (std::vector<NodeId>{0}));
  EXPECT_TRUE(s.open_nodes_at_depth(3).empty());
  EXPECT_EQ(s.num_open_nodes(), 1);
}

TEST(ExplorationStateTest, EdgeEventsCountBothDirectionsOnce) {
  const Tree t = make_path(3);
  ExplorationState s(t, 1);
  EXPECT_TRUE(s.record_traversal(1, true));
  EXPECT_FALSE(s.record_traversal(1, true));
  EXPECT_TRUE(s.record_traversal(1, false));
  EXPECT_EQ(s.edge_events(), 2);
}

TEST(ExplorationStateTest, ReserveOnEmptyPoolThrows) {
  const Tree t = make_path(2);
  ExplorationState s(t, 1);
  (void)s.reserve_dangling(0);
  EXPECT_THROW(s.reserve_dangling(0), CheckError);
}

/// Linear-scan reference for nearest_open_ancestor: climb until a node
/// with an unexplored child edge, or the root.
NodeId naive_open_ancestor(const ExplorationState& s, NodeId v) {
  NodeId cur = s.tree().parent(v);
  while (cur != s.tree().root() &&
         s.num_unexplored_child_edges(cur) == 0) {
    cur = s.tree().parent(cur);
  }
  return cur;
}

/// Drives `fast` (record_climb, nearest_open_ancestor) and `slow`
/// (per-edge record_traversal, linear scans) through the same random
/// exploration and climb order on `t`, checking after every step that
/// flags, edge events and state hashes agree.
void expect_walk_primitives_match_reference(const Tree& t,
                                            std::uint64_t seed) {
  ExplorationState fast(t, 1);
  ExplorationState slow(t, 1);
  Rng rng(seed);
  std::vector<NodeId> explored{t.root()};
  const auto pick = [&rng](const std::vector<NodeId>& from) {
    return from[static_cast<std::size_t>(rng.next_below(from.size()))];
  };
  while (!fast.exploration_complete()) {
    // Discover one edge at a random open node, identically in both.
    const NodeId u = pick(fast.open_nodes());
    const NodeId child = fast.reserve_dangling(u);
    ASSERT_EQ(slow.reserve_dangling(u), child);
    for (ExplorationState* s : {&fast, &slow}) {
      s->commit_dangling(u, child);
      s->record_traversal(child, /*downward=*/true);
    }
    explored.push_back(child);

    // Climbs from random explored nodes to random ancestors; one in
    // three goes edge by edge in both states, so record_climb also
    // skips edges that per-edge traversals marked.
    for (int j = 0; j < 3; ++j) {
      const NodeId from = pick(explored);
      NodeId to = from;
      for (std::uint64_t up = rng.next_below(
               static_cast<std::uint64_t>(t.depth(from)) + 1);
           up > 0; --up) {
        to = t.parent(to);
      }
      const bool per_edge = rng.next_below(3) == 0;
      for (NodeId v = from; v != to; v = t.parent(v)) {
        slow.record_traversal(v, /*downward=*/false);
        if (per_edge) fast.record_traversal(v, /*downward=*/false);
      }
      if (!per_edge) fast.record_climb(from, to);
      ASSERT_EQ(fast.edge_events(), slow.edge_events())
          << t.summary() << " " << from << "->" << to;
    }
    ASSERT_EQ(fast.state_hash(), slow.state_hash()) << t.summary();

    for (const NodeId v : explored) {
      if (v == t.root()) continue;
      ASSERT_EQ(fast.nearest_open_ancestor(v), naive_open_ancestor(slow, v))
          << t.summary() << " v=" << v;
    }
  }
  // Finish with a full climb home from every explored node: every
  // edge's up flag is then set, exactly as the reference's.
  for (const NodeId v : explored) {
    fast.record_climb(v, t.root());
    for (NodeId w = v; w != t.root(); w = t.parent(w)) {
      slow.record_traversal(w, /*downward=*/false);
    }
  }
  EXPECT_EQ(fast.edge_events(), 2 * t.num_edges());
  EXPECT_EQ(fast.edge_events(), slow.edge_events());
  EXPECT_EQ(fast.state_hash(), slow.state_hash());
}

TEST(ExplorationStateTest, WalkPrimitivesMatchPerEdgeReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 101);
    const Tree trees[] = {make_caterpillar(60, 3),
                          make_spider(6, 25),
                          make_path(90),
                          make_comb(12, 8),
                          make_random_recursive(200, rng),
                          make_random_leafy(200, 4, rng),
                          make_tree_with_depth(200, 20, rng)};
    for (const Tree& t : trees) {
      SCOPED_TRACE(testing::Message() << t.summary() << " seed=" << seed);
      expect_walk_primitives_match_reference(t, seed);
    }
  }
}

TEST(ExplorationStateTest, WalkPrimitivesRejectBadArguments) {
  const Tree t = make_path(4);
  ExplorationState s(t, 1);
  EXPECT_THROW(s.record_climb(0, 2), CheckError);  // 2 is below 0
  EXPECT_THROW(s.nearest_open_ancestor(t.root()), CheckError);
  EXPECT_THROW(s.nearest_open_ancestor(2), CheckError);  // unexplored
  s.record_climb(3, 3);
  EXPECT_EQ(s.edge_events(), 0);
  s.record_climb(3, 1);
  EXPECT_EQ(s.edge_events(), 2);
  s.record_climb(3, 0);
  EXPECT_EQ(s.edge_events(), 3);  // only edge (0, 1) was new
}

TEST(EngineTest, SingleRobotDnIsOnlineDfs) {
  // One DN-only robot is exactly the online DFS of the introduction:
  // 2(n-1) rounds, back at the root.
  for (std::int64_t n : {2, 5, 17, 64}) {
    const Tree t = make_path(n);
    DepthNextOnlyAlgorithm algo(1);
    RunConfig config;
    config.num_robots = 1;
    const RunResult result = run_exploration(t, algo, config);
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.all_at_root);
    EXPECT_EQ(result.rounds, 2 * (n - 1));
    EXPECT_EQ(result.edge_events, 2 * (n - 1));
  }
}

TEST(EngineTest, SingleRobotDfsOnGeneralTrees) {
  const auto zoo = make_tree_zoo(128, 1234);
  for (const auto& [name, tree] : zoo) {
    DepthNextOnlyAlgorithm algo(1);
    RunConfig config;
    config.num_robots = 1;
    const RunResult result = run_exploration(tree, algo, config);
    EXPECT_TRUE(result.complete) << name;
    EXPECT_TRUE(result.all_at_root) << name;
    EXPECT_EQ(result.rounds, 2 * (tree.num_nodes() - 1)) << name;
  }
}

TEST(EngineTest, SingleNodeTreeTerminatesImmediately) {
  const Tree t = make_path(1);
  DepthNextOnlyAlgorithm algo(3);
  RunConfig config;
  config.num_robots = 3;
  const RunResult result = run_exploration(t, algo, config);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.all_at_root);
  EXPECT_EQ(result.rounds, 0);
}

TEST(EngineTest, MultiRobotDnSwarmCompletes) {
  const auto zoo = make_tree_zoo(200, 99);
  for (const auto& [name, tree] : zoo) {
    for (std::int32_t k : {2, 4, 16}) {
      DepthNextOnlyAlgorithm algo(k);
      RunConfig config;
      config.num_robots = k;
      const RunResult result = run_exploration(tree, algo, config);
      EXPECT_TRUE(result.complete) << name << " k=" << k;
      EXPECT_TRUE(result.all_at_root) << name << " k=" << k;
      EXPECT_LE(result.rounds, 2 * (tree.num_nodes() - 1))
          << name << " k=" << k << ": swarm slower than one DFS robot";
    }
  }
}

TEST(EngineTest, RobotMovesSumMatchesWork) {
  const Tree t = make_star(9);
  DepthNextOnlyAlgorithm algo(4);
  RunConfig config;
  config.num_robots = 4;
  const RunResult result = run_exploration(t, algo, config);
  std::int64_t total = 0;
  for (auto m : result.robot_moves) total += m;
  EXPECT_EQ(total, 2 * (t.num_nodes() - 1));  // every edge down + up
}

TEST(EngineTest, TraceRecordsEveryRound) {
  const Tree t = make_path(6);
  DepthNextOnlyAlgorithm algo(2);
  std::vector<TraceFrame> trace;
  RunConfig config;
  config.num_robots = 2;
  config.trace = &trace;
  const RunResult result = run_exploration(t, algo, config);
  ASSERT_EQ(static_cast<std::int64_t>(trace.size()), result.rounds);
  EXPECT_EQ(trace.front().round, 1);
  for (const auto& frame : trace) {
    EXPECT_EQ(frame.positions.size(), 2u);
  }
  // Final frame: everyone home.
  for (NodeId pos : trace.back().positions) EXPECT_EQ(pos, 0);
}

TEST(EngineTest, MaxRoundsGuardTrips) {
  const Tree t = make_path(50);
  DepthNextOnlyAlgorithm algo(1);
  RunConfig config;
  config.num_robots = 1;
  config.max_rounds = 5;
  const RunResult result = run_exploration(t, algo, config);
  EXPECT_TRUE(result.hit_round_limit);
  EXPECT_FALSE(result.complete);
}

// A schedule blocking everyone from round `cutoff` on.
class CutoffSchedule : public BreakdownSchedule {
 public:
  explicit CutoffSchedule(std::int64_t cutoff) : cutoff_(cutoff) {}
  bool allowed(std::int64_t t, std::int32_t) override {
    return t < cutoff_;
  }
  bool exhausted(std::int64_t t) const override { return t >= cutoff_; }

 private:
  std::int64_t cutoff_;
};

TEST(EngineTest, ScheduleStopsRunWhenExhausted) {
  const Tree t = make_path(100);
  DepthNextOnlyAlgorithm algo(2);
  CutoffSchedule schedule(10);
  RunConfig config;
  config.num_robots = 2;
  config.schedule = &schedule;
  const RunResult result = run_exploration(t, algo, config);
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.rounds, 10);
}

TEST(EngineTest, SelectingForBlockedRobotThrows) {
  // An algorithm that ignores can_move must be rejected.
  class Disobedient : public Algorithm {
   public:
    std::string name() const override { return "disobedient"; }
    void select_moves(const ExplorationView& view,
                      MoveSelector& selector) override {
      for (std::int32_t i = 0; i < view.num_robots(); ++i) {
        (void)selector.try_take_dangling(i);  // no can_move check
      }
    }
  };
  class BlockAll : public BreakdownSchedule {
   public:
    bool allowed(std::int64_t, std::int32_t) override { return false; }
    bool exhausted(std::int64_t t) const override { return t > 0; }
  };
  const Tree t = make_star(4);
  Disobedient algo;
  BlockAll schedule;
  RunConfig config;
  config.num_robots = 2;
  config.schedule = &schedule;
  EXPECT_THROW(run_exploration(t, algo, config), CheckError);
}

TEST(BoundsTest, Theorem1AndLowerBoundFormulas) {
  // Spot values: n=1000, D=10, k=4, Delta large -> log(k) branch.
  const double bound = theorem1_bound(1000, 10, 1000, 4);
  EXPECT_NEAR(bound, 2.0 * 1000 / 4 + 100 * (std::log(4.0) + 3), 1e-9);
  // Delta smaller than k -> log(Delta) branch.
  const double bound2 = theorem1_bound(1000, 10, 2, 64);
  EXPECT_NEAR(bound2, 2.0 * 1000 / 64 + 100 * (std::log(2.0) + 3), 1e-9);
  EXPECT_DOUBLE_EQ(offline_lower_bound(100, 30, 2), 99.0);
  EXPECT_DOUBLE_EQ(offline_lower_bound(100, 80, 2), 160.0);
  // One robot: the bound equals the exact DFS cost 2(n-1).
  EXPECT_DOUBLE_EQ(offline_lower_bound(100, 10, 1), 198.0);
}

}  // namespace
}  // namespace bfdn
