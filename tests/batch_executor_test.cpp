// Differential tests for sim/BatchExecutor: every batched member must
// be bit-identical to running it alone through run_exploration — the
// executor's one contract — across algorithm kinds, team sizes, seeds,
// mid-batch round caps, coalesced seed-blind twins and members with
// per-round hooks, plus the misuse guards (schedule/reactive/async members,
// reuse after run()).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bfs_levels.h"
#include "baselines/brass.h"
#include "baselines/cte.h"
#include "baselines/depth_next_only.h"
#include "core/bfdn.h"
#include "graph/generators.h"
#include "sim/batch_executor.h"
#include "sim/engine.h"
#include "support/check.h"
#include "support/rng.h"
#include "verify/fuzz.h"

namespace bfdn {
namespace {

/// Full-result equality, field by field, with a readable context label.
void expect_same_result(const RunResult& batched, const RunResult& solo,
                        const std::string& label) {
  EXPECT_EQ(batched.rounds, solo.rounds) << label;
  EXPECT_EQ(batched.complete, solo.complete) << label;
  EXPECT_EQ(batched.all_at_root, solo.all_at_root) << label;
  EXPECT_EQ(batched.hit_round_limit, solo.hit_round_limit) << label;
  EXPECT_EQ(batched.edge_events, solo.edge_events) << label;
  EXPECT_EQ(batched.rounds_with_idle, solo.rounds_with_idle) << label;
  EXPECT_EQ(batched.idle_robot_rounds, solo.idle_robot_rounds) << label;
  EXPECT_EQ(batched.robot_moves, solo.robot_moves) << label;
  EXPECT_EQ(batched.total_reanchors, solo.total_reanchors) << label;
  EXPECT_EQ(batched.total_reanchor_switches, solo.total_reanchor_switches)
      << label;
  EXPECT_EQ(batched.reanchors_by_depth.buckets(),
            solo.reanchors_by_depth.buckets())
      << label;
  EXPECT_EQ(batched.reanchor_switches_by_depth.buckets(),
            solo.reanchor_switches_by_depth.buckets())
      << label;
  EXPECT_EQ(batched.total_activations, solo.total_activations) << label;
  EXPECT_EQ(batched.depth_completed_round, solo.depth_completed_round)
      << label;
  EXPECT_EQ(batched.final_state_hash, solo.final_state_hash) << label;
}

enum class Kind { kBfdn, kBfdnRandom, kBfdnShortcut, kCte, kBfsLevels,
                  kDnSwarm, kBrass };

std::unique_ptr<Algorithm> make_kind(Kind kind, const Tree& tree,
                                     std::int32_t k, std::uint64_t seed) {
  switch (kind) {
    case Kind::kBfdn:
      return std::make_unique<BfdnAlgorithm>(k);
    case Kind::kBfdnRandom: {
      BfdnOptions options;
      options.policy = ReanchorPolicy::kRandom;
      options.seed = seed;
      return std::make_unique<BfdnAlgorithm>(k, options);
    }
    case Kind::kBfdnShortcut: {
      BfdnOptions options;
      options.shortcut_reanchor = true;
      return std::make_unique<BfdnAlgorithm>(k, options);
    }
    case Kind::kCte:
      return std::make_unique<CteAlgorithm>(tree, k);
    case Kind::kBfsLevels:
      return std::make_unique<BfsLevelsAlgorithm>(k);
    case Kind::kDnSwarm:
      return std::make_unique<DepthNextOnlyAlgorithm>(k);
    case Kind::kBrass:
      return std::make_unique<BrassAlgorithm>(k);
  }
  return nullptr;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBfdn: return "bfdn";
    case Kind::kBfdnRandom: return "bfdn-random";
    case Kind::kBfdnShortcut: return "bfdn-shortcut";
    case Kind::kCte: return "cte";
    case Kind::kBfsLevels: return "bfs-levels";
    case Kind::kDnSwarm: return "dn-swarm";
    case Kind::kBrass: return "brass";
  }
  return "?";
}

std::vector<std::pair<std::string, Tree>> golden_trees() {
  Rng rng(7);
  std::vector<std::pair<std::string, Tree>> trees;
  trees.emplace_back("comb", make_comb(40, 3));
  trees.emplace_back("spider", make_spider(7, 12));
  trees.emplace_back("bary", make_complete_bary(3, 4));
  trees.emplace_back("recursive", make_random_recursive(180, rng));
  return trees;
}

// The golden grid: every (tree, k, algorithm, seed) cell batched
// together per tree and each member compared against its own solo run.
TEST(BatchExecutorTest, GoldenGridBatchedEqualsSolo) {
  const std::vector<Kind> kinds = {
      Kind::kBfdn,     Kind::kBfdnRandom, Kind::kBfdnShortcut,
      Kind::kCte,      Kind::kBfsLevels,  Kind::kDnSwarm,
      Kind::kBrass};
  const std::vector<std::int32_t> team_sizes = {1, 3, 8};
  const std::vector<std::uint64_t> seeds = {1, 99};

  for (const auto& [tree_name, tree] : golden_trees()) {
    BatchExecutor batch(tree);
    std::vector<std::string> labels;
    for (const std::int32_t k : team_sizes) {
      for (const Kind kind : kinds) {
        for (const std::uint64_t seed : seeds) {
          RunConfig config;
          config.num_robots = k;
          batch.add_member(make_kind(kind, tree, k, seed), config);
          labels.push_back(tree_name + "/" + kind_name(kind) + "/k=" +
                           std::to_string(k) + "/seed=" +
                           std::to_string(seed));
        }
      }
    }
    const std::vector<RunResult> results = batch.run();
    ASSERT_EQ(results.size(), labels.size());
    std::size_t slot = 0;
    for (const std::int32_t k : team_sizes) {
      for (const Kind kind : kinds) {
        for (const std::uint64_t seed : seeds) {
          const auto solo_algorithm = make_kind(kind, tree, k, seed);
          RunConfig config;
          config.num_robots = k;
          const RunResult solo =
              run_exploration(tree, *solo_algorithm, config);
          expect_same_result(results[slot], solo, labels[slot]);
          ++slot;
        }
      }
    }
    const auto& stats = batch.stats();
    EXPECT_EQ(stats.members, static_cast<std::int64_t>(labels.size()));
    EXPECT_EQ(stats.distinct_runs, stats.members);  // no coalesce keys
    EXPECT_EQ(stats.members, stats.distinct_runs + stats.coalesced);
  }
}

TEST(BatchExecutorTest, WidthOneEqualsSolo) {
  const Tree tree = make_comb(30, 4);
  BatchExecutor batch(tree);
  RunConfig config;
  config.num_robots = 6;
  batch.add_member(std::make_unique<BfdnAlgorithm>(6), config);
  const std::vector<RunResult> results = batch.run();
  ASSERT_EQ(results.size(), 1u);

  BfdnAlgorithm solo(6);
  expect_same_result(results[0], run_exploration(tree, solo, config),
                     "width-1");
  EXPECT_EQ(batch.stats().distinct_runs, 1);
}

// Round caps are per member: a batch mixing members that hit their
// limit mid-exploration with members that finish must reproduce each
// solo run, including the hit_round_limit accounting.
TEST(BatchExecutorTest, MidBatchRoundCapParity) {
  const Tree tree = make_spider(9, 14);
  const std::vector<std::int64_t> caps = {3, 7, 19, 0};  // 0 = default
  BatchExecutor batch(tree);
  for (const std::int64_t cap : caps) {
    RunConfig config;
    config.num_robots = 4;
    config.max_rounds = cap;
    batch.add_member(std::make_unique<BfdnAlgorithm>(4), config);
  }
  const std::vector<RunResult> results = batch.run();
  for (std::size_t i = 0; i < caps.size(); ++i) {
    BfdnAlgorithm solo(4);
    RunConfig config;
    config.num_robots = 4;
    config.max_rounds = caps[i];
    expect_same_result(results[i], run_exploration(tree, solo, config),
                       "cap=" + std::to_string(caps[i]));
  }
  EXPECT_TRUE(results[0].hit_round_limit);
  EXPECT_FALSE(results[3].hit_round_limit);
}

// Deep trees shaped like the served miss-deep load (n=3000): long
// committed walks in every member, with round caps that cut some of
// them mid-walk.
TEST(BatchExecutorTest, DeepTreesBatchedEqualsSolo) {
  Rng rng(17);
  std::vector<std::pair<std::string, Tree>> trees;
  trees.emplace_back("caterpillar750x3", make_caterpillar(750, 3));
  trees.emplace_back("spider8x375", make_spider(8, 375));
  trees.emplace_back("fixed-depth3000d40",
                     make_tree_with_depth(3000, 40, rng));

  struct Cell {
    Kind kind;
    std::int32_t k;
    std::uint64_t seed;
    std::int64_t max_rounds;  // 0 = default limit
  };
  const std::vector<Cell> cells = {
      {Kind::kBfdn, 16, 1, 0},       {Kind::kBfdn, 64, 1, 0},
      {Kind::kBfdnRandom, 16, 5, 0}, {Kind::kBfdnRandom, 64, 9, 0},
      {Kind::kDnSwarm, 16, 1, 0},    {Kind::kDnSwarm, 64, 1, 0},
      {Kind::kBfdn, 16, 1, 613},     {Kind::kBfdn, 64, 1, 211}};
  for (const auto& [tree_name, tree] : trees) {
    BatchExecutor batch(tree);
    for (const Cell& cell : cells) {
      RunConfig config;
      config.num_robots = cell.k;
      config.max_rounds = cell.max_rounds;
      batch.add_member(make_kind(cell.kind, tree, cell.k, cell.seed),
                       config);
    }
    const std::vector<RunResult> results = batch.run();
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const auto solo = make_kind(cell.kind, tree, cell.k, cell.seed);
      RunConfig config;
      config.num_robots = cell.k;
      config.max_rounds = cell.max_rounds;
      expect_same_result(results[i], run_exploration(tree, *solo, config),
                         tree_name + "/" + kind_name(cell.kind) + "/k=" +
                             std::to_string(cell.k) + "/cap=" +
                             std::to_string(cell.max_rounds));
    }
    EXPECT_EQ(batch.stats().distinct_runs,
              static_cast<std::int64_t>(cells.size()));
    EXPECT_TRUE(results[6].hit_round_limit) << tree_name;
    EXPECT_TRUE(results[7].hit_round_limit) << tree_name;
  }
}

// Results come back in add_member order; reversing the add order
// permutes the results the same way.
TEST(BatchExecutorTest, DeterministicMemberOrdering) {
  const Tree tree = make_comb(25, 5);
  const std::vector<std::int32_t> team_sizes = {5, 1, 3, 8, 2};

  const auto run_order =
      [&tree](const std::vector<std::int32_t>& ks) {
        BatchExecutor batch(tree);
        for (const std::int32_t k : ks) {
          RunConfig config;
          config.num_robots = k;
          batch.add_member(std::make_unique<BfdnAlgorithm>(k), config);
        }
        return batch.run();
      };
  const std::vector<RunResult> forward = run_order(team_sizes);
  std::vector<std::int32_t> reversed_ks(team_sizes.rbegin(),
                                        team_sizes.rend());
  const std::vector<RunResult> backward = run_order(reversed_ks);
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    expect_same_result(forward[i], backward[forward.size() - 1 - i],
                       "position " + std::to_string(i));
  }
}

// Coalescing: equal non-empty keys replicate the first member's run.
// The replicas must still equal their own solo runs (the caller's
// promise holds here: least-loaded BFDN never reads its seed).
TEST(BatchExecutorTest, CoalescedSeedSweepMatchesSoloRuns) {
  const Tree tree = make_caterpillar(60, 2);
  BatchExecutor batch(tree);
  RunConfig config;
  config.num_robots = 5;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BfdnOptions options;
    options.seed = seed;  // least-loaded: provably never consumed
    batch.add_member(std::make_unique<BfdnAlgorithm>(5, options), config,
                     "bfdn-least-loaded-k5");
  }
  const std::vector<RunResult> results = batch.run();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BfdnOptions options;
    options.seed = seed;
    BfdnAlgorithm solo(5, options);
    expect_same_result(results[seed - 1],
                       run_exploration(tree, solo, config),
                       "seed=" + std::to_string(seed));
  }
  const auto& stats = batch.stats();
  EXPECT_EQ(stats.members, 6);
  EXPECT_EQ(stats.distinct_runs, 1);
  EXPECT_EQ(stats.coalesced, 5);
  EXPECT_EQ(stats.members, stats.distinct_runs + stats.coalesced);
}

// A member carrying per-round hooks runs the stepped loop, as it would
// solo: its observer sees the same per-round hash sequence a solo
// stepped run produces.
TEST(BatchExecutorTest, ObserverMemberRidesSteppedFallback) {
  class HashObserver : public RoundObserver {
   public:
    explicit HashObserver(std::vector<std::uint64_t>& out) : out_(out) {}
    void on_round(std::int64_t /*round*/,
                  const ExplorationState& state) override {
      out_.push_back(state.state_hash());
    }

   private:
    std::vector<std::uint64_t>& out_;
  };

  const Tree tree = make_comb(20, 4);
  RunConfig solo_config;
  solo_config.num_robots = 3;
  std::vector<std::uint64_t> solo_hashes;
  HashObserver solo_observer(solo_hashes);
  solo_config.observer = &solo_observer;
  BfdnAlgorithm solo(3);
  const RunResult solo_result = run_exploration(tree, solo, solo_config);

  BatchExecutor batch(tree);
  std::vector<std::uint64_t> batched_hashes;
  HashObserver batched_observer(batched_hashes);
  RunConfig hooked_config;
  hooked_config.num_robots = 3;
  hooked_config.observer = &batched_observer;
  batch.add_member(std::make_unique<BfdnAlgorithm>(3), hooked_config);
  // A hook-free sibling fast-forwards in the same batch.
  RunConfig plain_config;
  plain_config.num_robots = 3;
  batch.add_member(std::make_unique<BfdnAlgorithm>(3), plain_config);

  const std::vector<RunResult> results = batch.run();
  expect_same_result(results[0], solo_result, "observed member");
  expect_same_result(results[1], solo_result, "fast-forwarded sibling");
  EXPECT_EQ(batched_hashes, solo_hashes);
  EXPECT_EQ(batch.stats().distinct_runs, 2);
}

TEST(BatchExecutorTest, RejectsScheduleReactiveAndAsyncMembers) {
  const Tree tree = make_comb(10, 2);

  ScheduleSpec schedule;
  schedule.kind = ScheduleKind::kBurst;
  schedule.horizon = 100;
  schedule.period = 2;
  const auto finite = schedule.make(4);

  AsyncSpec async;
  async.kind = AsyncKind::kRoundRobin;
  const auto async_scheduler = async.make(4);

  BatchExecutor batch(tree);
  RunConfig config;
  config.num_robots = 4;

  RunConfig with_schedule = config;
  with_schedule.schedule = finite.get();
  EXPECT_THROW(batch.add_member(std::make_unique<BfdnAlgorithm>(4),
                                with_schedule),
               CheckError);

  RunConfig with_async = config;
  with_async.async = async_scheduler.get();
  EXPECT_THROW(
      batch.add_member(std::make_unique<BfdnAlgorithm>(4), with_async),
      CheckError);

  // Valid members still work after rejected ones.
  batch.add_member(std::make_unique<BfdnAlgorithm>(4), config);
  EXPECT_EQ(batch.num_members(), 1u);
  const std::vector<RunResult> results = batch.run();
  BfdnAlgorithm solo(4);
  expect_same_result(results[0], run_exploration(tree, solo, config),
                     "post-rejection member");
}

TEST(BatchExecutorTest, MisuseAfterRunRejected) {
  const Tree tree = make_comb(8, 2);
  BatchExecutor batch(tree);
  RunConfig config;
  config.num_robots = 2;
  batch.add_member(std::make_unique<BfdnAlgorithm>(2), config);
  (void)batch.run();
  EXPECT_THROW(
      batch.add_member(std::make_unique<BfdnAlgorithm>(2), config),
      CheckError);
  EXPECT_THROW((void)batch.run(), CheckError);
}

// Fuzz smoke: every case carries the batched-campaign differential
// (batch-p = 1), so a few dozen random instances re-verify the
// bit-identity contract end to end through the oracle.
TEST(BatchExecutorTest, FuzzSmokeBatchEquivalence) {
  FuzzOptions options;
  options.seed = 11;
  options.max_cases = 40;
  options.budget_s = 60.0;
  options.max_nodes = 120;
  options.schedule_p = 0.0;  // every case keeps the batch leg
  options.batch_p = 1.0;
  options.batch_width = 4;
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.ok()) << report.counterexamples.front().detail;
  EXPECT_EQ(report.cases_run, 40);
}

}  // namespace
}  // namespace bfdn
