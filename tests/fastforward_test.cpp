// Fast-forward engine equivalence suite (PR 3 tentpole acceptance):
// the event-driven engine must reproduce the stepped engine field by
// field — rounds, final exploration state, idle accounting, per-robot
// move counts, and the Lemma 2 reanchor-switch histogram — across the
// golden-cell grid, under round caps that land mid-transit, and on
// every fuzzed instance with the differential oracle check on.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversarial/async_scheduler.h"
#include "baselines/depth_next_only.h"
#include "core/bfdn.h"
#include "graph/generators.h"
#include "graph/tree_io.h"
#include "sim/engine.h"
#include "support/rng.h"
#include "verify/fuzz.h"
#include "verify/spec.h"

namespace bfdn {
namespace {

struct FfCell {
  std::string name;
  Tree tree;
  AlgoSpec algo;
  ScheduleSpec schedule;
};

AlgoSpec bfdn_spec(std::int32_t k, BfdnOptions options = BfdnOptions{}) {
  AlgoSpec spec;
  spec.kind = AlgoKind::kBfdn;
  spec.k = k;
  spec.options = options;
  return spec;
}

AlgoSpec kind_spec(AlgoKind kind, std::int32_t k, std::int32_t ell = 1) {
  AlgoSpec spec;
  spec.kind = kind;
  spec.k = k;
  spec.ell = ell;
  return spec;
}

/// The golden-cell grid, restricted to engine-based kinds (the
/// write-read and graph drivers have no stepped/fast-forward split),
/// plus the adversarial cells, where fast-forward must disable itself.
std::vector<FfCell> make_cells() {
  std::vector<FfCell> cells;
  const auto add = [&cells](std::string name, Tree tree, AlgoSpec algo,
                            ScheduleSpec schedule = {}) {
    cells.push_back({std::move(name), std::move(tree), algo, schedule});
  };

  add("comb12x6/bfdn-ll/k4", make_comb(12, 6), bfdn_spec(4));
  {
    BfdnOptions options;
    options.policy = ReanchorPolicy::kRandom;
    options.seed = 7;
    add("comb12x6/bfdn-random/k4", make_comb(12, 6), bfdn_spec(4, options));
  }
  {
    // Step-only ablation: capability reports kStepOnly, so the engine
    // must fall back (trivially equal runs — but exercises the gate).
    BfdnOptions options;
    options.shortcut_reanchor = true;
    add("comb12x6/bfdn-shortcut/k4", make_comb(12, 6),
        bfdn_spec(4, options));
  }
  add("bary3d6/bfdn-ll/k16", make_complete_bary(3, 6), bfdn_spec(16));
  {
    BfdnOptions options;
    options.policy = ReanchorPolicy::kFirstFit;
    add("bary3d6/bfdn-firstfit/k16", make_complete_bary(3, 6),
        bfdn_spec(16, options));
  }
  {
    BfdnOptions options;
    options.policy = ReanchorPolicy::kMostLoaded;
    add("caterpillar40x3/bfdn-ml/k8", make_caterpillar(40, 3),
        bfdn_spec(8, options));
  }
  add("star200/bfdn-ll/k8", make_star(200), bfdn_spec(8));
  add("spider9x15/bfdn-ll/k8", make_spider(9, 15), bfdn_spec(8));
  {
    Rng rng(42);
    add("rrt400/bfdn-ll/k8", make_random_recursive(400, rng), bfdn_spec(8));
  }
  {
    Rng rng(3);
    BfdnOptions options;
    options.policy = ReanchorPolicy::kRandom;
    options.seed = 11;
    add("leafy500/bfdn-random/k32", make_random_leafy(500, 4, rng),
        bfdn_spec(32, options));
  }
  {
    // Depth-cap variant: exercises the kStayForever parking of inactive
    // robots (and its idle accounting) in the fast-forward loop.
    BfdnOptions options;
    options.depth_cap = 8;
    add("broom20-30-20/bfdn-cap8/k8", make_double_broom(20, 30, 20),
        bfdn_spec(8, options));
  }
  {
    BfdnOptions options;
    options.depth_cap = 2;
    add("comb12x6/bfdn-cap2/k6", make_comb(12, 6), bfdn_spec(6, options));
  }
  // Deep instances: long transit segments, many robots parked mid-walk.
  add("comb60x59/bfdn-ll/k16", make_comb(60, 59), bfdn_spec(16));
  add("caterpillar400x2/bfdn-ll/k64", make_caterpillar(400, 2),
      bfdn_spec(64));
  add("path500/bfdn-ll/k3", make_path(500), bfdn_spec(3));
  add("k-exceeds-n/bfdn-ll/k32", make_comb(4, 2), bfdn_spec(32));
  // Step-only algorithms: the gate must fall back to stepping.
  {
    Rng rng(5);
    add("ctehard8x3/cte/k8", make_cte_hard_tree(8, 3, rng),
        kind_spec(AlgoKind::kCte, 8));
  }
  add("broom20-30-20/bfs-levels/k8", make_double_broom(20, 30, 20),
      kind_spec(AlgoKind::kBfsLevels, 8));
  {
    Rng rng(9);
    add("remy300/bfdn-ell2/k16", make_remy_binary(300, rng),
        kind_spec(AlgoKind::kBfdnEll, 16, 2));
  }
  // Break-down schedules: fast-forward disables itself; both runs step.
  {
    ScheduleSpec schedule;
    schedule.kind = ScheduleKind::kRoundRobin;
    schedule.horizon = 4000;
    add("comb12x6/bfdn-ll/k4/round-robin", make_comb(12, 6), bfdn_spec(4),
        schedule);
  }
  {
    ScheduleSpec schedule;
    schedule.kind = ScheduleKind::kRandom;
    schedule.horizon = 4000;
    schedule.p = 0.6;
    schedule.seed = 5;
    add("spider9x15/bfdn-ll/k8/random", make_spider(9, 15), bfdn_spec(8),
        schedule);
  }
  return cells;
}

RunResult run_cell(const FfCell& cell, bool fast_forward,
                   std::int64_t max_rounds = 0) {
  const std::unique_ptr<Algorithm> algorithm =
      make_algorithm(cell.algo, cell.tree);
  const std::unique_ptr<FiniteSchedule> schedule =
      cell.schedule.make(cell.algo.k);
  RunConfig config;
  config.num_robots = cell.algo.k;
  config.max_rounds = max_rounds;
  config.schedule = schedule.get();
  config.fast_forward = fast_forward;
  return run_exploration(cell.tree, *algorithm, config);
}

void expect_equal_runs(const RunResult& ff, const RunResult& stepped) {
  EXPECT_EQ(ff.rounds, stepped.rounds);
  EXPECT_EQ(ff.complete, stepped.complete);
  EXPECT_EQ(ff.all_at_root, stepped.all_at_root);
  EXPECT_EQ(ff.hit_round_limit, stepped.hit_round_limit);
  EXPECT_EQ(ff.edge_events, stepped.edge_events);
  EXPECT_EQ(ff.rounds_with_idle, stepped.rounds_with_idle);
  EXPECT_EQ(ff.idle_robot_rounds, stepped.idle_robot_rounds);
  EXPECT_EQ(ff.total_activations, stepped.total_activations);
  EXPECT_EQ(ff.robot_moves, stepped.robot_moves);
  EXPECT_EQ(ff.total_reanchors, stepped.total_reanchors);
  EXPECT_EQ(ff.total_reanchor_switches, stepped.total_reanchor_switches);
  EXPECT_EQ(ff.reanchors_by_depth.to_string(),
            stepped.reanchors_by_depth.to_string());
  EXPECT_EQ(ff.reanchor_switches_by_depth.to_string(),
            stepped.reanchor_switches_by_depth.to_string());
  EXPECT_EQ(ff.depth_completed_round, stepped.depth_completed_round);
  EXPECT_EQ(ff.final_state_hash, stepped.final_state_hash);
}

TEST(FastForward, GoldenCellsAgreeFieldByField) {
  for (const FfCell& cell : make_cells()) {
    SCOPED_TRACE(cell.name);
    expect_equal_runs(run_cell(cell, /*fast_forward=*/true),
                      run_cell(cell, /*fast_forward=*/false));
  }
}

TEST(FastForward, DnSwarmAgrees) {
  Rng rng(17);
  // The last three are the deep shapes of make_deep_cells below.
  const Tree trees[] = {make_comb(30, 10),
                        make_caterpillar(100, 3),
                        make_star(150),
                        make_spider(5, 40),
                        make_caterpillar(750, 3),
                        make_spider(8, 375),
                        make_tree_with_depth(3000, 40, rng)};
  for (const Tree& tree : trees) {
    for (std::int32_t k : {1, 3, 16, 64}) {
      SCOPED_TRACE(testing::Message() << "n=" << tree.num_nodes()
                                      << " k=" << k);
      const auto run_dn = [&](bool ff) {
        DepthNextOnlyAlgorithm algorithm(k);
        RunConfig config;
        config.num_robots = k;
        config.fast_forward = ff;
        return run_exploration(tree, algorithm, config);
      };
      expect_equal_runs(run_dn(true), run_dn(false));
    }
  }
}

TEST(FastForward, RoundCapsLandingMidTransitAgree) {
  // Caps chosen to land in every phase: mid BF descent, mid DN return
  // climb, exactly at an event round, and past natural termination.
  const FfCell cell{"comb25x24/bfdn-ll/k8", make_comb(25, 24),
                    bfdn_spec(8), ScheduleSpec{}};
  const RunResult full = run_cell(cell, /*fast_forward=*/true);
  for (std::int64_t cap :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{7},
        std::int64_t{25}, std::int64_t{26}, std::int64_t{100},
        std::int64_t{313}, full.rounds, full.rounds + 1,
        full.rounds + 1000}) {
    SCOPED_TRACE(testing::Message() << "cap=" << cap);
    expect_equal_runs(run_cell(cell, /*fast_forward=*/true, cap),
                      run_cell(cell, /*fast_forward=*/false, cap));
  }
}

/// Deep trees shaped like the served miss-deep load (n=3000): a
/// caterpillar (D=750), an 8-arm spider (D=375) and a fixed-depth-40
/// random tree, each at k 16 and 64. Their committed walks run for
/// hundreds of rounds, which the golden grid above never reaches.
std::vector<FfCell> make_deep_cells() {
  std::vector<FfCell> cells;
  for (const std::int32_t k : {16, 64}) {
    const std::string suffix = "/bfdn-ll/k" + std::to_string(k);
    cells.push_back({"caterpillar750x3" + suffix, make_caterpillar(750, 3),
                     bfdn_spec(k), ScheduleSpec{}});
    cells.push_back({"spider8x375" + suffix, make_spider(8, 375),
                     bfdn_spec(k), ScheduleSpec{}});
    Rng rng(17);
    cells.push_back({"fixed-depth3000d40" + suffix,
                     make_tree_with_depth(3000, 40, rng), bfdn_spec(k),
                     ScheduleSpec{}});
  }
  return cells;
}

TEST(FastForward, DeepCellsAgreeIncludingMidWalkCaps) {
  for (const FfCell& cell : make_deep_cells()) {
    SCOPED_TRACE(cell.name);
    const RunResult full = run_cell(cell, /*fast_forward=*/true);
    EXPECT_TRUE(full.complete);
    expect_equal_runs(full, run_cell(cell, /*fast_forward=*/false));
    // Caps landing inside long descents and return climbs.
    for (const std::int64_t cap :
         {std::int64_t{97}, full.rounds / 3, full.rounds / 2 + 1,
          full.rounds - 5}) {
      SCOPED_TRACE(testing::Message() << "cap=" << cap);
      expect_equal_runs(run_cell(cell, /*fast_forward=*/true, cap),
                        run_cell(cell, /*fast_forward=*/false, cap));
    }
  }
}

/// The trees the benchmark serves, built through make_family_tree with
/// the served recipes: miss-deep's caterpillar, spider and fixed-depth
/// at n=3000 (k 16 and 64), and campaign-sweep's n=700 spider,
/// fixed-depth and random trees under the random policy. Beside them
/// the shapes the lockstep fast-forward treats specially: a depth-capped
/// BFDN_1 run (robots park through kStayForever) and k=1.
std::vector<FfCell> make_serving_cells() {
  std::vector<FfCell> cells;
  const auto served = [](const std::string& family, std::int64_t nodes,
                         std::uint64_t seed) {
    return make_family_tree(family, nodes, 40, family == "spider" ? 8 : 3,
                            seed);
  };
  for (const std::string family : {"caterpillar", "spider", "fixed-depth"}) {
    const Tree tree = served(family, 3000, 48611);
    for (const std::int32_t k : {16, 64}) {
      cells.push_back({"miss-deep/" + family + "/k" + std::to_string(k), tree,
                       bfdn_spec(k), ScheduleSpec{}});
    }
  }
  for (const std::string family : {"spider", "fixed-depth", "random"}) {
    const Tree tree = served(family, 700, 9203);
    for (const std::int32_t k : {16, 64}) {
      BfdnOptions options;
      options.policy = ReanchorPolicy::kRandom;
      options.seed = 270001;
      cells.push_back({"campaign/" + family + "/random/k" + std::to_string(k),
                       tree, bfdn_spec(k, options), ScheduleSpec{}});
    }
  }
  for (const std::int32_t cap : {12, 30}) {
    BfdnOptions options;
    options.depth_cap = cap;
    cells.push_back({"fixed-depth3000/bfdn-cap" + std::to_string(cap) + "/k16",
                     served("fixed-depth", 3000, 48611), bfdn_spec(16, options),
                     ScheduleSpec{}});
  }
  for (const std::string family : {"caterpillar", "spider", "random"}) {
    cells.push_back({"k1/" + family, served(family, 700, 9203), bfdn_spec(1),
                     ScheduleSpec{}});
  }
  return cells;
}

TEST(FastForward, ServingShapesAgreeFieldByField) {
  for (const FfCell& cell : make_serving_cells()) {
    SCOPED_TRACE(cell.name);
    const RunResult full = run_cell(cell, /*fast_forward=*/true);
    EXPECT_TRUE(full.complete);
    expect_equal_runs(full, run_cell(cell, /*fast_forward=*/false));
    // A cap inside the first descent and one inside the last return
    // climb, both cutting a committed walk.
    for (const std::int64_t cap : {std::int64_t{29}, full.rounds - 3}) {
      SCOPED_TRACE(testing::Message() << "cap=" << cap);
      const RunResult capped = run_cell(cell, /*fast_forward=*/true, cap);
      EXPECT_TRUE(capped.hit_round_limit);
      expect_equal_runs(capped, run_cell(cell, /*fast_forward=*/false, cap));
    }
  }
}

TEST(FastForward, RoundRobinFastForwardAsksItsScheduler) {
  // The round-robin fast-forward must run on the scheduler it is given
  // (so OracleCheck::kAsyncEquivalence compares two paths, not one path
  // with itself) and still reproduce the lockstep run field by field.
  class CountingRoundRobin : public RoundRobinScheduler {
   public:
    std::int64_t next_activation(std::int64_t now,
                                 std::int32_t robot) const override {
      ++calls;
      return RoundRobinScheduler::next_activation(now, robot);
    }
    std::int64_t nth_activation(std::int64_t now, std::int32_t robot,
                                std::int64_t n) const override {
      ++calls;
      return RoundRobinScheduler::nth_activation(now, robot, n);
    }
    mutable std::int64_t calls = 0;
  };
  for (const FfCell& cell : make_deep_cells()) {
    SCOPED_TRACE(cell.name);
    const RunResult lockstep = run_cell(cell, /*fast_forward=*/true);
    BfdnAlgorithm algorithm(cell.algo.k);
    CountingRoundRobin round_robin;
    RunConfig config;
    config.num_robots = cell.algo.k;
    config.async = &round_robin;
    const RunResult async = run_exploration(cell.tree, algorithm, config);
    EXPECT_GT(round_robin.calls, 0);
    expect_equal_runs(async, lockstep);
  }
}

TEST(FastForward, DeepAsyncFixedRateMatchesSteppedFallback) {
  // The served async recipe (fixed rate, period 2, two slow robots):
  // the fast-forward loop applies each committed walk once, when it is
  // planned; an observer forces the stepped loop under the same
  // scheduler, which must agree exactly.
  class LastRound : public RoundObserver {
   public:
    void on_round(std::int64_t round, const ExplorationState&) override {
      last = round;
    }
    std::int64_t last = -1;
  };
  for (const FfCell& cell : make_deep_cells()) {
    SCOPED_TRACE(cell.name);
    const auto run_async = [&](RoundObserver* observer) {
      BfdnAlgorithm algorithm(cell.algo.k);
      FixedRateScheduler schedule(cell.algo.k, 2, 2);
      RunConfig config;
      config.num_robots = cell.algo.k;
      config.async = &schedule;
      config.observer = observer;
      return run_exploration(cell.tree, algorithm, config);
    };
    const RunResult batched = run_async(nullptr);
    LastRound observer;
    const RunResult stepped = run_async(&observer);
    EXPECT_TRUE(batched.complete);
    expect_equal_runs(batched, stepped);
    EXPECT_EQ(observer.last, stepped.rounds);  // the makespan
  }
}

TEST(FastForward, AsyncCapsMatchSteppedFallback) {
  // A round limit cuts the eagerly applied walks of the fast-forward
  // loop under a scheduler short: only the steps at activations inside
  // the limit execute. An observer forces the stepped loop as the
  // reference. The caps land on the first activation, inside walks, one
  // short of, at and past the uncapped stepped makespan R, under every
  // non-lockstep scheduler kind (two rate classes, and one class per
  // robot).
  class NoOp : public RoundObserver {
   public:
    void on_round(std::int64_t, const ExplorationState&) override {}
  };
  struct AsyncCell {
    std::string name;
    Tree tree;
    std::int32_t k;
  };
  Rng rng(23);
  std::vector<AsyncCell> cells;
  cells.push_back({"caterpillar120x3/k5", make_caterpillar(120, 3), 5});
  cells.push_back({"spider6x60/k16", make_spider(6, 60), 16});
  cells.push_back(
      {"fixed-depth600d20/k16", make_tree_with_depth(600, 20, rng), 16});
  for (const AsyncCell& cell : cells) {
    for (const char* label_text : {"fixed-rate", "laggard", "random"}) {
      const std::string label = label_text;
      SCOPED_TRACE(cell.name + "/" + label);
      const auto run = [&](std::int64_t cap, bool stepped) {
        std::unique_ptr<AsyncScheduler> schedule;
        if (label == "fixed-rate") {
          schedule = std::make_unique<FixedRateScheduler>(cell.k, 3, 2);
        } else if (label == "laggard") {
          schedule = std::make_unique<LaggardScheduler>(cell.k, 4, 2);
        } else {
          schedule = std::make_unique<RandomScheduler>(9, 3);
        }
        BfdnAlgorithm algorithm(cell.k);
        NoOp observer;
        RunConfig config;
        config.num_robots = cell.k;
        config.max_rounds = cap;
        config.async = schedule.get();
        config.observer = stepped ? &observer : nullptr;
        return run_exploration(cell.tree, algorithm, config);
      };
      const RunResult full = run(0, true);
      EXPECT_TRUE(full.complete);
      expect_equal_runs(run(0, false), full);
      const std::int64_t r = full.rounds;
      for (const std::int64_t cap :
           {std::int64_t{1}, std::int64_t{7}, r / 3, r / 2 + 1, r - 1, r,
            r + 5}) {
        SCOPED_TRACE(testing::Message() << "cap=" << cap);
        expect_equal_runs(run(cap, false), run(cap, true));
      }
    }
  }
}

TEST(FastForward, ObserverForcesSteppedBitExactRounds) {
  // With an observer attached the engine must step even when
  // fast_forward is requested: the per-round hash sequences of a
  // "fast-forward + observer" run and a stepped run are identical.
  class Hashes : public RoundObserver {
   public:
    void on_round(std::int64_t /*round*/,
                  const ExplorationState& state) override {
      hashes.push_back(state.state_hash());
    }
    std::vector<std::uint64_t> hashes;
  };
  const Tree tree = make_spider(9, 15);
  const auto run_observed = [&](bool ff) {
    BfdnAlgorithm algorithm(8);
    Hashes observer;
    RunConfig config;
    config.num_robots = 8;
    config.fast_forward = ff;
    config.observer = &observer;
    run_exploration(tree, algorithm, config);
    return observer.hashes;
  };
  const std::vector<std::uint64_t> with_ff = run_observed(true);
  EXPECT_FALSE(with_ff.empty());
  EXPECT_EQ(with_ff, run_observed(false));
}

TEST(FastForward, FlagOffStepsOnBothClocks) {
  // fast_forward = false takes the stepped loop under per-robot clocks
  // too. The stepped loop never asks for a transit plan; both
  // fast-forward loops plan after every selection. Results agree.
  class CountingBfdn : public BfdnAlgorithm {
   public:
    using BfdnAlgorithm::BfdnAlgorithm;
    void plan_transit(const ExplorationView& view, std::int32_t robot,
                      TransitPlan& plan) override {
      ++plans;
      BfdnAlgorithm::plan_transit(view, robot, plan);
    }
    std::int64_t plans = 0;
  };
  const Tree tree = make_spider(9, 15);
  FixedRateScheduler fixed_rate(8, 2, 2);
  for (AsyncScheduler* clocks : {static_cast<AsyncScheduler*>(nullptr),
                                 static_cast<AsyncScheduler*>(&fixed_rate)}) {
    SCOPED_TRACE(clocks == nullptr ? std::string("sync") : clocks->name());
    const auto run = [&](bool fast_forward, std::int64_t& plans) {
      CountingBfdn algorithm(8);
      RunConfig config;
      config.num_robots = 8;
      config.async = clocks;
      config.fast_forward = fast_forward;
      const RunResult result = run_exploration(tree, algorithm, config);
      plans = algorithm.plans;
      return result;
    };
    std::int64_t stepped_plans = -1;
    std::int64_t ff_plans = -1;
    const RunResult stepped = run(false, stepped_plans);
    const RunResult ff = run(true, ff_plans);
    EXPECT_EQ(stepped_plans, 0);
    EXPECT_GT(ff_plans, 0);
    expect_equal_runs(ff, stepped);
  }
}

TEST(FastForward, FuzzSmokeWithDifferentialCheck) {
  // The oracle now runs the fast-forward-vs-stepped differential on
  // every non-breakdown case; a healthy engine produces no
  // counterexample on this fixed prefix of the case sequence.
  FuzzOptions options;
  options.seed = 20260806;
  options.max_cases = 40;
  options.budget_s = 300.0;
  options.max_nodes = 220;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.cases_run, 40);
  for (const FuzzCounterexample& cex : report.counterexamples) {
    ADD_FAILURE() << cex.recipe << " -> " << cex.detail;
  }
}

TEST(FastForward, ParallelFuzzFindsSameMinimalCounterexample) {
  // The --fault demo leak must shrink to the same minimal instance no
  // matter how many workers race on the case sequence.
  FuzzOptions options;
  options.seed = 1;
  options.budget_s = 300.0;
  options.max_cases = 64;
  options.max_nodes = 200;
  options.inject_load_leak = true;

  options.jobs = 1;
  const FuzzReport serial = run_fuzz(options);
  ASSERT_FALSE(serial.ok());

  options.jobs = 4;
  const FuzzReport parallel = run_fuzz(options);
  ASSERT_FALSE(parallel.ok());

  const FuzzCounterexample& a = serial.counterexamples.front();
  const FuzzCounterexample& b = parallel.counterexamples.front();
  EXPECT_EQ(a.case_index, b.case_index);
  EXPECT_EQ(a.check, b.check);
  EXPECT_EQ(a.recipe, b.recipe);
  EXPECT_EQ(a.shrunk.config.k, b.shrunk.config.k);
  EXPECT_EQ(tree_to_text(a.shrunk.tree), tree_to_text(b.shrunk.tree));
}

}  // namespace
}  // namespace bfdn
