// Per-robot-clock (async) engine path.
//
// Both engine loops take a pluggable AsyncScheduler in place of the
// lockstep clock: it decides when each robot activates, a robot
// mid-transit takes the next step of its committed walk at each
// activation (the fast-forward loop applies the whole walk when it is
// planned), and an
// event time is counted as a round iff at least one robot moves at it.
// These tests pin the contract from docs/MODEL.md:
//
//  * round-robin activation reproduces the synchronous engine
//    bit-exactly (result fields AND the per-round hash sequence);
//  * heterogeneous-speed schedules are deterministic and still satisfy
//    the completion invariants (complete, all home, every edge twice);
//  * laggard starvation stretches the makespan but never livelocks;
//  * attaching an observer forces the stepped loop, whose results are
//    identical to the fast-forward loop's under the same scheduler
//    (mid-transit activations);
//  * every scheduler's rate classes share their activation times, its
//    nth_activation is next_activation iterated, and the engine rejects
//    a scheduler whose declared classes do not share them;
//  * lockstep-only algorithms under an async config are auto-driven by
//    the synchronous round-robin schedule.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversarial/async_scheduler.h"
#include "adversarial/schedules.h"
#include "baselines/cte.h"
#include "core/bfdn.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "support/check.h"
#include "support/rng.h"

namespace bfdn {
namespace {

struct AsyncCase {
  std::string name;
  Tree tree;
  std::int32_t k;
};

std::vector<AsyncCase> grid() {
  std::vector<AsyncCase> cases;
  cases.push_back({"comb10x5/k4", make_comb(10, 5), 4});
  cases.push_back({"star120/k8", make_star(120), 8});
  cases.push_back({"spider7x9/k6", make_spider(7, 9), 6});
  cases.push_back({"bary3d5/k12", make_complete_bary(3, 5), 12});
  cases.push_back({"path60/k3", make_path(60), 3});
  {
    Rng rng(42);
    cases.push_back({"rrt200/k8", make_random_recursive(200, rng), 8});
  }
  return cases;
}

RunResult run_with(const Tree& tree, std::int32_t k,
                   AsyncScheduler* async, RoundObserver* observer = nullptr,
                   bool check_invariants = false) {
  BfdnAlgorithm algorithm(k, BfdnOptions{});
  RunConfig config;
  config.num_robots = k;
  config.async = async;
  config.observer = observer;
  config.check_invariants = check_invariants;
  return run_exploration(tree, algorithm, config);
}

/// Collects the post-move state hash of every counted round.
class HashingObserver : public RoundObserver {
 public:
  void on_round(std::int64_t round, const ExplorationState& state) override {
    rounds.push_back(round);
    hashes.push_back(state.state_hash());
  }
  std::vector<std::int64_t> rounds;
  std::vector<std::uint64_t> hashes;
};

void expect_same_result(const RunResult& a, const RunResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.all_at_root, b.all_at_root) << what;
  EXPECT_EQ(a.edge_events, b.edge_events) << what;
  EXPECT_EQ(a.rounds_with_idle, b.rounds_with_idle) << what;
  EXPECT_EQ(a.idle_robot_rounds, b.idle_robot_rounds) << what;
  EXPECT_EQ(a.total_activations, b.total_activations) << what;
  EXPECT_EQ(a.robot_moves, b.robot_moves) << what;
  EXPECT_EQ(a.total_reanchors, b.total_reanchors) << what;
  EXPECT_EQ(a.total_reanchor_switches, b.total_reanchor_switches) << what;
  EXPECT_EQ(a.reanchors_by_depth.buckets(), b.reanchors_by_depth.buckets())
      << what;
  EXPECT_EQ(a.depth_completed_round, b.depth_completed_round) << what;
  EXPECT_EQ(a.final_state_hash, b.final_state_hash) << what;
}

void expect_completion_invariants(const Tree& tree, const RunResult& r,
                                  const std::string& what) {
  EXPECT_TRUE(r.complete) << what;
  EXPECT_TRUE(r.all_at_root) << what;
  EXPECT_FALSE(r.hit_round_limit) << what;
  EXPECT_EQ(r.edge_events, 2 * (tree.num_nodes() - 1)) << what;
}

TEST(AsyncEngine, RoundRobinMatchesSyncBitExactly) {
  for (const AsyncCase& c : grid()) {
    SCOPED_TRACE(c.name);
    HashingObserver sync_observer;
    const RunResult sync =
        run_with(c.tree, c.k, nullptr, &sync_observer, true);

    RoundRobinScheduler round_robin;
    HashingObserver async_observer;
    const RunResult async =
        run_with(c.tree, c.k, &round_robin, &async_observer, true);

    expect_same_result(sync, async, c.name);
    EXPECT_EQ(sync_observer.rounds, async_observer.rounds) << c.name;
    EXPECT_EQ(sync_observer.hashes, async_observer.hashes) << c.name;
    // Round-robin means every robot activates at every counted round.
    EXPECT_EQ(async.total_activations, c.k * async.rounds) << c.name;
  }
}

TEST(AsyncEngine, HeterogeneousSchedulesAreDeterministic) {
  for (const AsyncCase& c : grid()) {
    SCOPED_TRACE(c.name);
    const auto run_twice = [&](auto make_schedule, const char* label) {
      auto first_schedule = make_schedule();
      const RunResult first = run_with(c.tree, c.k, &first_schedule);
      auto second_schedule = make_schedule();
      const RunResult second = run_with(c.tree, c.k, &second_schedule);
      expect_same_result(first, second, c.name + "/" + label);
      expect_completion_invariants(c.tree, first, c.name + "/" + label);
    };
    run_twice([&] { return FixedRateScheduler(c.k, 2, 1); }, "fixed-rate");
    run_twice([&] { return LaggardScheduler(c.k, 3, 1); }, "laggard");
    run_twice([&] { return RandomScheduler(17, 3); }, "random");
  }
}

TEST(AsyncEngine, RandomSeedSelectsTheInterleaving) {
  // Different seeds must be allowed to differ (they draw different
  // activation gaps) while each seed stays self-consistent; on the comb
  // the makespans actually do differ.
  const Tree tree = make_comb(10, 5);
  RandomScheduler a1(17, 4);
  RandomScheduler a2(17, 4);
  RandomScheduler b(23, 4);
  const RunResult first = run_with(tree, 4, &a1);
  const RunResult again = run_with(tree, 4, &a2);
  const RunResult other = run_with(tree, 4, &b);
  expect_same_result(first, again, "same seed");
  expect_completion_invariants(tree, other, "other seed");
  EXPECT_NE(first.final_state_hash ^ first.rounds,
            other.final_state_hash ^ other.rounds)
      << "seeds 17 and 23 happened to coincide; pick another pair";
}

TEST(AsyncEngine, LaggardStarvationStretchesButCompletes) {
  // Half the fleet activates only every other period-window. The run
  // must still terminate (no livelock on the stay-stability rule), the
  // laggards must genuinely activate less than the fast robots, and
  // the makespan cannot beat the synchronous one.
  const Tree tree = make_comb(10, 5);
  const std::int32_t k = 4;
  const RunResult sync = run_with(tree, k, nullptr);

  LaggardScheduler laggard(k, 5, 2);
  const RunResult async = run_with(tree, k, &laggard);
  expect_completion_invariants(tree, async, "laggard");
  EXPECT_GE(async.rounds, sync.rounds);
  // Activations are strictly fewer than full participation at every
  // counted event would give: laggards sleep through whole windows.
  EXPECT_LT(async.total_activations, k * async.rounds);
}

TEST(AsyncEngine, ObserverForcesSteppedFallbackWithIdenticalResults) {
  // Without hooks the fast-forward loop applies each committed walk
  // when it is planned; an observer needs per-event state and forces
  // the stepped loop. Both must agree exactly — this is the
  // mid-transit activation contract (a robot activated inside a
  // committed walk executes exactly the next step of that walk).
  for (const AsyncCase& c : grid()) {
    SCOPED_TRACE(c.name);
    const auto schedules = [&]() {
      return std::vector<std::string>{"fixed-rate", "laggard", "random"};
    };
    for (const std::string& label : schedules()) {
      const auto make_schedule = [&]() -> std::unique_ptr<AsyncScheduler> {
        if (label == "fixed-rate") {
          return std::make_unique<FixedRateScheduler>(c.k, 3, 1);
        }
        if (label == "laggard") {
          return std::make_unique<LaggardScheduler>(c.k, 2, 1);
        }
        return std::make_unique<RandomScheduler>(5, 2);
      };
      auto batched_schedule = make_schedule();
      const RunResult batched =
          run_with(c.tree, c.k, batched_schedule.get());

      auto stepped_schedule = make_schedule();
      HashingObserver observer;
      const RunResult stepped =
          run_with(c.tree, c.k, stepped_schedule.get(), &observer);

      expect_same_result(batched, stepped, c.name + "/" + label);
      // One observation per counted event, the last at the makespan.
      ASSERT_FALSE(observer.rounds.empty()) << c.name << "/" << label;
      EXPECT_EQ(observer.rounds.back(), stepped.rounds)
          << c.name << "/" << label;
    }
  }
}

TEST(AsyncEngine, RateClassesShareActivationsAndNthIsIteratedNext) {
  // The fast-forward loop under a scheduler counts a rate class's
  // activations once per time, so every member must be activated at
  // exactly the same times;
  // nth_activation (closed forms for round-robin, fixed-rate, laggard)
  // must equal next_activation iterated, from activation times and
  // from the times between them.
  constexpr std::int64_t kHorizon = 300;
  for (const std::int32_t k : {1, 3, 64}) {
    for (const std::int32_t num_slow : {0, 1, k}) {
      std::vector<std::unique_ptr<AsyncScheduler>> schedulers;
      schedulers.push_back(std::make_unique<RoundRobinScheduler>());
      schedulers.push_back(
          std::make_unique<FixedRateScheduler>(k, 3, num_slow));
      schedulers.push_back(
          std::make_unique<LaggardScheduler>(k, 5, num_slow));
      schedulers.push_back(std::make_unique<RandomScheduler>(
          static_cast<std::uint64_t>(7 + num_slow), 4));
      for (const auto& schedule : schedulers) {
        SCOPED_TRACE(testing::Message() << schedule->name() << " k=" << k);
        const std::int32_t num_classes = schedule->num_rate_classes(k);
        ASSERT_GE(num_classes, 1);
        std::vector<std::vector<std::int64_t>> class_times(
            static_cast<std::size_t>(num_classes));
        std::vector<char> seen(static_cast<std::size_t>(num_classes), 0);
        for (std::int32_t i = 0; i < k; ++i) {
          const std::int32_t c = schedule->rate_class(i);
          ASSERT_GE(c, 0);
          ASSERT_LT(c, num_classes);
          std::vector<std::int64_t> times;
          for (std::int64_t t = schedule->first_activation(i); t <= kHorizon;
               t = schedule->next_activation(t, i)) {
            times.push_back(t);
          }
          const auto slot = static_cast<std::size_t>(c);
          if (!seen[slot]) {
            seen[slot] = 1;
            class_times[slot] = times;
          } else {
            EXPECT_EQ(times, class_times[slot]) << "robot " << i;
          }
          std::int64_t mismatches = 0;
          for (std::int64_t now = 0; now <= 60; ++now) {
            for (const std::int64_t n : {1, 2, 3, 7, 40}) {
              std::int64_t expected = now;
              for (std::int64_t j = 0; j < n; ++j) {
                expected = schedule->next_activation(expected, i);
              }
              if (schedule->nth_activation(now, i, n) != expected) {
                ++mismatches;
              }
            }
          }
          EXPECT_EQ(mismatches, 0) << "robot " << i;
        }
      }
    }
  }
}

TEST(AsyncEngine, MisdeclaredRateClassesAreRejected) {
  // A fixed-rate schedule whose slow robot is declared to share the
  // fast robots' class: the per-time count of activated robots no
  // longer matches walkers + parked + selecting, and the engine fails
  // its check instead of returning wrong accounting.
  class OneClassFixedRate : public FixedRateScheduler {
   public:
    using FixedRateScheduler::FixedRateScheduler;
    std::int32_t num_rate_classes(std::int32_t) const override { return 1; }
    std::int32_t rate_class(std::int32_t) const override { return 0; }
  };
  const Tree tree = make_comb(10, 5);
  OneClassFixedRate schedule(4, 2, 1);
  EXPECT_THROW(run_with(tree, 4, &schedule), CheckError);
}

TEST(AsyncEngine, LockstepAlgorithmIsAutoDrivenSynchronously) {
  // CTE does not advertise async-safety, so an async config is driven
  // by the synchronous round-robin schedule: identical to a plain run.
  Rng rng(5);
  const Tree tree = make_cte_hard_tree(6, 2, rng);
  CteAlgorithm sync_algorithm(tree, 6);
  RunConfig config;
  config.num_robots = 6;
  const RunResult sync = run_exploration(tree, sync_algorithm, config);

  CteAlgorithm async_algorithm(tree, 6);
  LaggardScheduler laggard(6, 3, 2);
  config.async = &laggard;
  const RunResult async = run_exploration(tree, async_algorithm, config);
  expect_same_result(sync, async, "cte auto-driven");
  EXPECT_EQ(async_algorithm.activation_granularity(),
            ActivationGranularity::kLockstep);
}

TEST(AsyncEngine, BfdnAdvertisesAsyncSafety) {
  BfdnAlgorithm algorithm(4, BfdnOptions{});
  EXPECT_EQ(algorithm.activation_granularity(),
            ActivationGranularity::kAsyncSafe);
}

TEST(AsyncEngine, AsyncRejectsBreakdownSchedules) {
  const Tree tree = make_path(10);
  BfdnAlgorithm algorithm(2, BfdnOptions{});
  RoundRobinScheduler round_robin;
  RunConfig config;
  config.num_robots = 2;
  config.async = &round_robin;
  auto schedule = make_round_robin_schedule(100, 2);
  config.schedule = schedule.get();
  EXPECT_THROW(run_exploration(tree, algorithm, config), CheckError);
}

}  // namespace
}  // namespace bfdn
