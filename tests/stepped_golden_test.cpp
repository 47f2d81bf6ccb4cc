// Golden pins of every RunResult field for runs that take the stepped
// engine loop: break-down schedules (including a horizon that runs out
// before completion and a max_rounds cap), reactive blockers (including
// a blocked reserver whose joiner keeps the reservation), the lockstep
// algorithms both synchronously and under an async config (where the
// engine auto-drives them in lockstep), and BFDN with each per-round
// hook, synchronously and under per-robot clocks. Each row also pins
// how many trace frames and observer calls the run produced, with a
// digest of their contents.
//
// golden_trace_test pins only rounds, edge events and reanchors, and
// trace_replay_test compares the engine with itself; these rows pin the
// idle and activation accounting, per-robot moves, the depth-completion
// timeline and the final state hash, so a change to how the stepped
// loop counts rounds, idles or hooks shows up here.
//
// To re-record after an *intentional* behavior change, run with
// BFDN_GOLDEN_RECORD=1 and paste the printed table over kGolden.
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversarial/async_scheduler.h"
#include "adversarial/reactive.h"
#include "adversarial/schedules.h"
#include "baselines/bfs_levels.h"
#include "baselines/brass.h"
#include "baselines/cte.h"
#include "baselines/depth_next_only.h"
#include "core/bfdn.h"
#include "graph/generators.h"
#include "recursive/bfdn_ell.h"
#include "sim/engine.h"
#include "support/strings.h"

namespace bfdn {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Counts on_round calls and digests (round, state hash) of each.
class CountingObserver : public RoundObserver {
 public:
  void on_round(std::int64_t round, const ExplorationState& state) override {
    ++calls;
    digest = fnv_mix(fnv_mix(digest, static_cast<std::uint64_t>(round)),
                     state.state_hash());
  }
  std::int64_t calls = 0;
  std::uint64_t digest = kFnvBasis;
};

struct Hooks {
  bool trace = false;
  bool observer = false;
  bool check_invariants = false;
};
constexpr Hooks kNoHooks{};
constexpr Hooks kTraceAndObserver{true, true, false};

std::string join(const std::vector<std::int64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    append_int(out, values[i]);
  }
  out += ']';
  return out;
}

/// Every RunResult field plus the hook tallies, on one line.
std::string render(const RunResult& r, const std::vector<TraceFrame>& trace,
                   const CountingObserver& observer) {
  std::uint64_t frames = kFnvBasis;
  for (const TraceFrame& frame : trace) {
    frames = fnv_mix(frames, static_cast<std::uint64_t>(frame.round));
    for (const NodeId v : frame.positions) {
      frames = fnv_mix(frames, static_cast<std::uint64_t>(v));
    }
  }
  return str_format(
      "rounds=%lld complete=%d root=%d limit=%d edges=%lld idle=%lld/%lld "
      "moves=%s reanchors=%lld{%s} switches=%lld{%s} blocks=%lld "
      "activations=%lld depths=%s hash=%016llx frames=%zu/%016llx "
      "observed=%lld/%016llx",
      static_cast<long long>(r.rounds), r.complete ? 1 : 0,
      r.all_at_root ? 1 : 0, r.hit_round_limit ? 1 : 0,
      static_cast<long long>(r.edge_events),
      static_cast<long long>(r.rounds_with_idle),
      static_cast<long long>(r.idle_robot_rounds),
      join(r.robot_moves).c_str(), static_cast<long long>(r.total_reanchors),
      r.reanchors_by_depth.to_string().c_str(),
      static_cast<long long>(r.total_reanchor_switches),
      r.reanchor_switches_by_depth.to_string().c_str(),
      static_cast<long long>(r.reactive_blocks),
      static_cast<long long>(r.total_activations),
      join(r.depth_completed_round).c_str(),
      static_cast<unsigned long long>(r.final_state_hash), trace.size(),
      static_cast<unsigned long long>(frames),
      static_cast<long long>(observer.calls),
      static_cast<unsigned long long>(observer.digest));
}

struct CellResult {
  std::string cell;
  std::string result;
};

struct GoldenRow {
  const char* cell;
  const char* result;
};

/// Runs one cell; `config` carries k and the adversary / scheduler /
/// limit, `hooks` says which per-round hooks to attach.
CellResult run_cell(const std::string& cell, const Tree& tree,
                    Algorithm& algorithm, RunConfig config, Hooks hooks) {
  std::vector<TraceFrame> trace;
  CountingObserver observer;
  if (hooks.trace) config.trace = &trace;
  if (hooks.observer) config.observer = &observer;
  config.check_invariants = hooks.check_invariants;
  const RunResult result = run_exploration(tree, algorithm, config);
  return {cell, render(result, trace, observer)};
}

/// Robot 0 reserves whenever it can and a co-located robot 1 joins its
/// edge; apart, robot 1 explores depth-next alone (the shape of
/// ReactiveAdversaryTest.BlockedReserverWithJoinerKeepsReservation).
class Caravan : public Algorithm {
 public:
  std::string name() const override { return "caravan"; }
  void select_moves(const ExplorationView& view,
                    MoveSelector& sel) override {
    NodeId token = kInvalidNode;
    if (view.has_unreserved_dangling(view.robot_pos(0))) {
      token = sel.try_take_dangling(0);
    }
    if (token != kInvalidNode && view.robot_pos(1) == view.robot_pos(0)) {
      sel.join_dangling(1, token);
      return;
    }
    if (sel.try_take_dangling(1) == kInvalidNode) sel.move_up(1);
  }
};

Tree rrt400() {
  Rng rng(42);
  return make_random_recursive(400, rng);
}

std::vector<CellResult> run_grid() {
  std::vector<CellResult> results;
  const Tree comb = make_comb(12, 6);
  const Tree spider = make_spider(9, 15);
  const Tree star = make_star(200);
  const Tree rrt = rrt400();

  // --- Break-down schedules (Section 4.2) -----------------------------
  const auto breakdown = [&](const std::string& name, const Tree& tree,
                             std::int32_t k, Algorithm& algorithm,
                             std::unique_ptr<FiniteSchedule> schedule,
                             std::int64_t max_rounds) {
    RunConfig config;
    config.num_robots = k;
    config.schedule = schedule.get();
    config.max_rounds = max_rounds;
    results.push_back(
        run_cell(name, tree, algorithm, config, kTraceAndObserver));
  };
  const auto bfdn_breakdown = [&](const std::string& name, const Tree& tree,
                                  std::int32_t k,
                                  std::unique_ptr<FiniteSchedule> schedule,
                                  std::int64_t max_rounds = 0) {
    BfdnAlgorithm algorithm(k, BfdnOptions{});
    breakdown(name, tree, k, algorithm, std::move(schedule), max_rounds);
  };
  bfdn_breakdown("comb12x6/bfdn/k4/full", comb, 4,
                 make_full_schedule(4000, 4));
  bfdn_breakdown("comb12x6/bfdn/k4/round-robin", comb, 4,
                 make_round_robin_schedule(4000, 4));
  bfdn_breakdown("spider9x15/bfdn/k8/burst8", spider, 8,
                 make_burst_schedule(4000, 8, 8));
  bfdn_breakdown("star200/bfdn/k8/rolling4", star, 8,
                 make_rolling_outage_schedule(4000, 8, 4));
  bfdn_breakdown("rrt400/bfdn/k8/random-p0.6", rrt, 8,
                 make_random_schedule(6000, 8, 0.6, 5));
  // The horizon runs out long before the tree is explored.
  bfdn_breakdown("rrt400/bfdn/k8/random-p0.6-h60", rrt, 8,
                 make_random_schedule(60, 8, 0.6, 5));
  // max_rounds cuts the run before the schedule or the tree ends.
  bfdn_breakdown("comb12x6/bfdn/k4/round-robin-max100", comb, 4,
                 make_round_robin_schedule(4000, 4), 100);
  {
    BfdnOptions options;
    options.shortcut_reanchor = true;
    BfdnAlgorithm algorithm(8, options);
    breakdown("spider9x15/bfdn-shortcut/k8/burst3", spider, 8, algorithm,
              make_burst_schedule(4000, 8, 3), 0);
  }
  {
    DepthNextOnlyAlgorithm algorithm(8);
    breakdown("rrt400/dn-only/k8/random-p0.5", rrt, 8, algorithm,
              make_random_schedule(6000, 8, 0.5, 9), 0);
  }

  // --- Reactive adversaries (Remark 8) --------------------------------
  const auto reactive =
      [&](const std::string& name, const Tree& tree, std::int32_t k,
          Algorithm& algorithm,
          std::unique_ptr<BudgetedReactiveAdversary> adversary) {
        RunConfig config;
        config.num_robots = k;
        config.reactive = adversary.get();
        results.push_back(
            run_cell(name, tree, algorithm, config, kTraceAndObserver));
      };
  {
    BfdnAlgorithm algorithm(4, BfdnOptions{});
    reactive("comb12x6/bfdn/k4/discovery40", comb, 4, algorithm,
             make_discovery_blocker(40));
  }
  {
    BfdnAlgorithm algorithm(8, BfdnOptions{});
    reactive("spider9x15/bfdn/k8/targeted01-60", spider, 8, algorithm,
             make_targeted_blocker(60, {0, 1}));
  }
  {
    BfdnAlgorithm algorithm(8, BfdnOptions{});
    reactive("rrt400/bfdn/k8/random-p0.3-100", rrt, 8, algorithm,
             make_random_blocker(100, 0.3, 7));
  }
  {
    DepthNextOnlyAlgorithm algorithm(4);
    reactive("comb12x6/dn-only/k4/discovery25", comb, 4, algorithm,
             make_discovery_blocker(25));
  }
  {
    Caravan algorithm;
    reactive("path6/caravan/k2/targeted0-100", make_path(6), 2, algorithm,
             make_targeted_blocker(100, {0}));
  }

  // --- Lockstep algorithms, sync and under an async config ------------
  // The fixed-rate scheduler is ignored for these: the engine drives a
  // lockstep-only algorithm in lockstep, so both rows must agree.
  const auto lockstep = [&](const std::string& name, const Tree& tree,
                            std::int32_t k, auto make_algorithm) {
    {
      auto algorithm = make_algorithm();
      RunConfig config;
      config.num_robots = k;
      results.push_back(
          run_cell(name + "/sync", tree, *algorithm, config, kNoHooks));
    }
    {
      auto algorithm = make_algorithm();
      FixedRateScheduler schedule(k, 3, 1);
      RunConfig config;
      config.num_robots = k;
      config.async = &schedule;
      results.push_back(
          run_cell(name + "/async", tree, *algorithm, config, kNoHooks));
    }
  };
  {
    Rng rng(5);
    const Tree hard = make_cte_hard_tree(8, 3, rng);
    lockstep("ctehard8x3/cte/k8", hard, 8,
             [&] { return std::make_unique<CteAlgorithm>(hard, 8); });
  }
  lockstep("broom20-30-20/bfs-levels/k8", make_double_broom(20, 30, 20), 8,
           [] { return std::make_unique<BfsLevelsAlgorithm>(8); });
  {
    Rng rng(9);
    lockstep("remy300/bfdn-ell2/k16", make_remy_binary(300, rng), 16,
             [] { return std::make_unique<BfdnEllAlgorithm>(16, 2); });
  }
  lockstep("comb12x6/brass/k4", comb, 4,
           [] { return std::make_unique<BrassAlgorithm>(4); });

  // --- BFDN with each per-round hook, sync and per-robot clocks -------
  const auto bfdn_hooked = [&](const std::string& name, const Tree& tree,
                               std::int32_t k, AsyncScheduler* schedule,
                               Hooks hooks, std::int64_t max_rounds = 0,
                               bool fast_forward = true,
                               BfdnOptions options = BfdnOptions{}) {
    BfdnAlgorithm algorithm(k, options);
    RunConfig config;
    config.num_robots = k;
    config.async = schedule;
    config.max_rounds = max_rounds;
    config.fast_forward = fast_forward;
    results.push_back(run_cell(name, tree, algorithm, config, hooks));
  };
  FixedRateScheduler fixed_rate(4, 2, 2);
  RandomScheduler random_clock(11, 3);
  const Hooks observer_only{false, true, false};
  const Hooks trace_only{true, false, false};
  const Hooks invariants_only{false, false, true};
  bfdn_hooked("comb12x6/bfdn/k4/sync/observer", comb, 4, nullptr,
              observer_only);
  bfdn_hooked("comb12x6/bfdn/k4/sync/trace", comb, 4, nullptr, trace_only);
  bfdn_hooked("comb12x6/bfdn/k4/sync/check", comb, 4, nullptr,
              invariants_only);
  bfdn_hooked("comb12x6/bfdn/k4/fixed2x2/observer", comb, 4, &fixed_rate,
              observer_only);
  bfdn_hooked("comb12x6/bfdn/k4/fixed2x2/trace", comb, 4, &fixed_rate,
              trace_only);
  bfdn_hooked("comb12x6/bfdn/k4/fixed2x2/check", comb, 4, &fixed_rate,
              invariants_only);
  bfdn_hooked("star200/bfdn/k8/random-d3/observer+trace", star, 8,
              &random_clock, kTraceAndObserver);
  // The round limit cuts a stepped run short, on both clocks.
  bfdn_hooked("spider9x15/bfdn/k8/sync/observer-max30", spider, 8, nullptr,
              observer_only, 30);
  bfdn_hooked("star200/bfdn/k8/random-d3/observer-max30", star, 8,
              &random_clock, observer_only, 30);
  // Hook-free stepped runs: fast_forward off, and the step-only
  // shortcut ablation under per-robot clocks.
  bfdn_hooked("rrt400/bfdn/k8/sync/no-ff", rrt, 8, nullptr, kNoHooks, 0,
              false);
  bfdn_hooked("rrt400/bfdn/k8/random-d3/no-ff", rrt, 8, &random_clock,
              kNoHooks, 0, false);
  {
    BfdnOptions options;
    options.shortcut_reanchor = true;
    bfdn_hooked("comb12x6/bfdn-shortcut/k4/fixed2x2", comb, 4, &fixed_rate,
                kNoHooks, 0, true, options);
  }
  return results;
}

// clang-format off
const GoldenRow kGolden[] = {
    {"comb12x6/bfdn/k4/full",
     "rounds=65 complete=1 root=0 limit=0 edges=160 idle=1/2 moves=[65 65 64 64] reanchors=18{0:4 1:2 2:2 3:2 4:2 5:2 6:2 7:2} switches=14{1:2 2:2 3:2 4:2 5:2 6:2 7:2} blocks=0 activations=260 depths=[0 1 3 10 16 26 36 48 60 61 62 63 64 65 56 43 30 17] hash=5474f53440033547 frames=65/83c2c58d1bf2db58 observed=65/41f51182b2ce3218"},
    {"comb12x6/bfdn/k4/round-robin",
     "rounds=258 complete=1 root=0 limit=0 edges=160 idle=0/0 moves=[65 65 64 64] reanchors=16{0:2 1:2 2:2 3:2 4:2 5:2 6:2 7:2} switches=14{1:2 2:2 3:2 4:2 5:2 6:2 7:2} blocks=0 activations=258 depths=[0 2 8 35 62 100 142 187 238 242 246 250 254 258 221 169 117 65] hash=5474f53440033547 frames=258/c0f955afd9173c00 observed=258/9b11733ef1f43f33"},
    {"spider9x15/bfdn/k8/burst8",
     "rounds=85 complete=1 root=0 limit=0 edges=258 idle=1/7 moves=[45 44 44 44 44 44 44 44] reanchors=37{0:16 1:7 3:7 9:7} switches=21{1:7 3:7 9:7} blocks=0 activations=360 depths=[0 55 56 65 66 67 68 69 70 71 72 81 82 83 84 85] hash=086ca78a07c781e0 frames=45/fe3d88f30fc5d251 observed=85/33f9f29c106f40e6"},
    {"star200/bfdn/k8/rolling4",
     "rounds=99 complete=1 root=0 limit=0 edges=395 idle=1/1 moves=[48 48 48 48 51 51 51 50] reanchors=200{0:200} switches=0{} blocks=0 activations=396 depths=[0 99] hash=ea1a33e8ca00a386 frames=99/c98cc45d22c3c745 observed=99/47dc147f4615537a"},
    {"rrt400/bfdn/k8/random-p0.6",
     "rounds=193 complete=1 root=0 limit=0 edges=794 idle=0/0 moves=[108 114 114 128 124 124 118 122] reanchors=35{0:6 1:6 2:5 3:6 4:3 5:4 6:5} switches=29{1:6 2:5 3:6 4:3 5:4 6:5} blocks=0 activations=952 depths=[0 1 23 61 137 159 174 190 193 186] hash=be54f20eb391fa9f frames=193/359f0ff28c9a7cd1 observed=193/54079150175b11f1"},
    {"rrt400/bfdn/k8/random-p0.6-h60",
     "rounds=60 complete=0 root=0 limit=0 edges=273 idle=0/0 moves=[34 36 34 38 42 40 34 34] reanchors=17{0:6 1:6 2:5} switches=11{1:6 2:5} blocks=0 activations=292 depths=[0 1 23 -1 -1 -1 -1 -1 -1 -1] hash=988e6ef106684144 frames=60/871d800a57cc4aff observed=60/4f3cf0b7a5078293"},
    {"comb12x6/bfdn/k4/round-robin-max100",
     "rounds=100 complete=0 root=0 limit=1 edges=75 idle=0/0 moves=[25 25 25 25] reanchors=10{0:2 1:2 2:2 3:2 4:2} switches=8{1:2 2:2 3:2 4:2} blocks=0 activations=100 depths=[0 2 8 35 62 100 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 65] hash=fa96556538197d67 frames=100/2ac7e0c081e0a78b observed=100/985b9660d5a452f2"},
    {"spider9x15/bfdn-shortcut/k8/burst3",
     "rounds=87 complete=1 root=0 limit=0 edges=255 idle=1/7 moves=[45 44 44 44 44 44 44 44] reanchors=114{0:16 1:7 2:7 3:7 4:7 5:7 6:7 7:7 8:7 9:7 10:7 11:7 12:7 13:7 14:7} switches=98{1:7 2:7 3:7 4:7 5:7 6:7 7:7 8:7 9:7 10:7 11:7 12:7 13:7 14:7} blocks=0 activations=360 depths=[0 61 62 63 67 68 69 73 74 75 79 80 81 85 86 87] hash=050d5fc32d326fb2 frames=45/7a26f765898dd858 observed=87/570b8afe5ebdc5cc"},
    {"rrt400/dn-only/k8/random-p0.5",
     "rounds=849 complete=1 root=0 limit=0 edges=794 idle=547/1665 moves=[0 138 14 176 0 450 0 16] reanchors=0{} switches=0{} blocks=0 activations=3376 depths=[0 3 703 848 849 822 842 836 829 678] hash=bd696e4399a79fbe frames=563/ead199bf8ac1b3ef observed=849/c6cbb2840f7ad844"},
    {"comb12x6/bfdn/k4/discovery40",
     "rounds=85 complete=1 root=0 limit=0 edges=160 idle=1/2 moves=[65 65 64 64] reanchors=18{0:4 1:2 2:2 3:2 4:2 5:2 6:2 7:2} switches=14{1:2 2:2 3:2 4:2 5:2 6:2 7:2} blocks=40 activations=340 depths=[0 21 23 30 36 46 56 68 80 81 82 83 84 85 76 63 50 37] hash=5474f53440033547 frames=65/19844dd60b4aa84c observed=85/0c747304b799c490"},
    {"spider9x15/bfdn/k8/targeted01-60",
     "rounds=45 complete=1 root=0 limit=0 edges=234 idle=31/65 moves=[15 15 45 44 44 44 44 44] reanchors=89{0:74 1:5 3:5 9:5} switches=15{1:5 3:5 9:5} blocks=60 activations=360 depths=[0 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45] hash=4dae1112f86da655 frames=45/13fe60f0c3ad6517 observed=45/cf038ce78bf11d3c"},
    {"rrt400/bfdn/k8/random-p0.3-100",
     "rounds=135 complete=1 root=0 limit=0 edges=795 idle=40/106 moves=[128 118 121 125 123 120 119 120] reanchors=48{0:14 1:7 2:5 3:7 4:4 5:5 6:5 7:1} switches=34{1:7 2:5 3:7 4:4 5:5 6:5 7:1} blocks=100 activations=1080 depths=[0 3 19 55 105 114 123 132 135 132] hash=52e4e1d6bea0acb1 frames=135/00bfdfd822005a9f observed=135/8ade9d642f6e7d06"},
    {"comb12x6/dn-only/k4/discovery25",
     "rounds=160 complete=1 root=0 limit=0 edges=159 idle=148/433 moves=[147 12 0 0] reanchors=0{} switches=0{} blocks=25 activations=640 depths=[0 14 155 156 157 158 159 160 147 134 121 108 95 82 69 56 43 30] hash=70cb021b9bf36cb6 frames=148/d6c710acdfec1697 observed=160/64e810da8d684ee0"},
    {"path6/caravan/k2/targeted0-100",
     "rounds=5 complete=1 root=0 limit=0 edges=5 idle=5/5 moves=[0 5] reanchors=0{} switches=0{} blocks=1 activations=10 depths=[0 1 2 3 4 5] hash=1f9fd3d84404023e frames=5/61a87c7b8b10c8c5 observed=5/5b40a3093a3f4beb"},
    {"ctehard8x3/cte/k8/sync",
     "rounds=32 complete=1 root=1 limit=0 edges=90 idle=4/22 moves=[28 28 32 30 28 30 30 28] reanchors=0{} switches=0{} blocks=0 activations=256 depths=[0 1 2 3 4 7 10 13 14 15 16 19 20] hash=7b2781e6abc3de37 frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"ctehard8x3/cte/k8/async",
     "rounds=32 complete=1 root=1 limit=0 edges=90 idle=4/22 moves=[28 28 32 30 28 30 30 28] reanchors=0{} switches=0{} blocks=0 activations=256 depths=[0 1 2 3 4 7 10 13 14 15 16 19 20] hash=7b2781e6abc3de37 frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"broom20-30-20/bfs-levels/k8/sync",
     "rounds=1069 complete=1 root=1 limit=0 edges=140 idle=3/12 moves=[1068 1068 1068 1068 1068 1068 1066 1066] reanchors=0{} switches=0{} blocks=0 activations=8552 depths=[0 5 7 10 15 23 32 43 56 71 89 108 129 153 178 205 234 265 299 334 371 411 452 495 540 587 637 688 741 797 854 1038] hash=82655e759bc78e85 frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"broom20-30-20/bfs-levels/k8/async",
     "rounds=1069 complete=1 root=1 limit=0 edges=140 idle=3/12 moves=[1068 1068 1068 1068 1068 1068 1066 1066] reanchors=0{} switches=0{} blocks=0 activations=8552 depths=[0 5 7 10 15 23 32 43 56 71 89 108 129 153 178 205 234 265 299 334 371 411 452 495 540 587 637 688 741 797 854 1038] hash=82655e759bc78e85 frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"remy300/bfdn-ell2/k16/sync",
     "rounds=555 complete=1 root=0 limit=0 edges=1194 idle=555/6189 moves=[10 18 202 8 0 38 48 28 111 374 200 188 220 410 425 411] reanchors=160{0:4 1:2 2:1 3:3 4:5 5:6 6:7 7:7 8:6 9:3 10:6 11:1 12:6 13:6 14:2 15:2 16:6 18:6 19:5 20:5 21:4 22:2 23:2 24:4 25:3 27:3 28:3 29:3 31:3 32:2 33:2 34:3 35:5 42:3 43:2 44:2 45:2 47:3 48:3 50:3 51:2 54:3 56:3 58:3 64:3} switches=0{} blocks=0 activations=8880 depths=[0 1 3 7 14 17 29 32 37 54 84 87 90 91 117 120 125 132 144 156 161 170 185 198 211 224 268 218 272 279 290 293 302 317 375 376 381 377 318 320 331 376 379 397 402 411 422 425 434 451 418 470 475 474 451 484 455 500 459 519 471 474 477 488 491 529 532 551 548 537 527 530] hash=8aea87a4cb866cde frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"remy300/bfdn-ell2/k16/async",
     "rounds=555 complete=1 root=0 limit=0 edges=1194 idle=555/6189 moves=[10 18 202 8 0 38 48 28 111 374 200 188 220 410 425 411] reanchors=160{0:4 1:2 2:1 3:3 4:5 5:6 6:7 7:7 8:6 9:3 10:6 11:1 12:6 13:6 14:2 15:2 16:6 18:6 19:5 20:5 21:4 22:2 23:2 24:4 25:3 27:3 28:3 29:3 31:3 32:2 33:2 34:3 35:5 42:3 43:2 44:2 45:2 47:3 48:3 50:3 51:2 54:3 56:3 58:3 64:3} switches=0{} blocks=0 activations=8880 depths=[0 1 3 7 14 17 29 32 37 54 84 87 90 91 117 120 125 132 144 156 161 170 185 198 211 224 268 218 272 279 290 293 302 317 375 376 381 377 318 320 331 376 379 397 402 411 422 425 434 451 418 470 475 474 451 484 455 500 459 519 471 474 477 488 491 529 532 551 548 537 527 530] hash=8aea87a4cb866cde frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"comb12x6/brass/k4/sync",
     "rounds=58 complete=1 root=1 limit=0 edges=166 idle=0/0 moves=[58 58 58 58] reanchors=0{} switches=0{} blocks=0 activations=232 depths=[0 1 2 3 16 17 18 31 32 33 38 39 40 41 42 43 30 17] hash=6e90d514db6780dc frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"comb12x6/brass/k4/async",
     "rounds=58 complete=1 root=1 limit=0 edges=166 idle=0/0 moves=[58 58 58 58] reanchors=0{} switches=0{} blocks=0 activations=232 depths=[0 1 2 3 16 17 18 31 32 33 38 39 40 41 42 43 30 17] hash=6e90d514db6780dc frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"comb12x6/bfdn/k4/sync/observer",
     "rounds=78 complete=1 root=1 limit=0 edges=166 idle=14/34 moves=[70 78 64 66] reanchors=18{0:4 1:2 2:2 3:2 4:2 5:2 6:2 7:2} switches=14{1:2 2:2 3:2 4:2 5:2 6:2 7:2} blocks=0 activations=312 depths=[0 1 3 10 16 26 36 48 60 61 62 63 64 65 56 43 30 17] hash=6e90d514db6780dc frames=0/cbf29ce484222325 observed=78/301a9b5fa408254b"},
    {"comb12x6/bfdn/k4/sync/trace",
     "rounds=78 complete=1 root=1 limit=0 edges=166 idle=14/34 moves=[70 78 64 66] reanchors=18{0:4 1:2 2:2 3:2 4:2 5:2 6:2 7:2} switches=14{1:2 2:2 3:2 4:2 5:2 6:2 7:2} blocks=0 activations=312 depths=[0 1 3 10 16 26 36 48 60 61 62 63 64 65 56 43 30 17] hash=6e90d514db6780dc frames=78/630d9d5027c23fbf observed=0/cbf29ce484222325"},
    {"comb12x6/bfdn/k4/sync/check",
     "rounds=78 complete=1 root=1 limit=0 edges=166 idle=14/34 moves=[70 78 64 66] reanchors=18{0:4 1:2 2:2 3:2 4:2 5:2 6:2 7:2} switches=14{1:2 2:2 3:2 4:2 5:2 6:2 7:2} blocks=0 activations=312 depths=[0 1 3 10 16 26 36 48 60 61 62 63 64 65 56 43 30 17] hash=6e90d514db6780dc frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"comb12x6/bfdn/k4/fixed2x2/observer",
     "rounds=89 complete=1 root=1 limit=0 edges=166 idle=8/14 moves=[82 88 44 40] reanchors=17{0:4 1:2 2:3 3:2 4:2 5:2 6:2} switches=13{1:2 2:3 3:2 4:2 5:2 6:2} blocks=0 activations=268 depths=[0 1 5 15 29 39 57 71 72 73 74 75 76 69 56 43 30 17] hash=6e90d514db6780dc frames=0/cbf29ce484222325 observed=89/4645fc0965dc306b"},
    {"comb12x6/bfdn/k4/fixed2x2/trace",
     "rounds=89 complete=1 root=1 limit=0 edges=166 idle=8/14 moves=[82 88 44 40] reanchors=17{0:4 1:2 2:3 3:2 4:2 5:2 6:2} switches=13{1:2 2:3 3:2 4:2 5:2 6:2} blocks=0 activations=268 depths=[0 1 5 15 29 39 57 71 72 73 74 75 76 69 56 43 30 17] hash=6e90d514db6780dc frames=89/561e3f8635ccee31 observed=0/cbf29ce484222325"},
    {"comb12x6/bfdn/k4/fixed2x2/check",
     "rounds=89 complete=1 root=1 limit=0 edges=166 idle=8/14 moves=[82 88 44 40] reanchors=17{0:4 1:2 2:3 3:2 4:2 5:2 6:2} switches=13{1:2 2:3 3:2 4:2 5:2 6:2} blocks=0 activations=268 depths=[0 1 5 15 29 39 57 71 72 73 74 75 76 69 56 43 30 17] hash=6e90d514db6780dc frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"star200/bfdn/k8/random-d3/observer+trace",
     "rounds=127 complete=1 root=1 limit=0 edges=398 idle=1/1 moves=[46 50 50 52 50 46 52 52] reanchors=199{0:199} switches=0{} blocks=0 activations=399 depths=[0 125] hash=386b2f3fb4f15bb7 frames=124/5aef92ab339faefc observed=124/16cbc843c4563e20"},
    {"spider9x15/bfdn/k8/sync/observer-max30",
     "rounds=30 complete=0 root=1 limit=1 edges=240 idle=0/0 moves=[30 30 30 30 30 30 30 30] reanchors=8{0:8} switches=0{} blocks=0 activations=240 depths=[0 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1] hash=675e7333344c9f82 frames=0/cbf29ce484222325 observed=30/799e2898f27df072"},
    {"star200/bfdn/k8/random-d3/observer-max30",
     "rounds=30 complete=0 root=0 limit=1 edges=88 idle=0/0 moves=[10 11 12 11 12 11 11 10] reanchors=46{0:46} switches=0{} blocks=0 activations=88 depths=[0 -1] hash=2b914e9bb4ad0706 frames=0/cbf29ce484222325 observed=30/b35e304f91271e58"},
    {"rrt400/bfdn/k8/sync/no-ff",
     "rounds=126 complete=1 root=1 limit=0 edges=798 idle=9/24 moves=[126 118 124 120 126 124 122 124] reanchors=36{0:8 1:6 2:5 3:5 4:3 5:4 6:5} switches=28{1:6 2:5 3:5 4:3 5:4 6:5} blocks=0 activations=1008 depths=[0 1 16 41 88 97 106 115 118 115] hash=f97b93288168127e frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"rrt400/bfdn/k8/random-d3/no-ff",
     "rounds=322 complete=1 root=1 limit=0 edges=798 idle=22/46 moves=[110 114 118 134 122 112 128 142] reanchors=35{0:6 1:7 2:5 3:6 4:3 5:6 7:2} switches=29{1:7 2:5 3:6 4:3 5:6 7:2} blocks=0 activations=1026 depths=[0 2 40 105 224 246 272 283 287 280] hash=f97b93288168127e frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
    {"comb12x6/bfdn-shortcut/k4/fixed2x2",
     "rounds=89 complete=1 root=1 limit=0 edges=166 idle=14/24 moves=[70 76 44 42] reanchors=20{0:4 1:2 2:3 3:1 4:3 5:1 6:1 7:2 8:1 10:2} switches=16{1:2 2:3 3:1 4:3 5:1 6:1 7:2 8:1 10:2} blocks=0 activations=256 depths=[0 1 5 15 25 31 37 45 57 59 60 61 62 63 56 43 30 17] hash=6e90d514db6780dc frames=0/cbf29ce484222325 observed=0/cbf29ce484222325"},
};
// clang-format on

TEST(SteppedGolden, EveryRunResultFieldIsPinned) {
  const std::vector<CellResult> results = run_grid();
  if (std::getenv("BFDN_GOLDEN_RECORD") != nullptr) {
    for (const CellResult& r : results) {
      std::printf("    {\"%s\",\n     \"%s\"},\n", r.cell.c_str(),
                  r.result.c_str());
    }
    GTEST_SKIP() << "recording mode: golden table printed to stdout";
  }
  ASSERT_EQ(results.size(), std::size(kGolden));
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(results[i].cell);
    EXPECT_EQ(results[i].cell, kGolden[i].cell);
    EXPECT_EQ(results[i].result, kGolden[i].result);
  }
}

// The lockstep auto-drive runs a lockstep-only algorithm exactly as the
// synchronous engine does, whatever scheduler the config names.
TEST(SteppedGolden, LockstepAutoDriveMatchesSync) {
  const std::vector<CellResult> results = run_grid();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string& cell = results[i].cell;
    const std::size_t slash = cell.rfind("/sync");
    if (slash == std::string::npos || slash + 5 != cell.size()) continue;
    ASSERT_LT(i + 1, results.size());
    if (results[i + 1].cell != cell.substr(0, slash) + "/async") continue;
    SCOPED_TRACE(cell);
    EXPECT_EQ(results[i].result, results[i + 1].result);
  }
}

}  // namespace
}  // namespace bfdn
