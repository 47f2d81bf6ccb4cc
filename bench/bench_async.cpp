// E19 — async vs lockstep engine throughput (per-robot clocks).
//
// Measures wall-clock rounds/second and activations/second of the
// BFDN stack under each built-in AsyncScheduler (round-robin,
// fixed-rate heterogeneous, adversarial laggard, seed-driven random)
// against the synchronous lockstep engine on the two deep families the
// async event loop targets (comb, caterpillar). Round-robin activation
// is required to agree with lockstep on rounds, total activations and
// the final state hash — the bench doubles as a coarse differential
// check, mirroring bench_hotpath's stepped-vs-fast-forward contract.
// With --smoke every async mode's fast-forward run must also equal its
// stepped async run (forced by an observer) in every RunResult field.
// Output is one JSON document on stdout so the numbers land in the
// bench trajectory (BENCH_async.json).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adversarial/async_scheduler.h"
#include "core/bfdn.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "support/cli.h"
#include "support/json.h"

namespace bfdn {
namespace {

struct Config {
  std::string family;
  Tree tree;
  std::int32_t k;
  std::int64_t cap;  // 0 = run to completion
};

struct Timed {
  double seconds = 0;
  RunResult result;
};

/// One scheduler mode per cell; scheduler == nullptr is the lockstep
/// baseline (the plain synchronous engine, no RunConfig::async).
struct Mode {
  std::string name;
  std::unique_ptr<AsyncScheduler> scheduler;
};

std::vector<Mode> make_modes(std::int32_t k) {
  std::vector<Mode> modes;
  modes.push_back({"lockstep", nullptr});
  modes.push_back({"round-robin", std::make_unique<RoundRobinScheduler>()});
  // Half the fleet at half speed: the heterogeneous regime.
  modes.push_back({"fixed-rate",
                   std::make_unique<FixedRateScheduler>(k, 2, k / 2)});
  // A few robots starved in long bursts: the adversarial regime.
  modes.push_back({"laggard",
                   std::make_unique<LaggardScheduler>(
                       k, 32, std::max<std::int32_t>(1, k / 8))});
  modes.push_back({"random", std::make_unique<RandomScheduler>(1, 3)});
  return modes;
}

/// Observer that records nothing; attaching it forces the stepped
/// async loop.
class NoOpObserver : public RoundObserver {
 public:
  void on_round(std::int64_t, const ExplorationState&) override {}
};

/// The first RunResult field in which an async fast-forward run differs
/// from its stepped async reference; empty if they all agree.
std::string first_difference(const RunResult& ff, const RunResult& stepped) {
  if (ff.rounds != stepped.rounds) return "rounds";
  if (ff.complete != stepped.complete) return "complete";
  if (ff.all_at_root != stepped.all_at_root) return "all_at_root";
  if (ff.hit_round_limit != stepped.hit_round_limit) return "hit_round_limit";
  if (ff.edge_events != stepped.edge_events) return "edge_events";
  if (ff.rounds_with_idle != stepped.rounds_with_idle) {
    return "rounds_with_idle";
  }
  if (ff.idle_robot_rounds != stepped.idle_robot_rounds) {
    return "idle_robot_rounds";
  }
  if (ff.total_activations != stepped.total_activations) {
    return "total_activations";
  }
  if (ff.robot_moves != stepped.robot_moves) return "robot_moves";
  if (ff.total_reanchors != stepped.total_reanchors ||
      ff.reanchors_by_depth.to_string() !=
          stepped.reanchors_by_depth.to_string()) {
    return "reanchors_by_depth";
  }
  if (ff.total_reanchor_switches != stepped.total_reanchor_switches ||
      ff.reanchor_switches_by_depth.to_string() !=
          stepped.reanchor_switches_by_depth.to_string()) {
    return "reanchor_switches_by_depth";
  }
  if (ff.depth_completed_round != stepped.depth_completed_round) {
    return "depth_completed_round";
  }
  if (ff.final_state_hash != stepped.final_state_hash) {
    return "final_state_hash";
  }
  return "";
}

RunResult run_stepped(const Config& config, AsyncScheduler* scheduler) {
  BfdnAlgorithm algorithm(config.k);
  NoOpObserver observer;
  RunConfig run_config;
  run_config.num_robots = config.k;
  run_config.max_rounds = config.cap;
  run_config.async = scheduler;
  run_config.observer = &observer;
  return run_exploration(config.tree, algorithm, run_config);
}

Timed time_cell(const Config& config, AsyncScheduler* scheduler,
                std::int64_t repeat) {
  Timed best;
  for (std::int64_t rep = 0; rep < repeat; ++rep) {
    BfdnAlgorithm algorithm(config.k);
    RunConfig run_config;
    run_config.num_robots = config.k;
    run_config.max_rounds = config.cap;
    run_config.async = scheduler;
    const auto start = std::chrono::steady_clock::now();
    RunResult result = run_exploration(config.tree, algorithm, run_config);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
    best.result = std::move(result);
  }
  return best;
}

int run(int argc, const char* const* argv) {
  CliParser cli("bench_async",
                "async scheduler zoo vs lockstep rounds/sec and "
                "activations/sec of the engine on deep families");
  cli.add_int("cap", 20000, "max rounds (event times) per cell");
  cli.add_int("repeat", 1, "timed repetitions per cell (best is kept)");
  cli.add_bool("smoke", false,
               "single small cell only (CI: exercises the async event "
               "loop in Release, checks round-robin against lockstep "
               "and every async fast-forward run against its stepped "
               "async run)");
  if (!cli.parse(argc, argv)) return 0;
  const bool smoke = cli.get_bool("smoke");
  const std::int64_t cap = cli.get_int("cap");
  const std::int64_t repeat = std::max<std::int64_t>(1,
                                                     cli.get_int("repeat"));

  std::vector<Config> configs;
  if (smoke) {
    configs.push_back({"comb", make_comb(100, 99), 64, 2000});
  } else {
    // comb: deep + thin, the frontier-maintenance regime. spine *
    // (tooth + 1) ~ 1e5.
    configs.push_back({"comb", make_comb(316, 315), 256, cap});
    configs.push_back({"comb", make_comb(316, 315), 64, cap});
    // caterpillar: the deepest family (D ~ n/4); long committed-transit
    // walks, the regime the fast-forward loop targets.
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 256,
                       cap});
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 64,
                       cap});
  }

  int status = 0;
  std::printf("{\n  \"bench\": \"async\",\n  \"cells\": [\n");
  bool first = true;
  for (const Config& config : configs) {
    const std::vector<Mode> modes = make_modes(config.k);
    // modes[0] is lockstep: time it first, then judge every async mode
    // against it (round-robin must agree bit-exactly).
    Timed lockstep;
    double lockstep_rps = 0;
    for (const Mode& mode : modes) {
      const Timed timed = time_cell(config, mode.scheduler.get(), repeat);
      if (mode.scheduler == nullptr) {
        lockstep = timed;
        lockstep_rps =
            timed.seconds > 0
                ? static_cast<double>(timed.result.rounds) / timed.seconds
                : 0.0;
      } else if (mode.scheduler->lockstep() &&
                 (timed.result.rounds != lockstep.result.rounds ||
                  timed.result.total_activations !=
                      lockstep.result.total_activations ||
                  timed.result.final_state_hash !=
                      lockstep.result.final_state_hash)) {
        std::fprintf(stderr,
                     "bench_async: %s DIVERGES from lockstep on %s "
                     "n=%lld k=%d (rounds %lld vs %lld)\n",
                     mode.name.c_str(), config.family.c_str(),
                     static_cast<long long>(config.tree.num_nodes()),
                     config.k,
                     static_cast<long long>(timed.result.rounds),
                     static_cast<long long>(lockstep.result.rounds));
        status = 1;
      }
      if (smoke && mode.scheduler != nullptr) {
        const std::string field =
            first_difference(timed.result,
                             run_stepped(config, mode.scheduler.get()));
        if (!field.empty()) {
          std::fprintf(stderr,
                       "bench_async: %s fast-forward DIVERGES from its "
                       "stepped async run on %s n=%lld k=%d (%s)\n",
                       mode.name.c_str(), config.family.c_str(),
                       static_cast<long long>(config.tree.num_nodes()),
                       config.k, field.c_str());
          status = 1;
        }
      }
      const double rps =
          timed.seconds > 0
              ? static_cast<double>(timed.result.rounds) / timed.seconds
              : 0.0;
      const double aps =
          timed.seconds > 0
              ? static_cast<double>(timed.result.total_activations) /
                    timed.seconds
              : 0.0;
      JsonWriter cell;
      cell.begin_object();
      cell.kv("family", config.family);
      cell.kv("n", config.tree.num_nodes());
      cell.kv("k", config.k);
      cell.kv("mode", mode.name);
      cell.kv("rounds", timed.result.rounds);
      cell.kv("total_activations", timed.result.total_activations);
      cell.kv("complete", timed.result.complete);
      cell.kv("wall_s", timed.seconds, 4);
      cell.kv("rounds_per_sec", rps, 1);
      cell.kv("activations_per_sec", aps, 1);
      cell.kv("vs_lockstep",
              lockstep_rps > 0 ? rps / lockstep_rps : 0.0, 2);
      cell.end_object();
      std::printf("%s    %s", first ? "" : ",\n", cell.str().c_str());
      first = false;
      std::fflush(stdout);
    }
  }
  std::printf("\n  ]\n}\n");
  return status;
}

}  // namespace
}  // namespace bfdn

int main(int argc, char** argv) { return bfdn::run(argc, argv); }
