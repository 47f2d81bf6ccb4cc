// E20 — campaign-throughput bench for the batch executor.
//
// Measures aggregate rounds/second of a width-R seed-sweep campaign
// executed through sim/BatchExecutor on the BENCH_fastforward comb
// cells (comb(316, 315), k in {1024, 256, 64}, capped at --cap
// rounds), against the solo loop that runs the same R members as R
// independent fast-forward engine invocations. The seed sweep is
// coalescible — BFDN under the least-loaded policy never consumes its
// seed — so the batch path executes one distinct run and replicates
// it, which is the shape the service's campaign requests feed it. The
// gated speed-up therefore comes from coalescing alone. One
// report-only cell (full mode, comb k=256) sweeps the random policy,
// whose members all consume their seeds and cannot coalesce: there the
// batch runs all R members one after another, like the solo loop, and
// reads about 1.0x. Every cell doubles as a differential check: each
// member's batched RunResult must match its own solo run (rounds +
// final_state_hash), a divergence is a hard error.
//
// Gates (a failed gate is exit status 1, visible in CI; the
// random-policy cell is never gated):
//   full mode:  aggregate rounds/s >= 5x the frozen BENCH_fastforward
//               ff_rounds_per_sec of the matching comb cell;
//   --smoke:    aggregate rounds/s >= 3x the solo loop measured
//               in-process on one small cell (machine-independent).
// Output is one JSON document on stdout (BENCH_campaign.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bfdn.h"
#include "graph/generators.h"
#include "sim/batch_executor.h"
#include "sim/engine.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/strings.h"

namespace bfdn {
namespace {

struct Config {
  std::string family;
  Tree tree;
  std::int32_t k;
  std::int64_t cap;  // 0 = run to completion
  /// Frozen ff_rounds_per_sec of the matching BENCH_fastforward comb
  /// cell; 0 means "no frozen baseline, gate against the measured solo
  /// loop" (smoke mode).
  double frozen_solo_rps;
  /// Random reanchor policy: members consume their seeds, so nothing
  /// coalesces. Such a cell is reported but not gated.
  bool random_policy = false;
};

RunConfig member_config(const Config& config) {
  RunConfig run_config;
  run_config.num_robots = config.k;
  run_config.max_rounds = config.cap;
  run_config.fast_forward = true;
  return run_config;
}

BfdnOptions member_options(const Config& config, std::int64_t seed) {
  BfdnOptions options;  // least-loaded policy: seed-blind by design
  if (config.random_policy) options.policy = ReanchorPolicy::kRandom;
  options.seed = static_cast<std::uint64_t>(seed);
  return options;
}

int run(int argc, const char* const* argv) {
  CliParser cli("bench_campaign",
                "aggregate rounds/sec of a width-R seed-sweep campaign "
                "through the batch executor vs R independent solo runs");
  cli.add_int("cap", 20000, "max rounds per cell");
  cli.add_int("width", 8, "campaign members per cell (R)");
  cli.add_int("repeat", 1, "timed repetitions per cell (best is kept)");
  cli.add_bool("smoke", false,
               "single small cell, gated against the in-process solo "
               "loop instead of the frozen baseline (CI)");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t cap = cli.get_int("cap");
  const std::int64_t width = std::max<std::int64_t>(1,
                                                    cli.get_int("width"));
  const std::int64_t repeat = std::max<std::int64_t>(1,
                                                     cli.get_int("repeat"));

  std::vector<Config> configs;
  double gate_factor = 5.0;
  if (cli.get_bool("smoke")) {
    configs.push_back({"comb", make_comb(100, 99), 256, 2000, 0.0});
    gate_factor = 3.0;
  } else {
    // The BENCH_fastforward comb cells with their frozen
    // ff_rounds_per_sec (the solo fast-forward engine's throughput on
    // the reference machine — see BENCH_fastforward.json).
    configs.push_back({"comb", make_comb(316, 315), 1024, cap, 77691.0});
    configs.push_back({"comb", make_comb(316, 315), 256, cap, 222181.3});
    configs.push_back({"comb", make_comb(316, 315), 64, cap, 639052.6});
    configs.push_back({"comb", make_comb(316, 315), 256, cap, 0.0, true});
  }

  int status = 0;
  std::printf("{\n  \"bench\": \"campaign\",\n  \"cells\": [\n");
  bool first = true;
  for (const Config& config : configs) {
    // Solo loop: the same R members as R independent engine runs.
    // Timed even in full mode so the JSON records the machine's own
    // solo throughput next to the frozen baseline.
    std::vector<RunResult> solo(static_cast<std::size_t>(width));
    double solo_seconds = 0;
    for (std::int64_t rep = 0; rep < repeat; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (std::int64_t i = 0; i < width; ++i) {
        BfdnAlgorithm algorithm(config.k, member_options(config, i + 1));
        solo[static_cast<std::size_t>(i)] =
            run_exploration(config.tree, algorithm, member_config(config));
      }
      const auto stop = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(stop - start).count();
      if (rep == 0 || seconds < solo_seconds) solo_seconds = seconds;
    }

    // Batched campaign: one BatchExecutor pass, seed sweep tagged with
    // one coalesce key per (algo, k) — the shape the scheduler's
    // batch_coalesce_key produces for these members. Random-policy
    // members get no key, as batch_coalesce_key gives them none.
    std::vector<RunResult> batched;
    double batch_seconds = 0;
    BatchExecutor::Stats batch_stats;
    for (std::int64_t rep = 0; rep < repeat; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      BatchExecutor batch(config.tree);
      for (std::int64_t i = 0; i < width; ++i) {
        batch.add_member(
            std::make_unique<BfdnAlgorithm>(config.k,
                                            member_options(config, i + 1)),
            member_config(config),
            config.random_policy
                ? std::string()
                : str_format("bfdn-least-loaded-k%d", config.k));
      }
      std::vector<RunResult> results = batch.run();
      const auto stop = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(stop - start).count();
      if (rep == 0 || seconds < batch_seconds) {
        batch_seconds = seconds;
        batch_stats = batch.stats();
      }
      batched = std::move(results);
    }

    // Differential check: run for run against the solo engine.
    std::int64_t total_rounds = 0;
    for (std::int64_t i = 0; i < width; ++i) {
      const auto& b = batched[static_cast<std::size_t>(i)];
      const auto& s = solo[static_cast<std::size_t>(i)];
      total_rounds += b.rounds;
      if (b.rounds != s.rounds ||
          b.final_state_hash != s.final_state_hash) {
        std::fprintf(stderr,
                     "bench_campaign: batched member %lld DIVERGES from "
                     "its solo run on %s n=%lld k=%d (rounds %lld vs "
                     "%lld)\n",
                     static_cast<long long>(i), config.family.c_str(),
                     static_cast<long long>(config.tree.num_nodes()),
                     config.k, static_cast<long long>(b.rounds),
                     static_cast<long long>(s.rounds));
        status = 1;
      }
    }

    const double batch_rps =
        batch_seconds > 0 ? static_cast<double>(total_rounds) /
                                batch_seconds
                          : 0.0;
    const double solo_rps =
        solo_seconds > 0 ? static_cast<double>(total_rounds) /
                               solo_seconds
                         : 0.0;
    // Full mode gates against the frozen solo baseline (the recorded
    // reference-machine number the issue names); smoke mode against
    // the solo loop just measured, so the CI gate tracks the machine
    // it runs on.
    const double gate_baseline =
        config.frozen_solo_rps > 0 ? config.frozen_solo_rps : solo_rps;
    const double gate_rps = gate_factor * gate_baseline;
    const bool gated = !config.random_policy;
    const bool pass = !gated || batch_rps >= gate_rps;
    if (!pass) {
      std::fprintf(stderr,
                   "bench_campaign: GATE FAILED on %s n=%lld k=%d: "
                   "%.1f aggregate rounds/s < %.1fx baseline %.1f\n",
                   config.family.c_str(),
                   static_cast<long long>(config.tree.num_nodes()),
                   config.k, batch_rps, gate_factor, gate_baseline);
      status = 1;
    }

    JsonWriter cell;
    cell.begin_object();
    cell.kv("family", config.family);
    cell.kv("n", config.tree.num_nodes());
    cell.kv("k", config.k);
    cell.kv("policy", config.random_policy ? "random" : "least-loaded");
    cell.kv("width", width);
    cell.kv("distinct_runs", batch_stats.distinct_runs);
    cell.kv("coalesced", batch_stats.coalesced);
    cell.kv("aggregate_rounds", total_rounds);
    cell.kv("batch_wall_s", batch_seconds, 4);
    cell.kv("batch_rounds_per_sec", batch_rps, 1);
    cell.kv("solo_wall_s", solo_seconds, 4);
    cell.kv("solo_rounds_per_sec", solo_rps, 1);
    if (config.frozen_solo_rps > 0) {
      cell.kv("frozen_solo_rounds_per_sec", config.frozen_solo_rps, 1);
    }
    cell.kv("speedup_vs_gate_baseline",
            gate_baseline > 0 ? batch_rps / gate_baseline : 0.0, 2);
    cell.kv("gated", gated);
    cell.kv("gate_factor", gate_factor, 1);
    cell.kv("pass", pass);
    cell.end_object();
    std::printf("%s    %s", first ? "" : ",\n", cell.str().c_str());
    first = false;
    std::fflush(stdout);
  }
  std::printf("\n  ]\n}\n");
  return status;
}

}  // namespace
}  // namespace bfdn

int main(int argc, char** argv) { return bfdn::run(argc, argv); }
