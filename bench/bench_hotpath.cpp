// E18 — engine-throughput bench for the simulator hot path.
//
// Measures wall-clock rounds/second of the full engine + BFDN stack on
// large instances (comb / caterpillar / star / complete binary at
// n ~ 1e5..1e6 with k in {64, 256, 1024}), the regime the ROADMAP's
// scaling PRs target. Every cell is timed twice: once with the stepped
// round loop (fast_forward = false) and once with the event-driven
// fast-forward engine, and the two runs must agree on rounds and final
// state — the bench doubles as a coarse differential check. Deep
// families are capped with --cap rounds: throughput, not completion, is
// the quantity under test. Output is one JSON document on stdout so the
// numbers land in the bench trajectory (BENCH_fastforward.json) and
// regressions are visible in review.
//
// A report-only "protocol" block times the served cache-hit path's own
// work (which runs no engine code) on the hit-storm request shape:
// ns per parse_request, request_fingerprint and ok_response.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bfdn.h"
#include "graph/generators.h"
#include "service/protocol.h"
#include "sim/engine.h"
#include "support/check.h"
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

Timed time_cell(const Config& config, bool fast_forward,
                std::int64_t repeat) {
  Timed best;
  for (std::int64_t rep = 0; rep < repeat; ++rep) {
    BfdnAlgorithm algorithm(config.k);
    RunConfig run_config;
    run_config.num_robots = config.k;
    run_config.max_rounds = config.cap;
    run_config.fast_forward = fast_forward;
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

/// A vocabulary line of the served benchmark's hit-storm workload.
constexpr const char* kHitLine =
    R"({"id":"v0","type":"run","family":"caterpillar","nodes":2000,)"
    R"("depth":40,"arms":3,"seed":96160665213566,"algo":"bfdn","k":8,)"
    R"("policy":"least-loaded","algo_seed":1,"depth_cap":-1,)"
    R"("schedule":"none"})";

/// Best-of-`repeat` ns per call of `op` over `iterations` calls.
template <typename Op>
double ns_per_op(std::int64_t iterations, std::int64_t repeat, Op&& op) {
  double best = 0;
  for (std::int64_t rep = 0; rep < repeat; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iterations; ++i) op();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(iterations);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

std::string protocol_cell(std::int64_t iterations, std::int64_t repeat) {
  const std::string line = kHitLine;
  ServiceRequest request;
  std::string error;
  BFDN_REQUIRE(parse_request(line, request, &error), error);
  // A real result object, so the envelope copies realistic bytes.
  const std::string result = execute_run(request, request.recipe.build());
  const std::uint64_t key = request_fingerprint(request);

  std::uint64_t sink = 0;  // keeps every call observable
  const double parse_ns = ns_per_op(iterations, repeat, [&] {
    ServiceRequest parsed;
    sink += parse_request(line, parsed, &error) ? 1U : 0U;
  });
  const double fingerprint_ns = ns_per_op(
      iterations, repeat, [&] { sink += request_fingerprint(request); });
  const double envelope_ns = ns_per_op(iterations, repeat, [&] {
    sink += ok_response(request.id, true, key, result).size();
  });
  BFDN_CHECK(sink != 0, "protocol ops were not run");

  JsonWriter cell;
  cell.begin_object();
  cell.kv("line_bytes", static_cast<std::int64_t>(line.size()));
  cell.kv("result_bytes", static_cast<std::int64_t>(result.size()));
  cell.kv("iterations", iterations);
  cell.kv("parse_ns", parse_ns, 1);
  cell.kv("fingerprint_ns", fingerprint_ns, 1);
  cell.kv("envelope_ns", envelope_ns, 1);
  cell.end_object();
  return cell.str();
}

int run(int argc, const char* const* argv) {
  CliParser cli("bench_hotpath",
                "stepped vs fast-forward rounds/sec of the engine round "
                "loop on large (n, k)");
  cli.add_int("cap", 20000, "max rounds per deep-family cell");
  cli.add_int("repeat", 1, "timed repetitions per cell (best is kept)");
  cli.add_bool("large", false, "add the n ~ 1e6 cells (slower)");
  cli.add_bool("smoke", false,
               "single small cell only (CI: exercises the fast-forward "
               "path in Release and checks it against stepped)");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t cap = cli.get_int("cap");
  const std::int64_t repeat = std::max<std::int64_t>(1,
                                                     cli.get_int("repeat"));

  std::vector<Config> configs;
  if (cli.get_bool("smoke")) {
    configs.push_back({"comb", make_comb(100, 99), 256, 2000});
  } else {
    // comb: deep + thin, dominated by outbound navigation and per-depth
    // frontier maintenance. spine*(tooth+1) ~ 1e5.
    configs.push_back({"comb", make_comb(316, 315), 1024, cap});
    configs.push_back({"comb", make_comb(316, 315), 256, cap});
    configs.push_back({"comb", make_comb(316, 315), 64, cap});
    // caterpillar: the deepest family (D ~ n/4); transit rounds over the
    // long spine dominate, the regime fast-forward targets.
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 1024,
                       cap});
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 256,
                       cap});
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 64,
                       cap});
    // star: maximal single-node frontier; stresses the dangling-edge
    // reservation pool and the per-round selector setup.
    configs.push_back({"star", make_star(100001), 1024, 0});
    configs.push_back({"star", make_star(100001), 64, 0});
    // complete binary: wide frontiers at every depth; stresses
    // Reanchor's candidate scan and the open-node index.
    configs.push_back({"binary", make_complete_bary(2, 16), 1024, 0});
    configs.push_back({"binary", make_complete_bary(2, 16), 256, 0});
    configs.push_back({"binary", make_complete_bary(2, 16), 64, 0});
    if (cli.get_bool("large")) {
      configs.push_back({"comb", make_comb(1000, 999), 1024, cap});
      configs.push_back({"star", make_star(1000001), 1024, 0});
      configs.push_back({"binary", make_complete_bary(2, 19), 1024, 0});
    }
  }

  int status = 0;
  std::printf("{\n  \"bench\": \"fastforward\",\n  \"cells\": [\n");
  bool first = true;
  for (const Config& config : configs) {
    const Timed stepped = time_cell(config, /*fast_forward=*/false, repeat);
    const Timed ff = time_cell(config, /*fast_forward=*/true, repeat);
    if (stepped.result.rounds != ff.result.rounds ||
        stepped.result.final_state_hash != ff.result.final_state_hash) {
      std::fprintf(stderr,
                   "bench_hotpath: fast-forward DIVERGES from stepped on "
                   "%s n=%lld k=%d (rounds %lld vs %lld)\n",
                   config.family.c_str(),
                   static_cast<long long>(config.tree.num_nodes()),
                   config.k,
                   static_cast<long long>(stepped.result.rounds),
                   static_cast<long long>(ff.result.rounds));
      status = 1;
    }
    const auto per_sec = [](const Timed& t) {
      return t.seconds > 0
                 ? static_cast<double>(t.result.rounds) / t.seconds
                 : 0.0;
    };
    const double stepped_rps = per_sec(stepped);
    const double ff_rps = per_sec(ff);
    // One compact JSON object per cell, emitted as the sweep runs so a
    // long bench shows progress; the envelope above/below makes the
    // whole stdout one document.
    JsonWriter cell;
    cell.begin_object();
    cell.kv("family", config.family);
    cell.kv("n", config.tree.num_nodes());
    cell.kv("k", config.k);
    cell.kv("rounds", ff.result.rounds);
    cell.kv("complete", ff.result.complete);
    cell.kv("stepped_wall_s", stepped.seconds, 4);
    cell.kv("stepped_rounds_per_sec", stepped_rps, 1);
    cell.kv("ff_wall_s", ff.seconds, 4);
    cell.kv("ff_rounds_per_sec", ff_rps, 1);
    cell.kv("speedup", stepped_rps > 0 ? ff_rps / stepped_rps : 0.0, 2);
    cell.end_object();
    std::printf("%s    %s", first ? "" : ",\n", cell.str().c_str());
    first = false;
    std::fflush(stdout);
  }
  std::printf("\n  ],\n  \"protocol\": %s\n}\n",
              protocol_cell(cli.get_bool("smoke") ? 20000 : 200000, repeat)
                  .c_str());
  return status;
}

}  // namespace
}  // namespace bfdn

int main(int argc, char** argv) { return bfdn::run(argc, argv); }
