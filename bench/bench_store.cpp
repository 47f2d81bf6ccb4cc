// E21 — durable result-store bench: what persistence buys and costs.
//
// Three measured sections, all in-process (ServiceServer + loopback
// ServiceClient workers, same transport as bfdn_load):
//
//   write_behind: cold-phase req/s with the store's group-commit
//     write-behind enabled vs an identical server without a store
//     (--no-store equivalent), reported only; the store flushes off the
//     request path, which its counters show.
//   restart: fill a fresh store with unique requests, drain the server
//     (flushes the store), boot a second server over the same
//     directory, and replay a Zipf mix over the served set. Every
//     first-pass request should hit recovered segments instead of
//     recomputing — the warm-start payoff.
//   recovery: ResultStore boot time vs store size, over synthetic
//     directories of N records (mmap + checksum scan + index rebuild).
//
// Gates (a failed gate is exit status 1, visible in CI):
//   write-behind counters, both modes: no write or fdatasync ran
//               holding the store mutex (so no get or put waited on
//               flush IO), each flush fdatasyncs at least once and at
//               most once per segment, every cold result appended once,
//               nothing pending after the drain;
//   full mode:  rewarm hit rate >= 0.8, rewarm req/s >= 5x cold req/s;
//   --smoke:    hit rate >= 0.8, rewarm >= 3x cold (small counts, noisy
//               CI machines).
// Output is one JSON document on stdout (BENCH_store.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/server.h"
#include "store/result_store.h"
#include "support/check.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"

namespace bfdn {
namespace {

namespace fs = std::filesystem;

/// Deterministic unique-request vocabulary (same spirit as bfdn_load's
/// mix: paired recipe seeds, alternating k).
ServiceRequest make_request(std::int64_t index, std::int64_t nodes) {
  static constexpr const char* kFamilies[] = {"fixed-depth", "random",
                                              "caterpillar", "spider"};
  ServiceRequest request;
  request.id = str_format("b%lld", static_cast<long long>(index));
  const std::int64_t recipe_index = index / 2;
  request.recipe.family = kFamilies[recipe_index % 4];
  request.recipe.nodes = nodes;
  request.recipe.depth = static_cast<std::int32_t>(
      std::max<std::int64_t>(4, std::min<std::int64_t>(40, nodes / 16)));
  request.recipe.arms =
      request.recipe.family == std::string("spider") ? 8 : 3;
  request.recipe.seed = static_cast<std::uint64_t>(5000 + recipe_index);
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = index % 2 == 0 ? 8 : 16;
  return request;
}

struct PhaseResult {
  double wall_s = 0;
  std::int64_t ok = 0;
  std::int64_t cached = 0;
  std::int64_t errors = 0;
  double rps() const {
    return wall_s > 0 ? static_cast<double>(ok) / wall_s : 0;
  }
  double hit_rate() const {
    return ok > 0 ? static_cast<double>(cached) / static_cast<double>(ok)
                  : 0;
  }
};

PhaseResult run_requests(std::uint16_t port, std::int32_t connections,
                         const std::vector<ServiceRequest>& plan) {
  std::vector<PhaseResult> tallies(
      static_cast<std::size_t>(connections));
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (std::int32_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      PhaseResult& mine = tallies[static_cast<std::size_t>(w)];
      ServiceClient client(port);
      for (std::size_t i = static_cast<std::size_t>(w); i < plan.size();
           i += static_cast<std::size_t>(connections)) {
        const JsonValue response = client.run(plan[i], 500);
        if (response.get_string("status", "") != "ok") {
          ++mine.errors;
          continue;
        }
        ++mine.ok;
        if (response.get_bool("cached", false)) ++mine.cached;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  PhaseResult total;
  total.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  for (const PhaseResult& t : tallies) {
    total.ok += t.ok;
    total.cached += t.cached;
    total.errors += t.errors;
  }
  return total;
}

ServerOptions bench_server(const std::string& store_dir) {
  ServerOptions options;
  options.threads = 4;
  options.queue_capacity = 64;
  options.cache_capacity = 4096;
  options.store_dir = store_dir;
  options.store_flush_ms = 5;
  return options;
}

std::string scratch_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("bfdn_bench_store_" + name);
  fs::remove_all(dir);
  return dir.string();
}

int run(int argc, const char* const* argv) {
  CliParser cli("bench_store",
                "durable result store: write-behind overhead, restart "
                "warm-start throughput, boot recovery time");
  cli.add_int("cold", 96, "unique requests in the fill/cold phase");
  cli.add_int("warm", 384, "Zipf requests replayed after the restart");
  cli.add_int("connections", 4, "concurrent client connections");
  cli.add_int("nodes", 2000, "tree size of generated requests");
  cli.add_int("reps", 3,
              "repetitions of each overhead arm (best-of, noise guard)");
  cli.add_double("zipf-s", 1.1, "Zipf exponent over served ranks");
  cli.add_bool("smoke", false, "small counts + relaxed gates (CI)");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_bool("smoke");
  const std::int64_t cold_n =
      smoke ? 32 : std::max<std::int64_t>(4, cli.get_int("cold"));
  const std::int64_t warm_n =
      smoke ? 128 : std::max<std::int64_t>(4, cli.get_int("warm"));
  const std::int64_t nodes = smoke ? 300 : cli.get_int("nodes");
  const auto connections = static_cast<std::int32_t>(
      std::max<std::int64_t>(1, cli.get_int("connections")));
  const std::int64_t reps =
      std::max<std::int64_t>(1, cli.get_int("reps"));
  const double hit_gate = 0.8;
  const double speedup_gate = smoke ? 3.0 : 5.0;

  std::vector<ServiceRequest> cold_plan;
  for (std::int64_t i = 0; i < cold_n; ++i) {
    cold_plan.push_back(make_request(i, nodes));
  }

  // --- write-behind: no-store vs store, best-of `reps` ---
  // Arms alternate so drift (thermal, page cache) hits both equally.
  // Their throughput ratio is reported only: on a shared host it drifts
  // past any useful bound. The gate is the store's own counters, which
  // do not depend on timing: no write or fdatasync held the store mutex
  // (which every get and put takes), every flush made at least one
  // fdatasync and at most one per segment, and each cold result was
  // appended once.
  double best_nostore_rps = 0;
  double best_store_rps = 0;
  std::int64_t phase_errors = 0;
  std::int64_t locked_io = 0;
  std::int64_t flushes = 0;
  std::int64_t syncs = 0;
  std::int64_t max_syncs = 0;  // Σ flushes × segments over the reps
  std::int64_t appended = 0;
  std::int64_t left_pending = 0;
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    {
      ServiceServer server(bench_server(""));
      server.start();
      const PhaseResult result =
          run_requests(server.port(), connections, cold_plan);
      best_nostore_rps = std::max(best_nostore_rps, result.rps());
      phase_errors += result.errors + result.cached;  // cold: no hits
      server.drain();
    }
    {
      const std::string dir =
          scratch_dir(str_format("overhead_%lld",
                                 static_cast<long long>(rep)));
      ServiceServer server(bench_server(dir));
      server.start();
      const PhaseResult result =
          run_requests(server.port(), connections, cold_plan);
      best_store_rps = std::max(best_store_rps, result.rps());
      phase_errors += result.errors + result.cached;
      server.drain();
      const StoreStats store = server.store()->stats();
      locked_io += store.locked_io;
      flushes += store.flushes;
      syncs += store.syncs;
      max_syncs += store.flushes * store.segments;
      appended += store.appended_records;
      left_pending += store.pending_records;
      fs::remove_all(dir);
    }
  }
  const double overhead =
      best_nostore_rps > 0 ? 1.0 - best_store_rps / best_nostore_rps : 1.0;
  const bool write_behind_pass =
      locked_io == 0 && flushes >= reps && syncs >= flushes &&
      syncs <= max_syncs && appended == reps * cold_n && left_pending == 0;

  // --- restart warm-start: fill, bounce, Zipf replay ---
  const std::string restart_dir = scratch_dir("restart");
  double cold_rps = 0;
  {
    ServiceServer server(bench_server(restart_dir));
    server.start();
    const PhaseResult fill =
        run_requests(server.port(), connections, cold_plan);
    phase_errors += fill.errors + fill.cached;
    cold_rps = fill.rps();
    server.drain();  // flushes the store
  }

  std::vector<double> zipf(static_cast<std::size_t>(cold_n));
  for (std::int64_t r = 0; r < cold_n; ++r) {
    zipf[static_cast<std::size_t>(r)] =
        1.0 / std::pow(static_cast<double>(r + 1),
                       cli.get_double("zipf-s"));
  }
  Rng rng(21);
  std::vector<ServiceRequest> warm_plan;
  for (std::int64_t i = 0; i < warm_n; ++i) {
    const auto rank = static_cast<std::int64_t>(rng.next_weighted(zipf));
    ServiceRequest request = make_request(rank, nodes);
    request.id = str_format("z%lld", static_cast<long long>(i));
    warm_plan.push_back(std::move(request));
  }

  const auto boot_start = std::chrono::steady_clock::now();
  ServiceServer restarted(bench_server(restart_dir));
  const double boot_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - boot_start)
                            .count();
  restarted.start();
  const PhaseResult rewarm =
      run_requests(restarted.port(), connections, warm_plan);
  const StoreStats restart_store = restarted.store()->stats();
  restarted.drain();
  phase_errors += rewarm.errors;
  const double speedup = cold_rps > 0 ? rewarm.rps() / cold_rps : 0;
  const bool hit_pass = rewarm.hit_rate() >= hit_gate;
  const bool speedup_pass = speedup >= speedup_gate;
  fs::remove_all(restart_dir);

  // --- boot recovery time vs store size (direct, no service) ---
  struct RecoveryPoint {
    std::int64_t records;
    std::int64_t file_bytes;
    double boot_s;
  };
  std::vector<RecoveryPoint> recovery;
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{500, 2000}
            : std::vector<std::int64_t>{1000, 4000, 16000};
  for (const std::int64_t count : sizes) {
    const std::string dir = scratch_dir(
        str_format("recovery_%lld", static_cast<long long>(count)));
    StoreOptions options;
    options.dir = dir;
    options.segment_bytes = 1u << 20;
    options.sync_on_flush = false;  // building the fixture, not timing it
    {
      ResultStore store(options);
      for (std::int64_t i = 0; i < count; ++i) {
        // ~330-byte payloads, the size of a typical result object.
        store.put(static_cast<std::uint64_t>(i + 1),
                  str_format("{\"n\":%lld,\"blob\":\"%s\"}",
                             static_cast<long long>(i),
                             std::string(300, 'r').c_str()));
      }
    }
    const auto start = std::chrono::steady_clock::now();
    ResultStore store(options);
    RecoveryPoint point;
    point.boot_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    point.records = store.stats().recovered_records;
    point.file_bytes = store.stats().file_bytes;
    BFDN_CHECK(point.records == count, "recovery lost records");
    recovery.push_back(point);
    fs::remove_all(dir);
  }

  const bool pass =
      write_behind_pass && hit_pass && speedup_pass && phase_errors == 0;

  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.kv("bench", "store");
  w.kv("smoke", smoke);
  w.kv("connections", connections);
  w.kv("nodes", nodes);
  w.key("write_behind").begin_object();
  w.kv("cold_requests", cold_n);
  w.kv("reps", reps);
  w.kv("no_store_rps", best_nostore_rps, 1);
  w.kv("store_rps", best_store_rps, 1);
  w.kv("overhead_frac", overhead, 4);
  w.kv("locked_io", locked_io);
  w.kv("flushes", flushes);
  w.kv("syncs", syncs);
  w.kv("max_syncs", max_syncs);
  w.kv("appended_records", appended);
  w.kv("pending_after_drain", left_pending);
  w.kv("pass", write_behind_pass);
  w.end_object();
  w.key("restart").begin_object();
  w.kv("fill_requests", cold_n);
  w.kv("rewarm_requests", warm_n);
  w.kv("cold_rps", cold_rps, 1);
  w.kv("boot_s", boot_s, 5);
  w.kv("recovered_records", restart_store.recovered_records);
  w.kv("segments", restart_store.segments);
  w.kv("rewarm_rps", rewarm.rps(), 1);
  w.kv("hit_rate", rewarm.hit_rate(), 4);
  w.kv("gate_min_hit_rate", hit_gate, 2);
  w.kv("speedup_vs_cold", speedup, 2);
  w.kv("gate_min_speedup", speedup_gate, 1);
  w.kv("pass", hit_pass && speedup_pass);
  w.end_object();
  w.key("recovery").begin_array();
  for (const RecoveryPoint& point : recovery) {
    w.begin_object();
    w.kv("records", point.records);
    w.kv("file_bytes", point.file_bytes);
    w.kv("boot_s", point.boot_s, 5);
    w.kv("records_per_sec",
         point.boot_s > 0 ? static_cast<double>(point.records) /
                                point.boot_s
                          : 0,
         0);
    w.end_object();
  }
  w.end_array();
  w.kv("phase_errors", phase_errors);
  w.kv("pass", pass);
  w.end_object();
  std::printf("%s\n", w.str().c_str());

  if (!pass) {
    std::fprintf(stderr,
                 "bench_store: gate failed (write-behind counters: %s, "
                 "hit %.4f >= %.2f: %s, speedup %.2f >= %.1f: %s, "
                 "errors %lld)\n",
                 write_behind_pass ? "ok" : "FAIL",
                 rewarm.hit_rate(), hit_gate, hit_pass ? "ok" : "FAIL",
                 speedup, speedup_gate, speedup_pass ? "ok" : "FAIL",
                 static_cast<long long>(phase_errors));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bfdn

int main(int argc, char** argv) {
  try {
    return bfdn::run(argc, argv);
  } catch (const bfdn::CheckError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
