// Tests for the exploration service (src/service): protocol round
// trips, content-addressed cache semantics, scheduler admission
// control, and the end-to-end contract — a served run is bit-identical
// to the same run through the engine directly.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "sim/engine.h"
#include "support/check.h"
#include "support/socket.h"
#include "support/strings.h"
#include "verify/spec.h"

namespace bfdn {
namespace {

// Positional ServerOptions literals predate the store fields; build
// options by assignment so new trailing members keep their defaults.
ServerOptions server_options(std::int32_t threads, std::int32_t queue,
                             std::size_t cache,
                             std::int32_t retry_after_ms = 20,
                             std::int64_t max_nodes = 1000000) {
  ServerOptions options;
  options.threads = threads;
  options.queue_capacity = queue;
  options.cache_capacity = cache;
  options.retry_after_ms = retry_after_ms;
  options.max_nodes = max_nodes;
  return options;
}

ServiceRequest golden_request() {
  ServiceRequest request;
  request.id = "g";
  request.recipe.family = "comb";
  request.recipe.arms = 12;
  request.recipe.depth = 6;
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = 4;
  return request;
}

/// A request whose run takes on the order of a second: a long path with
/// fast-forward off (implied by invariant checking), so the admission
/// window stays occupied long enough to observe backpressure and drain
/// behaviour deterministically.
ServiceRequest slow_request() {
  ServiceRequest request;
  request.id = "slow";
  request.recipe.family = "path";
  request.recipe.nodes = 12000;
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = 2;
  request.check_invariants = true;
  return request;
}

// --- protocol ---

TEST(ServiceProtocolTest, SerializeParseRoundTrip) {
  ServiceRequest request;
  request.id = "req-1";
  request.recipe = TreeRecipe{"spider", 400, 9, 6, 77};
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = 8;
  request.algo.options.shortcut_reanchor = true;
  request.algo.options.policy = ReanchorPolicy::kRandom;
  request.algo.options.seed = 123456789;
  request.algo.options.depth_cap = 5;
  request.schedule.kind = ScheduleKind::kBurst;
  request.schedule.horizon = 5000;
  request.schedule.period = 3;
  request.max_rounds = 9000;
  request.fast_forward = false;
  request.check_invariants = true;

  const std::string line = serialize_request(request);
  ServiceRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(line, parsed, &error)) << error;
  EXPECT_EQ(serialize_request(parsed), line);
  EXPECT_EQ(canonical_request(parsed), canonical_request(request));
  EXPECT_EQ(request_fingerprint(parsed), request_fingerprint(request));
}

TEST(ServiceProtocolTest, AsyncSerializeParseRoundTrip) {
  ServiceRequest request;
  request.id = "req-async";
  request.recipe = TreeRecipe{"comb", 300, 8, 6, 11};
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = 6;
  request.async.kind = AsyncKind::kLaggard;
  request.async.seed = 99;
  request.async.max_delay = 4;
  request.async.period = 3;
  request.async.num_slow = 2;

  const std::string line = serialize_request(request);
  ServiceRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(line, parsed, &error)) << error;
  EXPECT_EQ(serialize_request(parsed), line);
  EXPECT_EQ(canonical_request(parsed), canonical_request(request));
  EXPECT_EQ(request_fingerprint(parsed), request_fingerprint(request));

  // The async axis is a semantic field: it must separate cache keys
  // from the synchronous request and from other async kinds.
  ServiceRequest other = request;
  other.async.kind = AsyncKind::kNone;
  EXPECT_NE(request_fingerprint(request), request_fingerprint(other));
  other = request;
  other.async.kind = AsyncKind::kFixedRate;
  EXPECT_NE(request_fingerprint(request), request_fingerprint(other));
}

TEST(ServiceProtocolTest, ParseRejectsAsyncCombinedWithSchedule) {
  ServiceRequest out;
  std::string error;
  EXPECT_FALSE(parse_request(
      "{\"type\":\"run\",\"schedule\":\"burst\",\"horizon\":100,"
      "\"async\":\"laggard\"}",
      out, &error));
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
  EXPECT_FALSE(parse_request("{\"type\":\"run\",\"async\":\"warped\"}",
                             out, &error));
  EXPECT_NE(error.find("async"), std::string::npos);
  EXPECT_FALSE(parse_request(
      "{\"type\":\"run\",\"async\":\"fixed-rate\",\"async_period\":0}",
      out, &error));
}

TEST(ServiceProtocolTest, FingerprintIgnoresRequestId) {
  ServiceRequest a = golden_request();
  ServiceRequest b = golden_request();
  b.id = "entirely-different";
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));
}

TEST(ServiceProtocolTest, FingerprintSeparatesSemanticFields) {
  const ServiceRequest base = golden_request();
  ServiceRequest other = base;
  other.algo.k = base.algo.k + 1;
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other));
  other = base;
  other.recipe.seed += 1;
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other));
  other = base;
  other.fast_forward = false;
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other));
}

TEST(ServiceProtocolTest, ParseRejectsMalformedRequests) {
  ServiceRequest out;
  std::string error;
  EXPECT_FALSE(parse_request("not json", out, &error));
  EXPECT_FALSE(parse_request("{\"type\":\"run\",\"family\":\"lattice\"}",
                             out, &error));
  EXPECT_NE(error.find("family"), std::string::npos);
  EXPECT_FALSE(parse_request("{\"type\":\"run\",\"k\":0}", out, &error));
  EXPECT_FALSE(
      parse_request("{\"type\":\"run\",\"algo\":\"writeread\"}", out,
                    &error));
  EXPECT_FALSE(parse_request(
      "{\"type\":\"run\",\"schedule\":\"burst\"}", out, &error));
  EXPECT_NE(error.find("horizon"), std::string::npos);
}

TEST(ServiceProtocolTest, CampaignSerializeParseRoundTrip) {
  ServiceRequest request;
  request.type = RequestType::kCampaign;
  request.id = "camp-1";
  request.recipe = TreeRecipe{"comb", 400, 6, 10, 9};
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = 4;
  request.campaign_ks = {2, 4, 8};
  request.campaign_seeds = {11, 12};

  const std::string line = serialize_request(request);
  ServiceRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(line, parsed, &error)) << error;
  EXPECT_EQ(parsed.type, RequestType::kCampaign);
  EXPECT_EQ(parsed.campaign_ks, request.campaign_ks);
  EXPECT_EQ(parsed.campaign_seeds, request.campaign_seeds);
  EXPECT_EQ(serialize_request(parsed), line);

  // Expansion is the k-major cross product, and every member's
  // fingerprint is the fingerprint a direct solo request would get.
  const std::vector<ServiceRequest> members = expand_campaign(parsed);
  ASSERT_EQ(members.size(), 6u);
  std::size_t slot = 0;
  for (const std::int32_t k : request.campaign_ks) {
    for (const std::uint64_t seed : request.campaign_seeds) {
      ServiceRequest solo = request;
      solo.type = RequestType::kRun;
      solo.campaign_ks.clear();
      solo.campaign_seeds.clear();
      solo.algo.k = k;
      solo.algo.options.seed = seed;
      EXPECT_EQ(request_fingerprint(members[slot]),
                request_fingerprint(solo));
      ++slot;
    }
  }
}

TEST(ServiceProtocolTest, CampaignParseRejectsOversizedAndBadArrays) {
  ServiceRequest out;
  std::string error;
  // 9 x 9 = 81 members > the 64-member cap.
  EXPECT_FALSE(parse_request(
      "{\"type\":\"campaign\",\"ks\":[1,2,3,4,5,6,7,8,9],"
      "\"algo_seeds\":[1,2,3,4,5,6,7,8,9]}",
      out, &error));
  EXPECT_NE(error.find("members"), std::string::npos);
  EXPECT_FALSE(parse_request("{\"type\":\"campaign\",\"ks\":3}", out,
                             &error));
  EXPECT_NE(error.find("array"), std::string::npos);
  EXPECT_FALSE(parse_request("{\"type\":\"campaign\",\"ks\":[0]}", out,
                             &error));
}

TEST(ServiceProtocolTest, BatchCoalesceKeyTracksSeedConsumption) {
  ServiceRequest request = golden_request();
  // Least-loaded BFDN never consumes its seed: a seed sweep shares one
  // coalesce key.
  ServiceRequest other = request;
  other.algo.options.seed = request.algo.options.seed + 17;
  EXPECT_FALSE(batch_coalesce_key(request).empty());
  EXPECT_EQ(batch_coalesce_key(request), batch_coalesce_key(other));
  // ...but differing non-seed fields must separate keys.
  other = request;
  other.algo.k += 1;
  EXPECT_NE(batch_coalesce_key(request), batch_coalesce_key(other));
  // The random reanchor policy consumes the seed: never coalesced.
  ServiceRequest random_policy = request;
  random_policy.algo.options.policy = ReanchorPolicy::kRandom;
  EXPECT_TRUE(batch_coalesce_key(random_policy).empty());
}

// --- cache ---

TEST(ResultCacheTest, HitReturnsStoredBytesAndCounts) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, "{\"rounds\":7}");
  const auto hit = cache.get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "{\"rounds\":7}");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedFirst) {
  ResultCache cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  // Refresh key 1: key 2 becomes the LRU entry.
  ASSERT_TRUE(cache.get(1).has_value());
  cache.put(3, "three");
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCacheTest, DuplicatePutKeepsFirstValue) {
  ResultCache cache(2);
  cache.put(9, "original");
  cache.put(9, "imposter");
  EXPECT_EQ(*cache.get(9), "original");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.put(1, "x");
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0);
}

// --- scheduler ---

TEST(SchedulerTest, RejectsWhenAdmissionWindowFull) {
  SchedulerOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  Scheduler scheduler(options);

  std::shared_ptr<Scheduler::Job> slow;
  ASSERT_EQ(scheduler.submit(slow_request(), &slow),
            Scheduler::Admit::kAdmitted);
  // The window is a bound on admitted-but-not-completed jobs, so the
  // very next submit must bounce regardless of worker progress.
  std::shared_ptr<Scheduler::Job> rejected;
  EXPECT_EQ(scheduler.submit(golden_request(), &rejected),
            Scheduler::Admit::kQueueFull);

  const JobOutcome& outcome = slow->wait();
  EXPECT_TRUE(outcome.ok) << outcome.payload;
  // Completion reopens the window (poll: the depth decrement races the
  // wait() wake-up by design).
  std::shared_ptr<Scheduler::Job> retried;
  Scheduler::Admit admit = Scheduler::Admit::kQueueFull;
  for (int i = 0; i < 200 && admit != Scheduler::Admit::kAdmitted; ++i) {
    admit = scheduler.submit(golden_request(), &retried);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(admit, Scheduler::Admit::kAdmitted);
  EXPECT_TRUE(retried->wait().ok);
  // At least the guaranteed rejection above; the reopen-poll may have
  // bounced a few more times before the depth decrement landed.
  EXPECT_GE(scheduler.stats().rejected_full, 1);
}

TEST(SchedulerTest, DrainCompletesEveryAdmittedJob) {
  SchedulerOptions options;
  options.threads = 2;
  options.queue_capacity = 16;
  Scheduler scheduler(options);

  std::vector<std::shared_ptr<Scheduler::Job>> jobs;
  for (int i = 0; i < 6; ++i) {
    ServiceRequest request = golden_request();
    request.recipe.seed = static_cast<std::uint64_t>(i + 1);
    std::shared_ptr<Scheduler::Job> job;
    ASSERT_EQ(scheduler.submit(request, &job),
              Scheduler::Admit::kAdmitted);
    jobs.push_back(std::move(job));
  }
  scheduler.drain();
  for (const auto& job : jobs) {
    EXPECT_TRUE(job->wait().ok) << job->wait().payload;
  }
  std::shared_ptr<Scheduler::Job> late;
  EXPECT_EQ(scheduler.submit(golden_request(), &late),
            Scheduler::Admit::kDraining);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 6);
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.rejected_draining, 1);
}

TEST(SchedulerTest, BatchingDoesNotChangeResults) {
  // Identical-recipe jobs submitted back-to-back (the batcher shares
  // one tree build) against one job run alone: every outcome must be
  // byte-identical. Batching itself is opportunistic — the dispatcher
  // may wake between submits and dispatch singletons (common under a
  // sanitizer on one core) — so rounds repeat until a batch forms; the
  // byte-identity invariant is asserted on every round regardless.
  ServiceRequest request = golden_request();
  const Tree tree = request.recipe.build();
  const std::string direct = execute_run(request, tree);

  SchedulerOptions options;
  options.threads = 4;
  options.queue_capacity = 16;
  Scheduler scheduler(options);
  std::int64_t submitted = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::shared_ptr<Scheduler::Job>> jobs;
    for (int i = 0; i < 8; ++i) {
      std::shared_ptr<Scheduler::Job> job;
      ASSERT_EQ(scheduler.submit(request, &job),
                Scheduler::Admit::kAdmitted);
      jobs.push_back(std::move(job));
      ++submitted;
    }
    for (const auto& job : jobs) {
      const JobOutcome& outcome = job->wait();
      ASSERT_TRUE(outcome.ok) << outcome.payload;
      EXPECT_EQ(outcome.payload, direct);
    }
    if (scheduler.stats().batched_jobs > 0) break;
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.completed, submitted);
  // At least one round grouped jobs over a shared tree build.
  EXPECT_GT(stats.batched_jobs, 0);
  EXPECT_LT(stats.trees_built, submitted);
}

// --- end to end ---

std::string hash_hex(std::uint64_t hash) {
  return str_format("%016llx", static_cast<unsigned long long>(hash));
}

TEST(ServiceEndToEndTest, GoldenGridMatchesDirectEngineRun) {
  ServiceServer server(
      server_options(/*threads=*/4, /*queue=*/32, /*cache=*/64));
  server.start();
  ServiceClient client(server.port());

  struct Cell {
    const char* family;
    std::int64_t nodes;
    std::int32_t depth;
    std::int32_t arms;
    AlgoKind algo;
    std::int32_t k;
    ScheduleKind schedule;
  };
  const std::vector<Cell> grid = {
      {"comb", 500, 6, 12, AlgoKind::kBfdn, 4, ScheduleKind::kNone},
      {"random", 400, 12, 8, AlgoKind::kBfdn, 8, ScheduleKind::kNone},
      {"spider", 300, 10, 6, AlgoKind::kBfdnEll, 6, ScheduleKind::kNone},
      {"binary", 500, 7, 2, AlgoKind::kBfsLevels, 8, ScheduleKind::kNone},
      {"cte-hard", 300, 5, 4, AlgoKind::kCte, 9, ScheduleKind::kNone},
      {"caterpillar", 350, 8, 3, AlgoKind::kBfdn, 6,
       ScheduleKind::kRoundRobin},
      {"broom", 260, 9, 5, AlgoKind::kBfdn, 5, ScheduleKind::kBurst},
  };

  for (const Cell& cell : grid) {
    ServiceRequest request;
    request.id = str_format("%s-k%d", cell.family, cell.k);
    request.recipe.family = cell.family;
    request.recipe.nodes = cell.nodes;
    request.recipe.depth = cell.depth;
    request.recipe.arms = cell.arms;
    request.recipe.seed = 5;
    request.algo.kind = cell.algo;
    request.algo.k = cell.k;
    if (cell.algo == AlgoKind::kBfdnEll) request.algo.ell = 2;
    request.schedule.kind = cell.schedule;
    if (cell.schedule != ScheduleKind::kNone) {
      request.schedule.horizon = 200000;
      request.schedule.period = 2;
    }

    // Direct run: same tree, same spec, straight through the engine.
    const Tree tree = request.recipe.build();
    const std::unique_ptr<Algorithm> algorithm =
        make_algorithm(request.algo, tree);
    RunConfig config;
    config.num_robots = request.algo.k;
    const std::unique_ptr<FiniteSchedule> schedule =
        request.schedule.make(request.algo.k);
    config.schedule = schedule.get();
    const RunResult direct = run_exploration(tree, *algorithm, config);

    const JsonValue response = client.run(request);
    ASSERT_EQ(response.get_string("status", ""), "ok")
        << request.id << ": "
        << response.get_string("error", "(no error field)");
    EXPECT_EQ(response.get_string("id", ""), request.id);
    const JsonValue& result = response.at("result");
    EXPECT_EQ(result.get_int("rounds", -1), direct.rounds) << request.id;
    EXPECT_EQ(result.get_bool("complete", false), direct.complete);
    EXPECT_EQ(result.get_string("final_state_hash", ""),
              hash_hex(direct.final_state_hash))
        << request.id;
  }
  server.drain();
}

TEST(ServiceEndToEndTest, AsyncRunsMatchDirectEngineRuns) {
  ServiceServer server(
      server_options(/*threads=*/4, /*queue=*/32, /*cache=*/64));
  server.start();
  ServiceClient client(server.port());

  struct Cell {
    const char* family;
    std::int32_t k;
    AsyncKind async;
  };
  const std::vector<Cell> grid = {
      {"comb", 4, AsyncKind::kRoundRobin},
      {"spider", 6, AsyncKind::kFixedRate},
      {"caterpillar", 8, AsyncKind::kLaggard},
      {"random", 8, AsyncKind::kRandom},
  };
  for (const Cell& cell : grid) {
    ServiceRequest request;
    request.id = str_format("async-%s-k%d", cell.family, cell.k);
    request.recipe.family = cell.family;
    request.recipe.nodes = 300;
    request.recipe.depth = 8;
    request.recipe.arms = 5;
    request.recipe.seed = 5;
    request.algo.kind = AlgoKind::kBfdn;
    request.algo.k = cell.k;
    request.async.kind = cell.async;
    request.async.seed = 13;
    request.async.period = 2;
    request.async.num_slow = 2;
    request.async.max_delay = 3;

    // Direct run: same tree, same spec, straight through the engine —
    // including execute_run's slow-scheduler round-budget scaling.
    const Tree tree = request.recipe.build();
    const std::unique_ptr<Algorithm> algorithm =
        make_algorithm(request.algo, tree);
    RunConfig config;
    config.num_robots = request.algo.k;
    const std::unique_ptr<AsyncScheduler> async =
        request.async.make(request.algo.k);
    config.async = async.get();
    if (request.async.slowdown() > 1) {
      config.max_rounds =
          default_round_limit(tree) * request.async.slowdown();
    }
    const RunResult direct = run_exploration(tree, *algorithm, config);

    const JsonValue response = client.run(request);
    ASSERT_EQ(response.get_string("status", ""), "ok")
        << request.id << ": "
        << response.get_string("error", "(no error field)");
    const JsonValue& result = response.at("result");
    EXPECT_EQ(result.get_int("rounds", -1), direct.rounds) << request.id;
    EXPECT_EQ(result.get_bool("complete", false), direct.complete);
    EXPECT_EQ(result.get_int("total_activations", -1),
              direct.total_activations)
        << request.id;
    EXPECT_EQ(result.get_string("final_state_hash", ""),
              hash_hex(direct.final_state_hash))
        << request.id;
  }
  server.drain();
}

TEST(ServiceEndToEndTest, AsyncCacheHitIsByteIdenticalToOriginalMiss) {
  ServiceServer server(server_options(2, 16, 16));
  server.start();

  ServiceRequest request = golden_request();
  request.async.kind = AsyncKind::kFixedRate;
  request.async.period = 2;
  request.async.num_slow = 1;

  Socket socket = connect_local(server.port(), /*recv_timeout_ms=*/30000);
  const std::string line = serialize_request(request) + "\n";
  ASSERT_TRUE(socket.send_all(line));
  const auto miss = socket.recv_line();
  ASSERT_TRUE(miss.has_value());
  ASSERT_TRUE(socket.send_all(line));
  const auto hit = socket.recv_line();
  ASSERT_TRUE(hit.has_value());

  EXPECT_NE(miss->find("\"cached\":false"), std::string::npos);
  EXPECT_NE(hit->find("\"cached\":true"), std::string::npos);
  std::string normalized = *hit;
  normalized.replace(normalized.find("\"cached\":true"),
                     std::string("\"cached\":true").size(),
                     "\"cached\":false");
  EXPECT_EQ(normalized, *miss);
  server.drain();
}

TEST(ServiceEndToEndTest, CacheHitIsByteIdenticalToOriginalMiss) {
  ServiceServer server(server_options(2, 16, 16));
  server.start();

  // Raw socket: the byte-level contract is on the wire, not on parsed
  // values.
  Socket socket = connect_local(server.port(), /*recv_timeout_ms=*/30000);
  const std::string line = serialize_request(golden_request()) + "\n";
  ASSERT_TRUE(socket.send_all(line));
  const auto miss = socket.recv_line();
  ASSERT_TRUE(miss.has_value());
  ASSERT_TRUE(socket.send_all(line));
  const auto hit = socket.recv_line();
  ASSERT_TRUE(hit.has_value());

  EXPECT_NE(miss->find("\"cached\":false"), std::string::npos);
  EXPECT_NE(hit->find("\"cached\":true"), std::string::npos);
  // Identical apart from the cached flag in the envelope.
  std::string normalized = *hit;
  normalized.replace(normalized.find("\"cached\":true"),
                     std::string("\"cached\":true").size(),
                     "\"cached\":false");
  EXPECT_EQ(normalized, *miss);

  EXPECT_EQ(server.cache_stats().hits, 1);
  EXPECT_EQ(server.cache_stats().misses, 1);
  // The hit never touched the scheduler.
  EXPECT_EQ(server.scheduler_stats().admitted, 1);
  server.drain();
}

TEST(ServiceEndToEndTest, ColdCacheAfterRestartReproducesResults) {
  const std::string line = serialize_request(golden_request()) + "\n";
  std::string first_response;
  {
    ServiceServer server(server_options(2, 16, 16));
    server.start();
    Socket socket = connect_local(server.port(), 30000);
    ASSERT_TRUE(socket.send_all(line));
    first_response = socket.recv_line().value();
    server.drain();
  }
  // Fresh server, cold cache: recomputes, and bytes match.
  ServiceServer server(server_options(2, 16, 16));
  server.start();
  Socket socket = connect_local(server.port(), 30000);
  ASSERT_TRUE(socket.send_all(line));
  const std::string second_response = socket.recv_line().value();
  EXPECT_NE(second_response.find("\"cached\":false"), std::string::npos);
  EXPECT_EQ(second_response, first_response);
  EXPECT_EQ(server.cache_stats().hits, 0);
  server.drain();
}

TEST(ServiceEndToEndTest, FullQueueReturnsRetryAfter) {
  // One worker, admission window of one, cache off: while the slow job
  // runs, any other request must bounce with a retry-after hint.
  ServiceServer server(server_options(1, 1, 0, 35));
  server.start();

  Socket slow_conn = connect_local(server.port(), 60000);
  ASSERT_TRUE(
      slow_conn.send_all(serialize_request(slow_request()) + "\n"));
  // Wait until the slow job occupies the window.
  for (int i = 0; i < 200 && server.scheduler_stats().admitted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.scheduler_stats().admitted, 1);

  ServiceClient bouncing(server.port());
  const JsonValue rejected =
      bouncing.call(serialize_request(golden_request()));
  ASSERT_EQ(rejected.get_string("status", ""), "retry");
  EXPECT_EQ(rejected.get_int("retry_after_ms", 0), 35);
  EXPECT_GE(rejected.get_int("queue_depth", 0), 1);

  // The slow job itself still answers.
  const auto slow_response = slow_conn.recv_line();
  ASSERT_TRUE(slow_response.has_value());
  EXPECT_NE(slow_response->find("\"status\":\"ok\""), std::string::npos);

  // ServiceClient::run turns retries into transparent re-sends.
  std::int64_t retries = 0;
  const JsonValue eventually = bouncing.run(golden_request(), 200,
                                            &retries);
  EXPECT_EQ(eventually.get_string("status", ""), "ok");
  server.drain();
}

TEST(ServiceEndToEndTest, DrainFinishesInFlightJobs) {
  ServiceServer server(server_options(1, 4, 16));
  server.start();

  Socket socket = connect_local(server.port(), 60000);
  ASSERT_TRUE(socket.send_all(serialize_request(slow_request()) + "\n"));
  for (int i = 0; i < 200 && server.scheduler_stats().admitted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.scheduler_stats().admitted, 1);

  // Drain while the job is in flight: it must complete and its response
  // must still be delivered before the connection is released.
  server.drain();
  EXPECT_EQ(server.scheduler_stats().completed, 1);
  const auto response = socket.recv_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"status\":\"ok\""), std::string::npos);

  // The listener is gone: new connections are refused.
  EXPECT_THROW(connect_local(server.port(), 1000), CheckError);
}

TEST(ServiceEndToEndTest, UnterminatedLineBeforeHalfCloseIsNotExecuted) {
  ServiceServer server(server_options(2, 16, 16));
  server.start();
  const std::string request = serialize_request(golden_request());

  // A whole request document without its '\n', then a half-close: the
  // server reads EOF mid-line and must drop the fragment unanswered.
  // (A served fragment would answer within milliseconds; the client
  // times out after one second instead.)
  Socket truncated = connect_local(server.port(), 1000);
  ASSERT_TRUE(truncated.send_all(request));
  ASSERT_EQ(::shutdown(truncated.fd(), SHUT_WR), 0);
  EXPECT_FALSE(truncated.recv_line().has_value());
  EXPECT_EQ(server.scheduler_stats().admitted, 0);
  EXPECT_EQ(server.cache_stats().misses, 0);
  EXPECT_EQ(server.protocol_errors(), 0);

  // The same bytes with their terminator are served.
  Socket whole = connect_local(server.port(), 30000);
  ASSERT_TRUE(whole.send_all(request + "\n"));
  const auto response = whole.recv_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(server.scheduler_stats().admitted, 1);
  server.drain();
}

TEST(ServiceEndToEndTest, OversizedAndMalformedRequestsAreRejected) {
  ServiceServer server(server_options(2, 16, 16, 20,
                                      /*max_nodes=*/1000));
  server.start();
  ServiceClient client(server.port());

  ServiceRequest huge = golden_request();
  huge.recipe.family = "random";
  huge.recipe.nodes = 100000;
  const JsonValue refused = client.call(serialize_request(huge));
  EXPECT_EQ(refused.get_string("status", ""), "error");

  const JsonValue garbled = client.call("this is not json");
  EXPECT_EQ(garbled.get_string("status", ""), "error");
  EXPECT_EQ(server.protocol_errors(), 1);
  server.drain();
}

TEST(ServiceEndToEndTest, NodeLimitCountsTheBuiltTree) {
  // Families sized by depth or arms ignore `nodes`: a binary tree of
  // depth 12 builds 8191 nodes, so a 1000-node server refuses it as a
  // run and as a campaign. A fixed-depth tree of exactly 1000 nodes
  // passes.
  ServiceServer server(server_options(2, 16, 16, 20,
                                      /*max_nodes=*/1000));
  server.start();
  ServiceClient client(server.port());
  const std::string refusal = "nodes exceeds server limit 1000";

  const JsonValue run = client.call(
      R"({"id":"b","type":"run","family":"binary","depth":12,"k":64})");
  EXPECT_EQ(run.get_string("status", ""), "error");
  EXPECT_EQ(run.get_string("error", ""), refusal);

  const JsonValue campaign = client.call(
      R"({"id":"c","type":"campaign","family":"binary","depth":12,)"
      R"("ks":[4,8],"algo_seeds":[1,2]})");
  EXPECT_EQ(campaign.get_string("status", ""), "error");
  EXPECT_EQ(campaign.get_string("error", ""), refusal);

  const JsonValue fits = client.call(
      R"({"id":"f","type":"run","family":"fixed-depth","nodes":1000,)"
      R"("depth":30,"k":8})");
  EXPECT_EQ(fits.get_string("status", ""), "ok");
  EXPECT_EQ(fits.at("result").get_int("n", -1), 1000);
  server.drain();
}

TEST(ServiceEndToEndTest, StatsRequestReportsQueueAndCache) {
  ServiceServer server(server_options(2, 7, 16));
  server.start();
  ServiceClient client(server.port());
  ASSERT_EQ(client.run(golden_request()).get_string("status", ""), "ok");
  ASSERT_EQ(client.run(golden_request()).get_string("status", ""), "ok");

  const JsonValue response = client.stats();
  ASSERT_EQ(response.get_string("status", ""), "ok");
  const JsonValue& stats = response.at("stats");
  EXPECT_EQ(stats.at("queue").get_int("capacity", -1), 7);
  EXPECT_EQ(stats.at("cache").get_int("hits", -1), 1);
  EXPECT_EQ(stats.at("cache").get_int("misses", -1), 1);
  EXPECT_EQ(stats.at("jobs").get_int("completed", -1), 1);
  EXPECT_GE(stats.at("latency_us").get_int("count", -1), 1);
  server.drain();
}

// --- campaigns ---

ServiceRequest campaign_request() {
  ServiceRequest request;
  request.type = RequestType::kCampaign;
  request.id = "camp";
  request.recipe.family = "comb";
  request.recipe.nodes = 500;
  request.recipe.arms = 12;
  request.recipe.depth = 6;
  request.algo.kind = AlgoKind::kBfdn;
  request.campaign_ks = {2, 4, 8};
  request.campaign_seeds = {1, 2};
  return request;
}

TEST(ServiceCampaignTest, MemberBytesMatchDirectSoloRuns) {
  ServiceServer server(server_options(2, 32, 64));
  server.start();

  const ServiceRequest request = campaign_request();
  const Tree tree = request.recipe.build();

  Socket socket = connect_local(server.port(), 60000);
  ASSERT_TRUE(socket.send_all(serialize_request(request) + "\n"));
  const auto line = socket.recv_line();
  ASSERT_TRUE(line.has_value());
  ASSERT_NE(line->find("\"status\":\"ok\""), std::string::npos) << *line;

  // Byte-level contract: every member's result object appears in the
  // campaign response exactly as execute_run emits it for the expanded
  // solo request — the same bytes a direct run request would serve.
  const std::vector<ServiceRequest> members = expand_campaign(request);
  ASSERT_EQ(members.size(), 6u);
  for (const ServiceRequest& member : members) {
    const std::string expected =
        "\"result\":" + execute_run(member, tree);
    EXPECT_NE(line->find(expected), std::string::npos)
        << "k=" << member.algo.k;
  }

  const JsonValue response = [&line] {
    JsonValue parsed;
    std::string error;
    BFDN_REQUIRE(json_parse(*line, parsed, &error), "bad response");
    return parsed;
  }();
  EXPECT_EQ(response.get_int("members_total", -1), 6);
  const JsonValue& member_array = response.at("members");
  ASSERT_EQ(member_array.size(), 6u);
  for (std::size_t i = 0; i < member_array.size(); ++i) {
    EXPECT_FALSE(member_array.at(i).get_bool("cached", true));
  }
  server.drain();
}

TEST(ServiceCampaignTest, CampaignWarmsPerMemberCacheBothWays) {
  ServiceServer server(server_options(2, 32, 64));
  server.start();
  ServiceClient client(server.port());

  const ServiceRequest request = campaign_request();
  const JsonValue first = client.call(serialize_request(request));
  ASSERT_EQ(first.get_string("status", ""), "ok");

  // Every member landed in the cache under its solo fingerprint: a
  // direct run request for any member is now a hit, byte-identical.
  const std::vector<ServiceRequest> members = expand_campaign(request);
  for (const ServiceRequest& member : members) {
    const JsonValue solo = client.run(member);
    ASSERT_EQ(solo.get_string("status", ""), "ok");
    EXPECT_TRUE(solo.get_bool("cached", false))
        << "k=" << member.algo.k;
  }
  EXPECT_EQ(server.scheduler_stats().admitted, 6);  // campaign only

  // And the reverse: re-running the campaign is all cache hits.
  const JsonValue second = client.call(serialize_request(request));
  ASSERT_EQ(second.get_string("status", ""), "ok");
  const JsonValue& member_array = second.at("members");
  for (std::size_t i = 0; i < member_array.size(); ++i) {
    EXPECT_TRUE(member_array.at(i).get_bool("cached", false));
  }
  EXPECT_EQ(server.scheduler_stats().admitted, 6);
  server.drain();
}

TEST(ServiceCampaignTest, StatsReportBatchedExecution) {
  ServiceServer server(server_options(2, 32, 64));
  server.start();
  ServiceClient client(server.port());

  // A seed sweep of least-loaded BFDN: members coalesce onto one run.
  ServiceRequest request = campaign_request();
  request.campaign_ks = {4};
  request.campaign_seeds = {1, 2, 3, 4, 5};
  ASSERT_EQ(client.call(serialize_request(request)).get_string("status",
                                                              ""),
            "ok");

  const JsonValue stats = client.stats().at("stats");
  EXPECT_GE(stats.at("jobs").get_int("batch_groups", -1), 1);
  EXPECT_GE(stats.at("jobs").get_int("batch_members", -1), 5);
  EXPECT_GE(stats.at("jobs").get_int("batch_coalesced", -1), 4);
  server.drain();
}

TEST(ServiceCampaignTest, OversizedCampaignTreeIsRejected) {
  ServiceServer server(server_options(2, 16, 16, 20,
                                      /*max_nodes=*/100));
  server.start();
  ServiceClient client(server.port());
  // comb ignores `nodes`: 12 arms of depth 600 build 7201 nodes.
  ServiceRequest request = campaign_request();
  request.recipe.depth = 600;
  const JsonValue refused = client.call(serialize_request(request));
  EXPECT_EQ(refused.get_string("status", ""), "error");
  server.drain();
}

}  // namespace
}  // namespace bfdn
