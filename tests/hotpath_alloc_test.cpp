// Verifies the engine round loop's allocation discipline: a BFDN run
// performs a bounded number of heap allocations (state construction,
// buffer warm-up, result histograms) that does NOT scale with the
// number of simulated rounds. A single stray per-round allocation in
// the engine, the selector, the state or BfdnAlgorithm multiplies by
// the round count and blows the ceiling by orders of magnitude.
//
// Also pins the served cache-hit path's protocol work, which runs no
// engine code: parsing a request line, fingerprinting it and building
// the ok envelope allocate a fixed, small number of times.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "adversarial/async_scheduler.h"
#include "core/bfdn.h"
#include "graph/generators.h"
#include "service/protocol.h"
#include "sim/engine.h"

namespace {

// Thread-local so gtest internals on other threads (none expected) and
// static initialization cannot race the counter.
thread_local bool g_counting = false;
thread_local std::int64_t g_allocations = 0;

struct CountingScope {
  CountingScope() {
    g_allocations = 0;
    g_counting = true;
  }
  ~CountingScope() { g_counting = false; }
  std::int64_t count() const { return g_allocations; }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bfdn {
namespace {

std::int64_t allocations_for_run(const Tree& tree, std::int32_t k) {
  BfdnAlgorithm algorithm(k);
  RunConfig config;
  config.num_robots = k;
  CountingScope scope;
  const RunResult result = run_exploration(tree, algorithm, config);
  EXPECT_TRUE(result.complete);
  return scope.count();
}

TEST(HotpathAlloc, RunAllocationsAreRoundsIndependent) {
  // comb(40, 200): n = 8040, D = 240, thousands of rounds at k = 8.
  const Tree tree = make_comb(40, 200);
  const std::int64_t allocations = allocations_for_run(tree, 8);

  BfdnAlgorithm probe(8);
  RunConfig config;
  config.num_robots = 8;
  const RunResult result = run_exploration(tree, probe, config);
  ASSERT_GT(result.rounds, 2000);  // the scenario is genuinely long

  // Construction + warm-up budget: open-depth buckets (<= D+1), result
  // histogram nodes (<= D), fixed engine/algorithm vectors, amortized
  // buffer growth. Deliberately generous — but a single allocation per
  // round would already cost > result.rounds on its own.
  const std::int64_t budget = 6 * (tree.depth() + 1) + 2 * 8 + 512;
  EXPECT_LT(allocations, budget)
      << "rounds=" << result.rounds
      << " — the engine round loop is allocating per round again";
  EXPECT_LT(allocations, result.rounds);
}

TEST(HotpathAlloc, DeeperRunSameAllocationOrder) {
  // Same spine, 3x deeper teeth: far more rounds, allocation count must
  // move by O(D), not O(rounds).
  const Tree shallow = make_comb(24, 100);
  const Tree deep = make_comb(24, 300);
  const std::int64_t a1 = allocations_for_run(shallow, 8);
  const std::int64_t a2 = allocations_for_run(deep, 8);
  EXPECT_LT(a2 - a1, 8 * (deep.depth() - shallow.depth()) + 256);
}

std::int64_t allocations_for_async_run(const Tree& tree, std::int32_t k,
                                       AsyncScheduler& schedule) {
  BfdnAlgorithm algorithm(k);
  RunConfig config;
  config.num_robots = k;
  config.async = &schedule;
  CountingScope scope;
  const RunResult result = run_exploration(tree, algorithm, config);
  EXPECT_TRUE(result.complete);
  return scope.count();
}

TEST(HotpathAlloc, AsyncRunAllocationsAreRoundsIndependent) {
  // The async fast-forward's calendars, heaps and per-class counters
  // are sized by k and the number of rate classes, never by the round
  // count: 3x deeper teeth must move the allocation count by O(D).
  // Fixed-rate has two rate classes, random one per robot.
  const Tree shallow = make_comb(24, 100);
  const Tree deep = make_comb(24, 300);
  FixedRateScheduler fixed_rate(8, 2, 2);
  RandomScheduler random(5, 3);
  for (AsyncScheduler* schedule :
       {static_cast<AsyncScheduler*>(&fixed_rate),
        static_cast<AsyncScheduler*>(&random)}) {
    SCOPED_TRACE(schedule->name());
    const std::int64_t a1 = allocations_for_async_run(shallow, 8, *schedule);
    const std::int64_t a2 = allocations_for_async_run(deep, 8, *schedule);
    EXPECT_LT(a2 - a1, 8 * (deep.depth() - shallow.depth()) + 256);

    BfdnAlgorithm probe(8);
    RunConfig config;
    config.num_robots = 8;
    config.async = schedule;
    const RunResult result = run_exploration(deep, probe, config);
    ASSERT_GT(result.rounds, 2000);  // the scenario is genuinely long
    EXPECT_LT(a2, result.rounds);
  }
}

TEST(HotpathAlloc, CacheHitProtocolAllocations) {
  // A vocabulary line of the served benchmark's hit-storm workload.
  const std::string line =
      R"({"id":"v0","type":"run","family":"caterpillar","nodes":2000,)"
      R"("depth":40,"arms":3,"seed":96160665213566,"algo":"bfdn","k":8,)"
      R"("policy":"least-loaded","algo_seed":1,"depth_cap":-1,)"
      R"("schedule":"none"})";
  // The size of that request's real result object.
  const std::string result(347, 'r');
  ServiceRequest request;
  std::string error;
  ASSERT_TRUE(parse_request(line, request, &error)) << error;
  // Warms the fingerprint's per-thread buffer.
  const std::uint64_t key = request_fingerprint(request);

  for (int rep = 0; rep < 3; ++rep) {
    {
      ServiceRequest parsed;
      CountingScope scope;
      ASSERT_TRUE(parse_request(line, parsed, &error));
      // Every string of this line fits in std::string's inline buffer.
      EXPECT_EQ(scope.count(), 0) << "parse_request";
    }
    {
      CountingScope scope;
      EXPECT_EQ(request_fingerprint(request), key);
      EXPECT_EQ(scope.count(), 0) << "request_fingerprint";
    }
    {
      CountingScope scope;
      std::string response = ok_response(request.id, true, key, result);
      response += '\n';  // what LineServer::respond appends
      EXPECT_EQ(scope.count(), 1) << "ok_response";
    }
  }
}

}  // namespace
}  // namespace bfdn
