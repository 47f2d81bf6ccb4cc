// Concurrency stress for the service tier: many client threads
// hammering the scheduler's admit/dispatch path, the result cache's
// get/put/evict path, and a live server through a concurrent drain.
// This is the race-detection workload — it runs in the plain suites
// and, crucially, under the ThreadSanitizer build that scripts/check.sh
// and the CI `tsan` job drive (see docs/LINT.md). Assertions here are
// about accounting invariants (nothing admitted is lost, cached bytes
// are the deterministic ones); the interesting failures are the ones
// TSan reports.
#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/cache.h"
#include "service/client.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "store/result_store.h"
#include "support/check.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace bfdn {
namespace {

/// Tiny deterministic run request; `variant` selects among a few tree
/// shapes and k values so the dispatcher batches some groups and not
/// others.
ServiceRequest tiny_request(std::int64_t variant) {
  ServiceRequest request;
  request.id = str_format("s%lld", static_cast<long long>(variant));
  request.recipe.family = variant % 2 == 0 ? "fixed-depth" : "spider";
  request.recipe.nodes = 40;
  request.recipe.depth = 5;
  request.recipe.arms = 4;
  request.recipe.seed = static_cast<std::uint64_t>(7 + variant % 5);
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = variant % 3 == 0 ? 4 : 8;
  // A third of the mix runs the per-robot-clock engine path so the
  // async event loop executes on the dispatcher's worker threads too.
  if (variant % 3 == 1) {
    request.async.kind =
        variant % 2 == 0 ? AsyncKind::kFixedRate : AsyncKind::kLaggard;
    request.async.period = 2;
    request.async.num_slow = 1;
  }
  return request;
}

TEST(SchedulerStress, ConcurrentSubmitWaitStatsDrain) {
  constexpr std::int32_t kProducers = 6;
  constexpr std::int32_t kPerProducer = 20;
  Scheduler scheduler({/*threads=*/4, /*queue_capacity=*/8});

  std::atomic<bool> polling{true};
  std::thread poller([&] {
    while (polling.load()) {
      (void)scheduler.stats();
      (void)scheduler.queue_depth();
      std::this_thread::yield();
    }
  });

  std::atomic<std::int64_t> completed_ok{0};
  std::vector<std::thread> producers;
  for (std::int32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int32_t i = 0; i < kPerProducer; ++i) {
        const ServiceRequest request =
            tiny_request(p * kPerProducer + i);
        std::shared_ptr<Scheduler::Job> job;
        // Bounded backpressure retry: the 8-deep window is far smaller
        // than the offered load, so kQueueFull is the common case.
        for (std::int32_t attempt = 0; attempt < 10000; ++attempt) {
          if (scheduler.submit(request, &job) ==
              Scheduler::Admit::kAdmitted) {
            break;
          }
          job.reset();
          std::this_thread::yield();
        }
        ASSERT_NE(job, nullptr) << "submit never admitted";
        const JobOutcome& outcome = job->wait();
        EXPECT_TRUE(outcome.ok) << outcome.payload;
        ++completed_ok;
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  polling.store(false);
  poller.join();

  scheduler.drain();
  const Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(completed_ok.load(), kProducers * kPerProducer);
  EXPECT_EQ(scheduler.queue_depth(), 0);

  // Post-drain submissions are rejected, never enqueued.
  std::shared_ptr<Scheduler::Job> late;
  EXPECT_EQ(scheduler.submit(tiny_request(0), &late),
            Scheduler::Admit::kDraining);
}

/// Campaign-shaped group whose members all share one tree recipe: a
/// seed sweep of least-loaded BFDN at k 4 and 8, so 2 distinct runs and
/// 4 seed-blind twins. `with_async` flips the members onto the
/// per-robot-clock engine path, which coalesces the same way.
ServiceRequest storm_campaign(bool with_async) {
  ServiceRequest request;
  request.type = RequestType::kCampaign;
  request.id = with_async ? "storm-async" : "storm";
  request.recipe.family = "fixed-depth";
  request.recipe.nodes = 40;
  request.recipe.depth = 5;
  request.recipe.seed = 7;
  request.algo.kind = AlgoKind::kBfdn;
  request.campaign_ks = {4, 8};
  request.campaign_seeds = {1, 2, 3};
  if (with_async) {
    request.async.kind = AsyncKind::kFixedRate;
    request.async.period = 2;
  }
  return request;
}

TEST(SchedulerStress, CampaignStormKeepsAtomicityAndByteIdentity) {
  constexpr std::int32_t kProducers = 4;
  constexpr std::int32_t kCampaignsPerProducer = 6;
  // Capacity 8 fits one 6-member campaign but not two: concurrent
  // submit_all calls constantly collide, exercising the all-or-nothing
  // admission path (a half-admitted campaign would deadlock its
  // producer against its own backpressure).
  Scheduler scheduler({/*threads=*/4, /*queue_capacity=*/8});

  // Per-variant expected bytes, computed solo up front: a twin that
  // takes its leader's outcome must reproduce its own bytes exactly.
  std::vector<std::vector<std::string>> expected(2);
  std::vector<std::vector<ServiceRequest>> members(2);
  for (std::size_t variant = 0; variant < 2; ++variant) {
    const ServiceRequest campaign = storm_campaign(variant == 1);
    const Tree tree = campaign.recipe.build();
    members[variant] = expand_campaign(campaign);
    for (const ServiceRequest& member : members[variant]) {
      expected[variant].push_back(execute_run(member, tree));
    }
  }

  std::atomic<std::int64_t> groups_ok{0};
  std::vector<std::thread> producers;
  for (std::int32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Even producers offer synchronous members; odd producers offer
      // async members that share the same recipe label.
      const std::size_t variant = static_cast<std::size_t>(p % 2);
      for (std::int32_t i = 0; i < kCampaignsPerProducer; ++i) {
        std::vector<std::shared_ptr<Scheduler::Job>> jobs;
        for (std::int32_t attempt = 0; attempt < 10000; ++attempt) {
          if (scheduler.submit_all(members[variant], &jobs) ==
              Scheduler::Admit::kAdmitted) {
            break;
          }
          jobs.clear();
          std::this_thread::yield();
        }
        ASSERT_FALSE(jobs.empty()) << "submit_all never admitted";
        ASSERT_EQ(jobs.size(), members[variant].size());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          const JobOutcome& outcome = jobs[j]->wait();
          EXPECT_TRUE(outcome.ok) << outcome.payload;
          EXPECT_EQ(outcome.payload, expected[variant][j])
              << "member " << j << " diverged from its solo bytes";
        }
        ++groups_ok;
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  scheduler.drain();

  EXPECT_EQ(groups_ok.load(), kProducers * kCampaignsPerProducer);
  const Scheduler::Stats stats = scheduler.stats();
  const std::int64_t total_members =
      kProducers * kCampaignsPerProducer * 6;
  EXPECT_EQ(stats.admitted, total_members);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(scheduler.queue_depth(), 0);

  // A campaign's members are enqueued under one mutex hold and drained
  // wholesale, and a pending campaign holds 6 of the 8 slots, so every
  // dispatcher group is exactly one campaign: 2 distinct runs (k=4 and
  // k=8 under the seed-blind least-loaded policy), 4 coalesced twins.
  EXPECT_EQ(stats.batch_coalesced,
            total_members - 2 * kProducers * kCampaignsPerProducer);
}

TEST(CacheStress, ConcurrentGetPutEvict) {
  constexpr std::int32_t kThreads = 4;
  constexpr std::int32_t kOps = 800;
  constexpr std::uint64_t kKeys = 32;
  ResultCache cache(/*capacity=*/8);  // constant eviction churn

  const auto value_of = [](std::uint64_t key) {
    return str_format("result-%llu", static_cast<unsigned long long>(key));
  };
  std::vector<std::thread> workers;
  for (std::int32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::int32_t i = 0; i < kOps; ++i) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(w) * 13 +
             static_cast<std::uint64_t>(i) * 7) % kKeys;
        if (const auto hit = cache.get(key); hit.has_value()) {
          // Deterministic contract: a hit is byte-identical to what any
          // thread ever put under this key.
          EXPECT_EQ(*hit, value_of(key));
        } else {
          cache.put(key, value_of(key));
        }
        if (i % 64 == 0) (void)cache.stats();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const ResultCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::int64_t>(kThreads) * kOps);
}

TEST(CacheStress, StoreAppendReadThroughStorm) {
  // The two-tier path under concurrency: worker threads put and get
  // through a tiny LRU whose misses read through to the durable store
  // while its group-commit flusher races them in the background. The
  // small capacity forces constant eviction, so most hits travel the
  // full disk path (pending buffer or segment read) — the workload the
  // TSan build watches for append/read-through races.
  constexpr std::int32_t kThreads = 4;
  constexpr std::int32_t kOps = 600;
  constexpr std::uint64_t kKeys = 48;
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "bfdn_storm")
          .string();
  std::filesystem::remove_all(dir);

  const auto value_of = [](std::uint64_t key) {
    return str_format("result-%llu", static_cast<unsigned long long>(key));
  };
  StoreOptions store_options;
  store_options.dir = dir;
  store_options.segment_bytes = 4096;  // rotation under load
  store_options.flush_bytes = 512;     // frequent group commits
  store_options.flush_interval_ms = 1;
  store_options.sync_on_flush = false;  // IO latency isn't the subject
  ResultStore store(store_options);
  ResultCache cache(/*capacity=*/8, &store);

  std::vector<std::thread> workers;
  for (std::int32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::int32_t i = 0; i < kOps; ++i) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(w) * 13 +
             static_cast<std::uint64_t>(i) * 7) % kKeys;
        if (const auto hit = cache.get(key); hit.has_value()) {
          EXPECT_EQ(*hit, value_of(key));
        } else {
          cache.put(key, value_of(key));
        }
        if (i % 50 == 0) {
          std::vector<std::uint64_t> keys{key, (key + 1) % kKeys,
                                          (key + 2) % kKeys};
          std::vector<std::optional<std::string>> bulk;
          cache.get_many(keys, &bulk);
          for (std::size_t j = 0; j < keys.size(); ++j) {
            if (bulk[j].has_value()) {
              EXPECT_EQ(*bulk[j], value_of(keys[j]));
            }
          }
        }
        if (i % 64 == 0) (void)store.stats();
      }
    });
  }
  // One thread forces explicit flushes against the storm.
  std::thread flusher([&] {
    for (std::int32_t i = 0; i < 20; ++i) {
      store.flush();
      std::this_thread::yield();
    }
  });
  for (std::thread& worker : workers) worker.join();
  flusher.join();

  // Every key that was ever put is durable and byte-identical.
  store.flush();
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const auto payload = store.get(key);
    ASSERT_TRUE(payload.has_value()) << key;
    EXPECT_EQ(*payload, value_of(key));
  }
  EXPECT_EQ(store.stats().pending_records, 0);
}

TEST(ThreadPoolStress, SubmitAndWaitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> counter{0};
  std::vector<std::thread> submitters;
  for (std::int32_t s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (std::int32_t i = 0; i < 200; ++i) {
        pool.submit([&counter] { ++counter; });
        if (i % 50 == 0) pool.wait_idle();
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 4 * 200);
}

TEST(ServerStress, ClientsHammerThroughConcurrentDrain) {
  ServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.queue_capacity = 4;  // force retry responses under load
  options.cache_capacity = 16;
  options.retry_after_ms = 1;
  ServiceServer server(options);
  server.start();
  const std::uint16_t port = server.port();

  constexpr std::int32_t kClients = 4;
  constexpr std::int32_t kRequests = 24;
  // First-writer-wins per variant; identical results make concurrent
  // double-writes benign (same bytes), mismatches are counted.
  std::vector<std::string> hashes(5);
  std::atomic<std::int64_t> ok{0};
  std::atomic<std::int64_t> mismatches{0};
  std::atomic<std::int64_t> rejected{0};
  std::mutex hash_mutex;

  std::vector<std::thread> clients;
  for (std::int32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        ServiceClient client(port);
        for (std::int32_t i = 0; i < kRequests; ++i) {
          const std::int64_t variant = (c * kRequests + i) % 5;
          const JsonValue response =
              client.run(tiny_request(variant), /*max_attempts=*/500);
          if (response.get_string("status", "") != "ok") {
            ++rejected;  // drain landed first: "server is draining"
            continue;
          }
          ++ok;
          const std::string hash = response.at("result").get_string(
              "final_state_hash", "");
          std::lock_guard<std::mutex> lock(hash_mutex);
          std::string& slot = hashes[static_cast<std::size_t>(variant)];
          if (slot.empty()) {
            slot = hash;
          } else if (slot != hash) {
            ++mismatches;
          }
          if (i % 8 == 0) (void)client.stats();
        }
      } catch (const CheckError&) {
        // Connection torn down by the drain below; acceptable.
      }
    });
  }

  // Let the clients get going, then drain underneath them: admitted
  // jobs must still be answered, later ones rejected cleanly.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.drain();
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(ok.load(), 0);
  const Scheduler::Stats jobs = server.scheduler_stats();
  EXPECT_EQ(jobs.completed, jobs.admitted);  // nothing admitted was lost
  EXPECT_EQ(server.protocol_errors(), 0);
}

}  // namespace
}  // namespace bfdn
