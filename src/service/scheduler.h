// Admission-controlled job scheduler for the exploration service.
//
// Jobs (parsed run requests) pass through a bounded admission window:
// submit() rejects once `queue_capacity` jobs are admitted but not yet
// completed, which is the backpressure signal the server turns into a
// retry-after response — admitted jobs are never dropped. A dispatcher
// thread pulls admitted jobs in arrival order, groups the jobs with the
// same tree recipe (identical-shape batching: the tree is built once per
// group and shared read-only), and shards execution over a
// support/thread_pool, one pool task per group. Within a group,
// seed-blind twins (jobs with the same non-empty batch_coalesce_key) are
// coalesced: the first is the leader, runs through execute_run, and its
// outcome is copied to each twin. The group's synchronous runs go one
// after another on the group's task and complete together; each
// schedule or async run gets a pool task of its own. Determinism: each
// run builds its own algorithm and RNG state from its own spec, and a
// twin's bytes are its leader's by batch_coalesce_key's contract, so
// grouping, pool scheduling and coalescing cannot change any job's
// result — a served run is bit-identical to the same run through
// bfdn_cli (tests/service_test.cpp pins this).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "support/stats.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"

namespace bfdn {

struct JobOutcome {
  bool ok = false;
  /// Result object JSON when ok; error message otherwise.
  std::string payload;
};

struct SchedulerOptions {
  /// Worker threads (0 = hardware concurrency).
  std::int32_t threads = 0;
  /// Bound on admitted-but-not-completed jobs.
  std::int32_t queue_capacity = 64;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// One admitted job; wait() blocks until a worker completed it.
  class Job {
   public:
    const JobOutcome& wait() BFDN_EXCLUDES(mutex_);

   private:
    friend class Scheduler;
    void complete(JobOutcome outcome) BFDN_EXCLUDES(mutex_);

    Mutex mutex_;
    std::condition_variable done_cv_;
    bool done_ BFDN_GUARDED_BY(mutex_) = false;
    /// Written once under mutex_ by complete(); wait() returns a
    /// reference to it after done_ flips, when it is immutable — not
    /// annotated because the returned reference outlives the lock.
    JobOutcome outcome_;
    ServiceRequest request_;
    std::chrono::steady_clock::time_point admitted_at_;
  };

  enum class Admit : std::uint8_t { kAdmitted, kQueueFull, kDraining };

  /// Admits `request` unless the window is full or a drain started:
  /// submit_all of one request. On kAdmitted, *out receives the handle.
  Admit submit(const ServiceRequest& request, std::shared_ptr<Job>* out)
      BFDN_EXCLUDES(mutex_);

  /// Atomic multi-admit for campaign members: either every request is
  /// admitted under one window check (kAdmitted, *out holds the handles
  /// in request order) or none is — a half-admitted campaign would
  /// deadlock its client against its own backpressure.
  Admit submit_all(const std::vector<ServiceRequest>& requests,
                   std::vector<std::shared_ptr<Job>>* out)
      BFDN_EXCLUDES(mutex_);

  /// Stops admitting and blocks until every admitted job completed.
  /// Idempotent; the destructor drains too.
  void drain() BFDN_EXCLUDES(mutex_);

  /// Admitted-but-not-completed jobs right now.
  std::int64_t queue_depth() const BFDN_EXCLUDES(mutex_);
  std::int32_t queue_capacity() const { return options_.queue_capacity; }
  std::int32_t num_threads() const { return pool_.num_threads(); }

  struct Stats {
    std::int64_t admitted = 0;
    std::int64_t completed = 0;
    std::int64_t rejected_full = 0;
    std::int64_t rejected_draining = 0;
    /// Jobs that rode a shared tree build (group size > 1).
    std::int64_t batched_jobs = 0;
    std::int64_t trees_built = 0;
    /// Jobs answered by a seed-blind twin's run instead of executing.
    std::int64_t batch_coalesced = 0;
    /// Admission-to-completion latency, microseconds.
    RunningStat latency_us;
    /// log2(latency_us) buckets for a coarse percentile picture.
    Histogram latency_log2_us;
  };
  Stats stats() const BFDN_EXCLUDES(mutex_);

 private:
  void dispatcher_loop() BFDN_EXCLUDES(mutex_);
  /// Runs `request` on `tree` through execute_run; a throw becomes a
  /// failed outcome.
  static JobOutcome run_job(const ServiceRequest& request, const Tree& tree);
  /// Completes every job in `jobs` (a leader, then its seed-blind twins)
  /// with `outcome`.
  void finish(std::span<const std::shared_ptr<Job>> jobs, JobOutcome outcome)
      BFDN_EXCLUDES(mutex_);

  SchedulerOptions options_;
  ThreadPool pool_;

  mutable Mutex mutex_;
  std::condition_variable pending_cv_;  // dispatcher wake-up
  std::condition_variable drained_cv_;  // drain() wake-up
  std::vector<std::shared_ptr<Job>> pending_ BFDN_GUARDED_BY(mutex_);
  std::int64_t depth_ BFDN_GUARDED_BY(mutex_) = 0;  // admitted - completed
  bool draining_ BFDN_GUARDED_BY(mutex_) = false;
  bool stopping_ BFDN_GUARDED_BY(mutex_) = false;
  Stats stats_ BFDN_GUARDED_BY(mutex_);

  std::thread dispatcher_;
};

}  // namespace bfdn
