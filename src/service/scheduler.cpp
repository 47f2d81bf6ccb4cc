#include "service/scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

#include "support/check.h"

namespace bfdn {

const JobOutcome& Scheduler::Job::wait() {
  MutexLock lock(mutex_);
  done_cv_.wait(lock.native(), [this] {
    mutex_.assert_held();
    return done_;
  });
  return outcome_;
}

void Scheduler::Job::complete(JobOutcome outcome) {
  MutexLock lock(mutex_);
  BFDN_CHECK(!done_, "job completed twice");
  outcome_ = std::move(outcome);
  done_ = true;
  // Notify under the lock (the convention everywhere since the PR-5
  // finish() race): the waiter owns this Job only through shared_ptr,
  // but sibling waiters may drop theirs the moment wait() returns.
  done_cv_.notify_all();
}

Scheduler::Scheduler(SchedulerOptions options)
    : options_(options), pool_(options.threads) {
  BFDN_REQUIRE(options_.queue_capacity >= 1,
               "queue_capacity must be >= 1");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    pending_cv_.notify_all();
  }
  dispatcher_.join();
}

Scheduler::Admit Scheduler::submit(const ServiceRequest& request,
                                   std::shared_ptr<Job>* out) {
  std::vector<std::shared_ptr<Job>> jobs;
  const Admit admitted = submit_all({request}, &jobs);
  if (admitted == Admit::kAdmitted && out != nullptr) {
    *out = std::move(jobs.front());
  }
  return admitted;
}

Scheduler::Admit Scheduler::submit_all(
    const std::vector<ServiceRequest>& requests,
    std::vector<std::shared_ptr<Job>>* out) {
  BFDN_REQUIRE(!requests.empty(), "submit_all: empty request list");
  std::vector<std::shared_ptr<Job>> jobs;
  jobs.reserve(requests.size());
  const auto now = std::chrono::steady_clock::now();
  for (const ServiceRequest& request : requests) {
    BFDN_REQUIRE(request.type == RequestType::kRun,
                 "submit_all: run requests only");
    auto job = std::make_shared<Job>();
    job->request_ = request;
    job->admitted_at_ = now;
    jobs.push_back(std::move(job));
  }
  const auto count = static_cast<std::int64_t>(jobs.size());
  {
    MutexLock lock(mutex_);
    if (draining_) {
      stats_.rejected_draining += count;
      return Admit::kDraining;
    }
    if (depth_ + count > options_.queue_capacity) {
      stats_.rejected_full += count;
      return Admit::kQueueFull;
    }
    depth_ += count;
    stats_.admitted += count;
    for (const auto& job : jobs) pending_.push_back(job);
    pending_cv_.notify_one();
  }
  if (out != nullptr) *out = std::move(jobs);
  return Admit::kAdmitted;
}

void Scheduler::drain() {
  MutexLock lock(mutex_);
  draining_ = true;
  pending_cv_.notify_all();
  drained_cv_.wait(lock.native(), [this] {
    mutex_.assert_held();
    return depth_ == 0;
  });
}

std::int64_t Scheduler::queue_depth() const {
  MutexLock lock(mutex_);
  return depth_;
}

Scheduler::Stats Scheduler::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void Scheduler::dispatcher_loop() {
  for (;;) {
    std::vector<std::shared_ptr<Job>> batch;
    {
      MutexLock lock(mutex_);
      pending_cv_.wait(lock.native(), [this] {
        mutex_.assert_held();
        return !pending_.empty() || stopping_;
      });
      if (pending_.empty() && stopping_) return;
      batch.swap(pending_);
    }

    // Identical-shape batching: jobs that name the same tree recipe
    // share one tree build, each group in arrival order.
    std::map<std::string, std::vector<std::shared_ptr<Job>>> groups;
    for (auto& job : batch) {
      groups[job->request_.recipe.label()].push_back(std::move(job));
    }
    for (auto& [label, jobs] : groups) {
      pool_.submit([this, group = std::move(jobs)] {
        // Coalesce seed-blind twins: runs[i] is a leader followed by
        // the jobs that share its batch_coalesce_key.
        std::vector<std::vector<std::shared_ptr<Job>>> runs;
        std::unordered_map<std::string, std::size_t> run_of_key;
        for (const auto& job : group) {
          std::string key = batch_coalesce_key(job->request_);
          if (!key.empty()) {
            const auto [it, fresh] =
                run_of_key.try_emplace(std::move(key), runs.size());
            if (!fresh) {
              runs[it->second].push_back(job);
              continue;
            }
          }
          runs.push_back({job});
        }
        const auto size = static_cast<std::int64_t>(group.size());
        {
          MutexLock lock(mutex_);
          ++stats_.trees_built;
          if (size > 1) stats_.batched_jobs += size;
          stats_.batch_coalesced +=
              size - static_cast<std::int64_t>(runs.size());
        }
        std::shared_ptr<const Tree> tree;
        try {
          tree = std::make_shared<const Tree>(
              group.front()->request_.recipe.build());
        } catch (const std::exception& e) {
          finish(group, {false, std::string("tree build failed: ") +
                                    e.what()});
          return;
        }
        // Synchronous runs go one after another on this thread and
        // finish together at the end, so a campaign's waiter wakes once;
        // fanned out to the FIFO pool, a cheap campaign's runs queued
        // behind a costly one's. Each schedule or async run gets its own
        // pool task, so runs that share a tree still use the whole pool.
        // A group without a synchronous run keeps its first run here.
        auto fanned = std::stable_partition(
            runs.begin(), runs.end(), [](const auto& run) {
              const ServiceRequest& request = run.front()->request_;
              return request.schedule.kind == ScheduleKind::kNone &&
                     request.async.kind == AsyncKind::kNone;
            });
        if (fanned == runs.begin()) ++fanned;
        for (auto it = fanned; it != runs.end(); ++it) {
          pool_.submit([this, run = std::move(*it), tree] {
            finish(run, run_job(run.front()->request_, *tree));
          });
        }
        std::vector<JobOutcome> outcomes;
        for (auto it = runs.begin(); it != fanned; ++it) {
          outcomes.push_back(run_job(it->front()->request_, *tree));
        }
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          finish(runs[i], std::move(outcomes[i]));
        }
      });
    }
  }
}

JobOutcome Scheduler::run_job(const ServiceRequest& request,
                              const Tree& tree) {
  try {
    return {true, execute_run(request, tree)};
  } catch (const std::exception& e) {
    return {false, e.what()};
  }
}

void Scheduler::finish(std::span<const std::shared_ptr<Job>> jobs,
                       JobOutcome outcome) {
  const auto now = std::chrono::steady_clock::now();
  // Account before waking any waiter, so "wait() returned" implies the
  // job is visible in stats() and queue_depth().
  {
    MutexLock lock(mutex_);
    for (const auto& job : jobs) {
      const double latency_us =
          std::chrono::duration<double, std::micro>(now - job->admitted_at_)
              .count();
      ++stats_.completed;
      stats_.latency_us.add(latency_us);
      stats_.latency_log2_us.add(static_cast<std::int64_t>(
          std::ceil(std::log2(std::max(1.0, latency_us)))));
    }
    depth_ -= static_cast<std::int64_t>(jobs.size());
    // Notify while holding the mutex: drain() may wake for any reason,
    // see depth_ == 0 and let ~Scheduler destroy drained_cv_ — an
    // unlocked notify here could then touch a dead condition variable.
    // (The worker itself stays joinable past that point: pool_ is
    // declared first, so its destructor — which joins — runs last.)
    if (depth_ == 0) drained_cv_.notify_all();
  }
  for (const auto& twin : jobs.subspan(1)) twin->complete(outcome);
  jobs.front()->complete(std::move(outcome));
}

}  // namespace bfdn
