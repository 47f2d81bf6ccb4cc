#include "sim/batch_executor.h"

#include <algorithm>

#include "sim/engine_internal.h"
#include "support/check.h"

namespace bfdn {

struct BatchExecutor::Member {
  std::unique_ptr<Algorithm> algorithm;
  RunConfig config;
  std::string coalesce_key;
  // Index of the earlier member whose run this one replicates, or -1
  // when the member executes itself.
  std::int32_t coalesce_with = -1;
};

BatchExecutor::BatchExecutor(const Tree& tree) : tree_(tree) {}
BatchExecutor::~BatchExecutor() = default;

std::int32_t BatchExecutor::add_member(
    std::unique_ptr<Algorithm> algorithm, const RunConfig& config,
    std::string coalesce_key) {
  BFDN_REQUIRE(!ran_, "add_member after run()");
  BFDN_REQUIRE(algorithm != nullptr, "member without an algorithm");
  BFDN_REQUIRE(config.num_robots >= 1, "need at least one robot");
  BFDN_REQUIRE(config.schedule == nullptr && config.reactive == nullptr &&
                   config.async == nullptr,
               "batch members run the synchronous complete-communication "
               "model; schedule/reactive/async runs go through "
               "run_exploration");
  Member member;
  member.algorithm = std::move(algorithm);
  member.config = config;
  member.coalesce_key = std::move(coalesce_key);
  members_.push_back(std::move(member));
  return static_cast<std::int32_t>(members_.size()) - 1;
}

std::size_t BatchExecutor::num_members() const { return members_.size(); }

std::vector<RunResult> BatchExecutor::run() {
  BFDN_REQUIRE(!ran_, "run() called twice");
  ran_ = true;
  const std::size_t n = members_.size();
  stats_.members = static_cast<std::int64_t>(n);
  std::vector<RunResult> results(n);

  // Coalescing: first member of each non-empty key executes; later
  // twins replicate its result below.
  for (std::size_t i = 0; i < n; ++i) {
    if (members_[i].coalesce_key.empty()) continue;
    for (std::size_t j = 0; j < i; ++j) {
      if (members_[j].coalesce_key == members_[i].coalesce_key) {
        members_[i].coalesce_with =
            members_[j].coalesce_with >= 0
                ? members_[j].coalesce_with
                : static_cast<std::int32_t>(j);
        break;
      }
    }
  }

  // Partition the executing members: the interleaved fast-forward pass
  // takes exactly the runs run_exploration would fast-forward
  // (sync_fast_forward_eligible); the rest (per-round hooks,
  // fast_forward off, step-only algorithms) fall back to the solo
  // engine, whose results are the definition of correct. Fallbacks run first, in member order, so their per-round
  // hooks observe rounds in a deterministic order.
  std::vector<std::unique_ptr<engine_internal::FastForwardRun>> ff(n);
  for (std::size_t i = 0; i < n; ++i) {
    Member& member = members_[i];
    if (member.coalesce_with >= 0) {
      ++stats_.coalesced;
      continue;
    }
    ++stats_.distinct_runs;
    const RunConfig& config = member.config;
    if (!engine_internal::sync_fast_forward_eligible(*member.algorithm,
                                                     config)) {
      ++stats_.stepped_fallback;
      results[i] = run_exploration(tree_, *member.algorithm, config);
      continue;
    }
    ++stats_.interleaved;
    const std::int64_t max_rounds = config.max_rounds > 0
                                        ? config.max_rounds
                                        : default_round_limit(tree_);
    ff[i] = std::make_unique<engine_internal::FastForwardRun>(
        tree_, *member.algorithm, config.num_robots, max_rounds);
  }

  // The interleaved pass: always advance the run whose next selection
  // event is earliest (ties: lowest member index), so all runs move
  // through the tree's depth range together. Each advance() processes
  // one event round of one independent context; the schedule between
  // contexts is irrelevant to any of their results.
  for (;;) {
    std::size_t next = n;
    std::int64_t best_round = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ff[i] == nullptr || ff[i]->done()) continue;
      const std::int64_t round = ff[i]->next_event_round();
      if (next == n || round < best_round) {
        next = i;
        best_round = round;
      }
    }
    if (next == n) break;
    if (!ff[next]->advance()) {
      results[next] = ff[next]->finish();
      ff[next].reset();
    }
  }
  // done() contexts that never got a final advance() call.
  for (std::size_t i = 0; i < n; ++i) {
    if (ff[i] != nullptr) {
      results[i] = ff[i]->finish();
      ff[i].reset();
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (members_[i].coalesce_with >= 0) {
      results[i] =
          results[static_cast<std::size_t>(members_[i].coalesce_with)];
    }
  }
  return results;
}

}  // namespace bfdn
