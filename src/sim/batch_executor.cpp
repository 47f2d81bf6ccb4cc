#include "sim/batch_executor.h"

#include <unordered_map>

#include "support/check.h"

namespace bfdn {

struct BatchExecutor::Member {
  std::unique_ptr<Algorithm> algorithm;
  RunConfig config;
  std::string coalesce_key;
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

  // Coalescing: the first member of each non-empty key executes; a
  // later twin copies its result. Members run in add order, so the
  // twin's run has always finished by then.
  std::unordered_map<std::string, std::size_t> first_with_key;
  for (std::size_t i = 0; i < n; ++i) {
    Member& member = members_[i];
    if (!member.coalesce_key.empty()) {
      const auto [first, inserted] =
          first_with_key.try_emplace(member.coalesce_key, i);
      if (!inserted) {
        ++stats_.coalesced;
        results[i] = results[first->second];
        continue;
      }
    }
    ++stats_.distinct_runs;
    results[i] = run_exploration(tree_, *member.algorithm, member.config);
  }
  return results;
}

}  // namespace bfdn
