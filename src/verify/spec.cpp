#include "verify/spec.h"

#include <limits>

#include "baselines/bfs_levels.h"
#include "baselines/cte.h"
#include "recursive/bfdn_ell.h"
#include "support/check.h"
#include "support/strings.h"

namespace bfdn {

std::unique_ptr<FiniteSchedule> ScheduleSpec::make(std::int32_t k) const {
  switch (kind) {
    case ScheduleKind::kNone:
      return nullptr;
    case ScheduleKind::kFull:
      return make_full_schedule(horizon, k);
    case ScheduleKind::kRoundRobin:
      return make_round_robin_schedule(horizon, k);
    case ScheduleKind::kRandom:
      return make_random_schedule(horizon, k, p, seed);
    case ScheduleKind::kBurst:
      return make_burst_schedule(horizon, k, period);
    case ScheduleKind::kRollingOutage:
      return make_rolling_outage_schedule(horizon, k, period);
  }
  BFDN_CHECK(false, "unreachable schedule kind");
  return nullptr;
}

std::string ScheduleSpec::label() const {
  std::string out;
  append_label(out, *this);
  return out;
}

void append_label(std::string& out, const ScheduleSpec& spec) {
  // "<name>(h=<horizon>[, <param>=<value>])".
  const auto horizon_label = [&spec, &out](const char* name) {
    out += name;
    out += "(h=";
    append_int(out, spec.horizon);
  };
  switch (spec.kind) {
    case ScheduleKind::kNone:
      out += "none";
      return;
    case ScheduleKind::kFull:
      horizon_label("full");
      out += ')';
      return;
    case ScheduleKind::kRoundRobin:
      horizon_label("round-robin");
      out += ')';
      return;
    case ScheduleKind::kRandom:
      horizon_label("random");
      out += ", p=";
      append_fixed(out, spec.p, 3);
      out += ", seed=";
      append_uint(out, spec.seed);
      out += ')';
      return;
    case ScheduleKind::kBurst:
      horizon_label("burst");
      out += ", burst=";
      append_int(out, spec.period);
      out += ')';
      return;
    case ScheduleKind::kRollingOutage:
      horizon_label("rolling");
      out += ", period=";
      append_int(out, spec.period);
      out += ')';
      return;
  }
  out += '?';
}

std::unique_ptr<AsyncScheduler> AsyncSpec::make(std::int32_t k) const {
  switch (kind) {
    case AsyncKind::kNone:
      return nullptr;
    case AsyncKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case AsyncKind::kFixedRate:
      return std::make_unique<FixedRateScheduler>(
          k, period, std::min(num_slow, k));
    case AsyncKind::kLaggard:
      return std::make_unique<LaggardScheduler>(k, period,
                                                std::min(num_slow, k));
    case AsyncKind::kRandom:
      return std::make_unique<RandomScheduler>(seed, max_delay);
  }
  BFDN_CHECK(false, "unreachable async kind");
  return nullptr;
}

std::int64_t AsyncSpec::slowdown() const {
  switch (kind) {
    case AsyncKind::kNone:
    case AsyncKind::kRoundRobin:
      return 1;
    case AsyncKind::kFixedRate:
      return period;
    case AsyncKind::kLaggard:
      // A laggard activated right before its stalled window waits
      // period steps for the window plus its own next turn.
      BFDN_REQUIRE(period <= std::numeric_limits<std::int64_t>::max() / 2,
                   "laggard period overflows int64");
      return 2 * period;
    case AsyncKind::kRandom:
      BFDN_REQUIRE(max_delay < std::numeric_limits<std::int64_t>::max(),
                   "random max_delay overflows int64");
      return max_delay + 1;
  }
  return 1;
}

std::string AsyncSpec::label() const {
  std::string out;
  append_label(out, *this);
  return out;
}

void append_label(std::string& out, const AsyncSpec& spec) {
  switch (spec.kind) {
    case AsyncKind::kNone:
      out += "none";
      return;
    case AsyncKind::kRoundRobin:
      out += "round-robin";
      return;
    case AsyncKind::kFixedRate:
    case AsyncKind::kLaggard:
      out += spec.kind == AsyncKind::kFixedRate ? "fixed-rate(period="
                                                : "laggard(period=";
      append_int(out, spec.period);
      out += ", slow=";
      append_int(out, spec.num_slow);
      out += ')';
      return;
    case AsyncKind::kRandom:
      out += "random(seed=";
      append_uint(out, spec.seed);
      out += ", delay=";
      append_int(out, spec.max_delay);
      out += ')';
      return;
  }
  out += '?';
}

std::string AlgoSpec::label() const {
  std::string out;
  append_label(out, *this);
  return out;
}

void append_label(std::string& out, const AlgoSpec& spec) {
  switch (spec.kind) {
    case AlgoKind::kBfdn:
      BfdnAlgorithm::name_of(spec.options, out);
      break;
    case AlgoKind::kBfdnEll:
      out += "bfdn-ell";
      append_int(out, spec.ell);
      break;
    case AlgoKind::kBfsLevels:
      out += "bfs-levels";
      break;
    case AlgoKind::kCte:
      out += "cte";
      break;
    case AlgoKind::kWriteRead:
      out += "writeread";
      break;
    case AlgoKind::kGraphBfdn:
      out += "graph-bfdn";
      break;
    default:
      out += '?';
      return;
  }
  out += "/k";
  append_int(out, spec.k);
}

std::unique_ptr<Algorithm> make_algorithm(const AlgoSpec& spec,
                                          const Tree& tree) {
  BFDN_REQUIRE(spec.engine_based(),
               "make_algorithm: kind has its own driver");
  switch (spec.kind) {
    case AlgoKind::kBfdn:
      return std::make_unique<BfdnAlgorithm>(spec.k, spec.options);
    case AlgoKind::kBfdnEll:
      return std::make_unique<BfdnEllAlgorithm>(spec.k, spec.ell);
    case AlgoKind::kBfsLevels:
      return std::make_unique<BfsLevelsAlgorithm>(spec.k);
    case AlgoKind::kCte:
      return std::make_unique<CteAlgorithm>(tree, spec.k);
    default:
      break;
  }
  BFDN_CHECK(false, "unreachable algo kind");
  return nullptr;
}

}  // namespace bfdn
