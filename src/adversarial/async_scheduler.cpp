#include "adversarial/async_scheduler.h"

#include <algorithm>

#include "support/check.h"
#include "support/rng.h"
#include "support/strings.h"

namespace bfdn {

FixedRateScheduler::FixedRateScheduler(std::int32_t num_robots,
                                       std::int64_t period,
                                       std::int32_t num_slow)
    : num_robots_(num_robots), period_(period), num_slow_(num_slow) {
  BFDN_REQUIRE(num_robots >= 1, "need at least one robot");
  BFDN_REQUIRE(period >= 1, "period must be >= 1");
  BFDN_REQUIRE(num_slow >= 0 && num_slow <= num_robots,
               "num_slow out of range");
}

std::string FixedRateScheduler::name() const {
  return str_format("fixed-rate(period=%lld,slow=%d)",
                    static_cast<long long>(period_), num_slow_);
}

std::int64_t FixedRateScheduler::first_activation(std::int32_t) const {
  return 1;  // both rates include time 1
}

std::int64_t FixedRateScheduler::next_activation(std::int64_t now,
                                                 std::int32_t robot) const {
  if (!slow(robot)) return now + 1;
  // Slow robots are activated at times congruent to 1 mod period.
  return now + (period_ - ((now - 1) % period_));
}

std::int64_t FixedRateScheduler::nth_activation(std::int64_t now,
                                                std::int32_t robot,
                                                std::int64_t n) const {
  BFDN_REQUIRE(n >= 1, "nth_activation needs n >= 1");
  if (!slow(robot)) return now + n;
  return next_activation(now, robot) + (n - 1) * period_;
}

LaggardScheduler::LaggardScheduler(std::int32_t num_robots,
                                   std::int64_t period,
                                   std::int32_t num_slow)
    : num_robots_(num_robots), period_(period), num_slow_(num_slow) {
  BFDN_REQUIRE(num_robots >= 1, "need at least one robot");
  BFDN_REQUIRE(period >= 1, "period must be >= 1");
  BFDN_REQUIRE(num_slow >= 0 && num_slow <= num_robots,
               "num_slow out of range");
}

std::string LaggardScheduler::name() const {
  return str_format("laggard(period=%lld,slow=%d)",
                    static_cast<long long>(period_), num_slow_);
}

std::int64_t LaggardScheduler::first_activation(std::int32_t) const {
  return 1;  // time 1 lies in the first (active) window
}

std::int64_t LaggardScheduler::next_activation(std::int64_t now,
                                               std::int32_t robot) const {
  if (!laggard(robot)) return now + 1;
  // Laggards are active at times t whose window index (t-1)/period is
  // even; a candidate landing in a stalled window jumps to the start of
  // the next active one.
  std::int64_t t = now + 1;
  const std::int64_t window = (t - 1) / period_;
  if (window % 2 == 1) t = (window + 1) * period_ + 1;
  return t;
}

std::int64_t LaggardScheduler::nth_activation(std::int64_t now,
                                              std::int32_t robot,
                                              std::int64_t n) const {
  BFDN_REQUIRE(n >= 1, "nth_activation needs n >= 1");
  if (!laggard(robot)) return now + n;
  // Active times in [1, now]: `period` per full active+stalled pair of
  // windows, plus the active part of the trailing pair.
  const std::int64_t pair = 2 * period_;
  const std::int64_t active_so_far =
      (now / pair) * period_ + std::min(now % pair, period_);
  // The m-th active time overall (1-based) sits at offset (m-1) mod
  // period inside active window (m-1) / period.
  const std::int64_t m = active_so_far + n;
  return ((m - 1) / period_) * pair + (m - 1) % period_ + 1;
}

RandomScheduler::RandomScheduler(std::uint64_t seed, std::int64_t max_delay)
    : seed_(seed), max_delay_(max_delay) {
  BFDN_REQUIRE(max_delay >= 0, "max_delay must be >= 0");
}

std::string RandomScheduler::name() const {
  return str_format("random(seed=%llu,delay=%lld)",
                    static_cast<unsigned long long>(seed_),
                    static_cast<long long>(max_delay_));
}

namespace {
/// Stateless per-(seed, robot, time) gap draw: a splitmix64 hash of the
/// triple, so the schedule is a pure function independent of query
/// order.
std::int64_t random_gap(std::uint64_t seed, std::int32_t robot,
                        std::int64_t now, std::int64_t max_delay) {
  std::uint64_t state =
      seed ^ (0x9E3779B97F4A7C15ULL *
              (static_cast<std::uint64_t>(robot) + 1)) ^
      (static_cast<std::uint64_t>(now) * 0xBF58476D1CE4E5B9ULL);
  const std::uint64_t draw = splitmix64(state);
  return 1 + static_cast<std::int64_t>(
                 draw % static_cast<std::uint64_t>(max_delay + 1));
}
}  // namespace

std::int64_t RandomScheduler::first_activation(std::int32_t robot) const {
  return random_gap(seed_, robot, 0, max_delay_);
}

std::int64_t RandomScheduler::next_activation(std::int64_t now,
                                              std::int32_t robot) const {
  return now + random_gap(seed_, robot, now, max_delay_);
}

}  // namespace bfdn
