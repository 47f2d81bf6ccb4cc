// Concrete AsyncScheduler implementations for the per-robot-clock
// engine (RunConfig::async; see docs/MODEL.md "Per-robot clocks").
//
// A scheduler is a pure function of (time, robot): it decides at which
// virtual times each robot is activated, independently of the
// exploration state — the adversary here controls *speeds*, not moves
// (contrast BreakdownSchedule, which blocks selected moves, and
// ReactiveAdversary, which cancels observed ones). All schedulers are
// deterministic: the random one derives its gaps from splitmix64 over
// (seed, robot, time), so the same spec always produces the same
// activation sequence regardless of call order.
//
// Asynchronous collective tree exploration (arXiv:2507.15658) motivates
// the axis: a correct algorithm must tolerate stragglers, heterogeneous
// speeds and adversarial lag. The round-robin scheduler is the model's
// degenerate point — all clocks tick together — and the engine
// guarantees it reproduces the synchronous execution bit-exactly
// (OracleCheck::kAsyncEquivalence).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/engine.h"

namespace bfdn {

/// All robots are activated at every time step 1, 2, 3, ...: the
/// synchronous model expressed as a scheduler. lockstep() is true, and
/// the async engine run is bit-identical to the stepped loop.
class RoundRobinScheduler : public AsyncScheduler {
 public:
  std::string name() const override { return "round-robin"; }
  std::int64_t first_activation(std::int32_t) const override { return 1; }
  std::int64_t next_activation(std::int64_t now,
                               std::int32_t) const override {
    return now + 1;
  }
  std::int64_t nth_activation(std::int64_t now, std::int32_t,
                              std::int64_t n) const override {
    return now + n;
  }
  std::int32_t num_rate_classes(std::int32_t) const override { return 1; }
  std::int32_t rate_class(std::int32_t) const override { return 0; }
  bool lockstep() const override { return true; }
};

/// Heterogeneous speeds: the last `num_slow` robots run at 1/period of
/// full speed (activated at t = 1, 1 + period, 1 + 2*period, ...);
/// everyone else is activated every step. period == 1 degenerates to
/// round-robin.
class FixedRateScheduler : public AsyncScheduler {
 public:
  FixedRateScheduler(std::int32_t num_robots, std::int64_t period,
                     std::int32_t num_slow);

  std::string name() const override;
  std::int64_t first_activation(std::int32_t robot) const override;
  std::int64_t next_activation(std::int64_t now,
                               std::int32_t robot) const override;
  std::int64_t nth_activation(std::int64_t now, std::int32_t robot,
                              std::int64_t n) const override;
  /// Class 0: the full-speed robots; class 1: the slow ones.
  std::int32_t num_rate_classes(std::int32_t) const override { return 2; }
  std::int32_t rate_class(std::int32_t robot) const override {
    return slow(robot) ? 1 : 0;
  }

 private:
  bool slow(std::int32_t robot) const {
    return robot >= num_robots_ - num_slow_;
  }

  std::int32_t num_robots_;
  std::int64_t period_;
  std::int32_t num_slow_;
};

/// Adversarial laggard: the last `num_slow` robots alternate between an
/// active window of `period` steps and a stalled window of the same
/// length (active during times t with ((t-1)/period) even); the rest
/// run at full speed. Starves the laggards in long bursts rather than
/// uniformly, the worst shape for anchor hand-off.
class LaggardScheduler : public AsyncScheduler {
 public:
  LaggardScheduler(std::int32_t num_robots, std::int64_t period,
                   std::int32_t num_slow);

  std::string name() const override;
  std::int64_t first_activation(std::int32_t robot) const override;
  std::int64_t next_activation(std::int64_t now,
                               std::int32_t robot) const override;
  std::int64_t nth_activation(std::int64_t now, std::int32_t robot,
                              std::int64_t n) const override;
  /// Class 0: the full-speed robots; class 1: the laggards.
  std::int32_t num_rate_classes(std::int32_t) const override { return 2; }
  std::int32_t rate_class(std::int32_t robot) const override {
    return laggard(robot) ? 1 : 0;
  }

 private:
  bool laggard(std::int32_t robot) const {
    return robot >= num_robots_ - num_slow_;
  }

  std::int32_t num_robots_;
  std::int64_t period_;
  std::int32_t num_slow_;
};

/// Seed-driven random gaps: after an activation at time t, robot i's
/// next activation follows after a gap of 1 + (mix(seed, i, t) mod
/// (max_delay + 1)) steps. Stateless — the gap is a hash of (seed,
/// robot, time) — so activation sequences are reproducible and
/// independent of evaluation order. max_delay == 0 degenerates to
/// round-robin.
class RandomScheduler : public AsyncScheduler {
 public:
  RandomScheduler(std::uint64_t seed, std::int64_t max_delay);

  std::string name() const override;
  std::int64_t first_activation(std::int32_t robot) const override;
  std::int64_t next_activation(std::int64_t now,
                               std::int32_t robot) const override;

 private:
  std::uint64_t seed_;
  std::int64_t max_delay_;
};

}  // namespace bfdn
