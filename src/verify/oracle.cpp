#include "verify/oracle.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "adversarial/async_scheduler.h"
#include "adversarial/schedules.h"
#include "core/bfdn.h"
#include "distributed/writeread.h"
#include "graph/graph.h"
#include "graphexp/graph_bfdn.h"
#include "recursive/bfdn_ell.h"
#include "sim/batch_executor.h"
#include "support/check.h"
#include "support/strings.h"
#include "verify/trace.h"

namespace bfdn {

const char* oracle_check_name(OracleCheck check) {
  switch (check) {
    case OracleCheck::kBfdnRun: return "bfdn-run";
    case OracleCheck::kTheorem1Bound: return "theorem1-bound";
    case OracleCheck::kLemma2PerDepth: return "lemma2-per-depth";
    case OracleCheck::kLoadCounters: return "load-counters";
    case OracleCheck::kWriteRead: return "write-read";
    case OracleCheck::kEllTheorem10: return "ell-theorem10";
    case OracleCheck::kGraphOnTree: return "graph-on-tree";
    case OracleCheck::kBreakdown: return "breakdown";
    case OracleCheck::kEngineInvariant: return "engine-invariant";
    case OracleCheck::kFastForward: return "fast-forward";
    case OracleCheck::kAsyncEquivalence: return "async-equivalence";
    case OracleCheck::kBatchEquivalence: return "batch-equivalence";
  }
  return "?";
}

bool OracleReport::failed(OracleCheck check) const {
  for (const OracleFailure& failure : failures) {
    if (failure.check == check) return true;
  }
  return false;
}

std::string OracleReport::summary() const {
  if (failures.empty()) return "ok";
  std::string out;
  for (const OracleFailure& failure : failures) {
    if (!out.empty()) out += "; ";
    out += oracle_check_name(failure.check);
    out += ": ";
    out += failure.detail;
  }
  return out;
}

namespace {

/// Collects per-round state hashes (the comparison key of the
/// incremental-vs-reference differential).
class CollectingObserver : public RoundObserver {
 public:
  explicit CollectingObserver(std::vector<std::uint64_t>& out)
      : out_(out) {}
  void on_round(std::int64_t /*round*/,
                const ExplorationState& state) override {
    out_.push_back(state.state_hash());
  }

 private:
  std::vector<std::uint64_t>& out_;
};

struct BfdnRunOutcome {
  RunResult result;
  std::vector<std::uint64_t> hashes;
  double average_allowed = -1;  // schedule runs only
  bool threw = false;
  std::string error;
};

BfdnRunOutcome run_bfdn(const Tree& tree, const OracleConfig& config,
                        bool reference_loads) {
  BfdnRunOutcome outcome;
  BfdnOptions options = config.bfdn;
  options.reference_loads = reference_loads;
  if (reference_loads) {
    // The reference path never reads the incremental counters, so the
    // injected counter faults must not perturb it either.
    options.fault_load_leak = false;
  }
  BfdnAlgorithm algorithm(config.k, options);
  const std::unique_ptr<FiniteSchedule> schedule =
      config.schedule.make(config.k);
  CollectingObserver observer(outcome.hashes);
  RunConfig run_config;
  run_config.num_robots = config.k;
  run_config.max_rounds = config.max_rounds;
  run_config.schedule = schedule.get();
  run_config.check_invariants = true;
  run_config.observer = &observer;
  try {
    outcome.result = run_exploration(tree, algorithm, run_config);
  } catch (const CheckError& error) {
    outcome.threw = true;
    outcome.error = error.what();
  }
  if (schedule != nullptr) {
    outcome.average_allowed = schedule->average_allowed();
  }
  return outcome;
}

/// Observer that records nothing; its presence forces the stepped
/// engine paths (sync loop, async stepped sub-mode) without otherwise
/// perturbing the run.
class NullObserver : public RoundObserver {
 public:
  void on_round(std::int64_t, const ExplorationState&) override {}
};

/// Field-by-field RunResult comparison shared by the fast-forward and
/// async-equivalence differentials: `candidate` (named `candidate_name`
/// in failure details) must reproduce the stepped reference `st`
/// exactly.
void compare_run_results(const RunResult& candidate, const RunResult& st,
                         const char* candidate_name, OracleCheck check,
                         OracleReport& report) {
  const auto fail = [&report, check](std::string detail) {
    report.failures.push_back({check, std::move(detail)});
  };
  const auto mismatch = [&fail, candidate_name](const char* what,
                                                long long a, long long b) {
    fail(str_format("%s: %s %lld != stepped %lld", what, candidate_name, a,
                    b));
  };
  if (candidate.rounds != st.rounds) {
    mismatch("rounds", candidate.rounds, st.rounds);
  } else if (candidate.final_state_hash != st.final_state_hash) {
    fail(str_format("%s: final state hashes diverge at equal round counts",
                    candidate_name));
  }
  if (candidate.complete != st.complete) {
    mismatch("complete", candidate.complete, st.complete);
  }
  if (candidate.all_at_root != st.all_at_root) {
    mismatch("all_at_root", candidate.all_at_root, st.all_at_root);
  }
  if (candidate.hit_round_limit != st.hit_round_limit) {
    mismatch("hit_round_limit", candidate.hit_round_limit,
             st.hit_round_limit);
  }
  if (candidate.edge_events != st.edge_events) {
    mismatch("edge_events", candidate.edge_events, st.edge_events);
  }
  if (candidate.rounds_with_idle != st.rounds_with_idle) {
    mismatch("rounds_with_idle", candidate.rounds_with_idle,
             st.rounds_with_idle);
  }
  if (candidate.idle_robot_rounds != st.idle_robot_rounds) {
    mismatch("idle_robot_rounds", candidate.idle_robot_rounds,
             st.idle_robot_rounds);
  }
  if (candidate.total_activations != st.total_activations) {
    mismatch("total_activations", candidate.total_activations,
             st.total_activations);
  }
  if (candidate.robot_moves != st.robot_moves) {
    fail(str_format("%s: per-robot move counts diverge", candidate_name));
  }
  if (candidate.total_reanchors != st.total_reanchors) {
    mismatch("total_reanchors", candidate.total_reanchors,
             st.total_reanchors);
  }
  if (candidate.total_reanchor_switches != st.total_reanchor_switches) {
    mismatch("total_reanchor_switches", candidate.total_reanchor_switches,
             st.total_reanchor_switches);
  }
  if (candidate.reanchors_by_depth.buckets() !=
      st.reanchors_by_depth.buckets()) {
    fail(str_format("%s: reanchor histograms diverge: {%s} vs {%s}",
                    candidate_name,
                    candidate.reanchors_by_depth.to_string().c_str(),
                    st.reanchors_by_depth.to_string().c_str()));
  }
  if (candidate.reanchor_switches_by_depth.buckets() !=
      st.reanchor_switches_by_depth.buckets()) {
    fail(str_format(
        "%s: Lemma 2 switch histograms diverge: {%s} vs {%s}",
        candidate_name,
        candidate.reanchor_switches_by_depth.to_string().c_str(),
        st.reanchor_switches_by_depth.to_string().c_str()));
  }
  if (candidate.depth_completed_round != st.depth_completed_round) {
    fail(str_format("%s: depth completion timelines diverge",
                    candidate_name));
  }
}

/// The tree as a port-numbered graph for the Section 4.3 driver.
Graph tree_as_graph(const Tree& tree) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(tree.num_edges()));
  for (NodeId v = 1; v < tree.num_nodes(); ++v) {
    edges.emplace_back(tree.parent(v), v);
  }
  return Graph::from_edges(tree.num_nodes(), edges);
}

}  // namespace

OracleReport run_oracle(const Tree& tree, const OracleConfig& config) {
  BFDN_REQUIRE(config.k >= 1, "oracle needs at least one robot");
  OracleReport report;
  const auto fail = [&report](OracleCheck check, std::string detail) {
    report.failures.push_back({check, std::move(detail)});
  };

  const std::int64_t n = tree.num_nodes();
  const std::int32_t depth = tree.depth();
  const std::int32_t delta = tree.max_degree();
  const std::int32_t k = config.k;
  const bool breakdown = config.schedule.kind != ScheduleKind::kNone;
  // The bound checks cover the paper's algorithm only; ablation options
  // (other policies, depth caps, shortcut) void the guarantees.
  const bool paper_bfdn =
      config.bfdn.policy == ReanchorPolicy::kLeastLoaded &&
      config.bfdn.depth_cap < 0 && !config.bfdn.shortcut_reanchor;

  // --- primary BFDN run (invariants forced on) -----------------------
  const BfdnRunOutcome primary = run_bfdn(tree, config, false);
  if (primary.threw) {
    fail(OracleCheck::kEngineInvariant, primary.error);
    return report;  // state after a failed invariant is unusable
  }
  report.bfdn_rounds = primary.result.rounds;

  if (!breakdown) {
    if (!primary.result.complete || !primary.result.all_at_root) {
      fail(OracleCheck::kBfdnRun,
           str_format("complete=%d all_at_root=%d hit_limit=%d",
                      primary.result.complete ? 1 : 0,
                      primary.result.all_at_root ? 1 : 0,
                      primary.result.hit_round_limit ? 1 : 0));
    } else if (primary.result.edge_events != 2 * (n - 1)) {
      fail(OracleCheck::kBfdnRun,
           str_format("edge events %lld != 2(n-1) = %lld",
                      static_cast<long long>(primary.result.edge_events),
                      static_cast<long long>(2 * (n - 1))));
    }
    if (paper_bfdn && primary.result.complete) {
      const double bound = theorem1_bound(n, depth, delta, k);
      if (static_cast<double>(primary.result.rounds) > bound) {
        fail(OracleCheck::kTheorem1Bound,
             str_format("rounds %lld > bound %.2f (n=%lld D=%d Delta=%d "
                        "k=%d)",
                        static_cast<long long>(primary.result.rounds),
                        bound, static_cast<long long>(n), depth, delta, k));
      }
    }
  } else {
    // Section 4.2: exploration may legitimately end incomplete, but
    // only if the adversary withheld the Proposition 7 work budget.
    if (!primary.result.complete && !primary.result.hit_round_limit) {
      const double needed = proposition7_bound(n, depth, k);
      if (primary.average_allowed >= needed) {
        fail(OracleCheck::kBreakdown,
             str_format("incomplete although A(M) = %.2f >= %.2f",
                        primary.average_allowed, needed));
      }
    }
  }

  // --- Lemma 2, per depth, on anchor switches ------------------------
  if (paper_bfdn) {
    // Under break-downs the adversary can pile every robot onto one
    // anchor, so only the log k branch survives (Proposition 7).
    const double per_depth_bound =
        breakdown ? static_cast<double>(k) *
                        (std::log(static_cast<double>(k)) + 3.0)
                  : lemma2_bound(k, delta);
    for (const auto& [bucket_depth, count] :
         primary.result.reanchor_switches_by_depth.buckets()) {
      if (static_cast<double>(count) > per_depth_bound) {
        fail(OracleCheck::kLemma2PerDepth,
             str_format("depth %lld: %llu anchor switches > bound %.2f",
                        static_cast<long long>(bucket_depth),
                        static_cast<unsigned long long>(count),
                        per_depth_bound));
        break;
      }
    }
  }

  // --- incremental vs reference load counters (differential) ---------
  {
    const BfdnRunOutcome reference = run_bfdn(tree, config, true);
    if (reference.threw) {
      fail(OracleCheck::kEngineInvariant, reference.error);
    } else if (primary.hashes != reference.hashes) {
      const std::size_t common =
          std::min(primary.hashes.size(), reference.hashes.size());
      std::size_t r = 0;
      while (r < common && primary.hashes[r] == reference.hashes[r]) ++r;
      fail(OracleCheck::kLoadCounters,
           str_format("incremental and reference-load runs diverge at "
                      "round %zu (%zu vs %zu rounds total)",
                      r + 1, primary.hashes.size(),
                      reference.hashes.size()));
    } else if (primary.result.total_reanchors !=
               reference.result.total_reanchors) {
      fail(OracleCheck::kLoadCounters,
           str_format("reanchor totals diverge: %lld vs %lld",
                      static_cast<long long>(
                          primary.result.total_reanchors),
                      static_cast<long long>(
                          reference.result.total_reanchors)));
    }
  }

  // --- fast-forward vs stepped engine (differential) ------------------
  // The primary run above is stepped (its observer forces the stepped
  // loop); re-running with fast-forward enabled and no hooks must
  // reproduce every field of its RunResult. The pair is compared again
  // under a round limit of R/2 + 1 (R = the primary run's rounds), which
  // cuts committed walks short. Skipped under break-down schedules,
  // where fast-forward disables itself and the comparison would be
  // vacuous.
  if (!breakdown) {
    const auto run_sync = [&](std::int64_t max_rounds, bool stepped) {
      NullObserver null_observer;
      BfdnAlgorithm algorithm(k, config.bfdn);
      RunConfig run_config;
      run_config.num_robots = k;
      run_config.max_rounds = max_rounds;
      run_config.observer = stepped ? &null_observer : nullptr;
      return run_exploration(tree, algorithm, run_config);
    };
    try {
      compare_run_results(run_sync(config.max_rounds, false), primary.result,
                          "fast-forward", OracleCheck::kFastForward, report);
      const std::int64_t cap = primary.result.rounds / 2 + 1;
      compare_run_results(run_sync(cap, false), run_sync(cap, true),
                          "capped fast-forward", OracleCheck::kFastForward,
                          report);
    } catch (const CheckError& error) {
      fail(OracleCheck::kEngineInvariant, error.what());
    }
  }

  // --- per-robot clocks: async == sync (differential) -----------------
  // The round-robin scheduler is the degenerate point of the async
  // model, and the engine promises it reproduces the synchronous run
  // bit-identically in both async loops: the stepped one (observer
  // forces it; compared hash-by-hash against the primary run) and the
  // async fast-forward (no hooks). An exotic AsyncSpec additionally pits
  // the two loops against each other, uncapped and under a round limit
  // of R/2 + 1 (R = the stepped run's makespan), and requires the
  // uncapped run to still finish the job. Skipped under break-downs,
  // which are mutually exclusive with async scheduling.
  if (!breakdown) {
    RoundRobinScheduler round_robin;
    {
      BfdnAlgorithm algorithm(k, config.bfdn);
      std::vector<std::uint64_t> hashes;
      CollectingObserver observer(hashes);
      RunConfig run_config;
      run_config.num_robots = k;
      run_config.max_rounds = config.max_rounds;
      run_config.async = &round_robin;
      run_config.check_invariants = true;
      run_config.observer = &observer;
      try {
        const RunResult rr = run_exploration(tree, algorithm, run_config);
        if (hashes != primary.hashes) {
          const std::size_t common =
              std::min(hashes.size(), primary.hashes.size());
          std::size_t r = 0;
          while (r < common && hashes[r] == primary.hashes[r]) ++r;
          fail(OracleCheck::kAsyncEquivalence,
               str_format("round-robin async and sync hash sequences "
                          "diverge at round %zu (%zu vs %zu rounds total)",
                          r + 1, hashes.size(), primary.hashes.size()));
        }
        compare_run_results(rr, primary.result, "round-robin async",
                            OracleCheck::kAsyncEquivalence, report);
      } catch (const CheckError& error) {
        fail(OracleCheck::kEngineInvariant, error.what());
      }
    }
    {
      BfdnAlgorithm algorithm(k, config.bfdn);
      RunConfig run_config;
      run_config.num_robots = k;
      run_config.max_rounds = config.max_rounds;
      run_config.async = &round_robin;
      try {
        const RunResult rr = run_exploration(tree, algorithm, run_config);
        compare_run_results(rr, primary.result,
                            "fast-forward round-robin async",
                            OracleCheck::kAsyncEquivalence, report);
      } catch (const CheckError& error) {
        fail(OracleCheck::kEngineInvariant, error.what());
      }
    }
    if (config.async.kind != AsyncKind::kNone &&
        config.async.kind != AsyncKind::kRoundRobin) {
      const std::unique_ptr<AsyncScheduler> scheduler =
          config.async.make(k);
      // Slow schedulers stretch the makespan by up to the worst
      // activation gap; scale the round limit so a healthy run is never
      // misread as a timeout.
      const std::int64_t limit =
          (config.max_rounds > 0 ? config.max_rounds
                                 : default_round_limit(tree)) *
          config.async.slowdown();
      const auto run_async = [&](std::int64_t max_rounds, bool stepped) {
        NullObserver null_observer;
        BfdnAlgorithm algorithm(k, config.bfdn);
        RunConfig run_config;
        run_config.num_robots = k;
        run_config.max_rounds = max_rounds;
        run_config.async = scheduler.get();
        run_config.observer = stepped ? &null_observer : nullptr;
        return run_exploration(tree, algorithm, run_config);
      };
      try {
        const RunResult stepped = run_async(limit, true);
        compare_run_results(run_async(limit, false), stepped,
                            "async fast-forward",
                            OracleCheck::kAsyncEquivalence, report);
        const std::int64_t cap = stepped.rounds / 2 + 1;
        compare_run_results(run_async(cap, false), run_async(cap, true),
                            "capped async fast-forward",
                            OracleCheck::kAsyncEquivalence, report);
        if (!stepped.complete || !stepped.all_at_root) {
          fail(OracleCheck::kAsyncEquivalence,
               str_format("%s: complete=%d all_at_root=%d hit_limit=%d",
                          config.async.label().c_str(),
                          stepped.complete ? 1 : 0,
                          stepped.all_at_root ? 1 : 0,
                          stepped.hit_round_limit ? 1 : 0));
        } else if (stepped.edge_events != 2 * (n - 1)) {
          fail(OracleCheck::kAsyncEquivalence,
               str_format("%s: edge events %lld != 2(n-1) = %lld",
                          config.async.label().c_str(),
                          static_cast<long long>(stepped.edge_events),
                          static_cast<long long>(2 * (n - 1))));
        }
      } catch (const CheckError& error) {
        fail(OracleCheck::kEngineInvariant, error.what());
      }
    }
  }

  // The secondary models run the plain Section 2 setting; under a
  // break-down schedule their agreements are not claimed by the paper.
  if (breakdown) return report;

  // --- batched campaign members == solo runs (differential) -----------
  // A BatchExecutor runs its distinct members one after another and
  // copies coalesced twins; the contract is that every member —
  // fast-forwarded, coalesced as a seed-blind twin, or on the stepped
  // loop — is bit-identical to running it alone through
  // run_exploration. Member i sweeps the
  // axes a campaign sweeps: the algorithm seed always, and (odd
  // members) the random reanchor policy, the one policy that actually
  // consumes the seed. Even members keep the configured policy and are
  // tagged coalescible whenever that policy is seed-blind, so the
  // replication path is exercised against members that each still get
  // their own independently executed solo reference. The comparison
  // stops at the lowest-index diverging member (the shrinker minimizes
  // toward that pair).
  if (config.batch_width >= 2) {
    RunConfig member_config;
    member_config.num_robots = k;
    member_config.max_rounds = config.max_rounds;
    std::vector<BfdnOptions> member_options;
    member_options.reserve(static_cast<std::size_t>(config.batch_width));
    BatchExecutor batch(tree);
    for (std::int32_t i = 0; i < config.batch_width; ++i) {
      BfdnOptions options = config.bfdn;
      options.seed = config.bfdn.seed + static_cast<std::uint64_t>(i);
      if (i % 2 == 1) options.policy = ReanchorPolicy::kRandom;
      std::string key;
      if (options.policy != ReanchorPolicy::kRandom) {
        key = str_format("seed-blind policy=%d cap=%d shortcut=%d",
                         static_cast<int>(options.policy),
                         options.depth_cap,
                         options.shortcut_reanchor ? 1 : 0);
      }
      batch.add_member(std::make_unique<BfdnAlgorithm>(k, options),
                       member_config, std::move(key));
      member_options.push_back(options);
    }
    try {
      const std::vector<RunResult> batched = batch.run();
      for (std::int32_t i = 0; i < config.batch_width; ++i) {
        BfdnAlgorithm solo(k, member_options[static_cast<std::size_t>(i)]);
        const RunResult expected =
            run_exploration(tree, solo, member_config);
        const std::string name = str_format("batch member %d", i);
        compare_run_results(batched[static_cast<std::size_t>(i)], expected,
                            name.c_str(), OracleCheck::kBatchEquivalence,
                            report);
        if (report.failed(OracleCheck::kBatchEquivalence)) break;
      }
    } catch (const CheckError& error) {
      fail(OracleCheck::kEngineInvariant, error.what());
    }

    // Per-round hash sequence: a member carrying an observer runs the
    // stepped loop, as it would solo; its hash stream and its
    // RunResult must reproduce the primary stepped run exactly.
    if (!report.failed(OracleCheck::kBatchEquivalence)) {
      try {
        std::vector<std::uint64_t> hashes;
        CollectingObserver observer(hashes);
        RunConfig hook_config = member_config;
        hook_config.check_invariants = true;
        hook_config.observer = &observer;
        BatchExecutor hook_batch(tree);
        hook_batch.add_member(
            std::make_unique<BfdnAlgorithm>(k, config.bfdn), hook_config);
        const RunResult hooked = hook_batch.run().front();
        if (hashes != primary.hashes) {
          const std::size_t common =
              std::min(hashes.size(), primary.hashes.size());
          std::size_t r = 0;
          while (r < common && hashes[r] == primary.hashes[r]) ++r;
          fail(OracleCheck::kBatchEquivalence,
               str_format("observed batch member and solo hash sequences "
                          "diverge at round %zu (%zu vs %zu rounds total)",
                          r + 1, hashes.size(), primary.hashes.size()));
        }
        compare_run_results(hooked, primary.result, "observed batch member",
                            OracleCheck::kBatchEquivalence, report);
      } catch (const CheckError& error) {
        fail(OracleCheck::kEngineInvariant, error.what());
      }
    }
  }

  // --- write-read BFDN (Proposition 6) -------------------------------
  if (config.run_write_read && paper_bfdn) {
    try {
      const WriteReadResult wr =
          run_write_read_bfdn(tree, k, config.max_rounds);
      const double bound = theorem1_bound(n, depth, delta, k);
      if (!wr.complete || !wr.all_at_root) {
        fail(OracleCheck::kWriteRead,
             str_format("complete=%d all_at_root=%d", wr.complete ? 1 : 0,
                        wr.all_at_root ? 1 : 0));
      } else if (static_cast<double>(wr.rounds) > bound) {
        fail(OracleCheck::kWriteRead,
             str_format("rounds %lld > Prop.6 bound %.2f",
                        static_cast<long long>(wr.rounds), bound));
      } else if (wr.max_robot_memory_bits > wr.memory_allowance_bits) {
        fail(OracleCheck::kWriteRead,
             str_format("memory %lld bits > allowance %lld",
                        static_cast<long long>(wr.max_robot_memory_bits),
                        static_cast<long long>(wr.memory_allowance_bits)));
      }
    } catch (const CheckError& error) {
      fail(OracleCheck::kEngineInvariant, error.what());
    }
  }

  // --- recursive BFDN_l (Theorem 10) ---------------------------------
  if (config.run_ell) {
    try {
      BfdnEllAlgorithm algorithm(k, config.ell);
      RunConfig run_config;
      run_config.num_robots = k;
      run_config.max_rounds = config.max_rounds;
      const RunResult result = run_exploration(tree, algorithm, run_config);
      const double bound =
          theorem10_bound(n, depth, delta, k, config.ell);
      if (!result.complete) {
        fail(OracleCheck::kEllTheorem10,
             str_format("ell=%d incomplete (hit_limit=%d)", config.ell,
                        result.hit_round_limit ? 1 : 0));
      } else if (static_cast<double>(result.rounds) > bound) {
        fail(OracleCheck::kEllTheorem10,
             str_format("ell=%d rounds %lld > Theorem 10 bound %.2f",
                        config.ell, static_cast<long long>(result.rounds),
                        bound));
      }
    } catch (const CheckError& error) {
      fail(OracleCheck::kEngineInvariant, error.what());
    }
  }

  // --- graph BFDN on the tree-as-graph (Section 4.3) -----------------
  if (config.run_graph && n >= 2) {
    try {
      const Graph graph = tree_as_graph(tree);
      const GraphExplorationResult gr =
          run_graph_bfdn(graph, k, config.max_rounds);
      if (!gr.complete || !gr.all_at_origin) {
        fail(OracleCheck::kGraphOnTree,
             str_format("complete=%d all_at_origin=%d",
                        gr.complete ? 1 : 0, gr.all_at_origin ? 1 : 0));
      } else if (gr.closed_edges != 0 || gr.tree_edges != n - 1) {
        // On a tree every dangling edge leads to an unexplored,
        // strictly-farther node, so the closing rule must never fire.
        fail(OracleCheck::kGraphOnTree,
             str_format("closed %lld edges, %lld tree edges (expected 0 "
                        "and %lld)",
                        static_cast<long long>(gr.closed_edges),
                        static_cast<long long>(gr.tree_edges),
                        static_cast<long long>(n - 1)));
      } else {
        const double bound =
            proposition9_bound(graph.num_edges(), graph.radius(),
                               graph.max_degree(), k);
        if (static_cast<double>(gr.rounds) > bound) {
          fail(OracleCheck::kGraphOnTree,
               str_format("rounds %lld > Prop.9 bound %.2f",
                          static_cast<long long>(gr.rounds), bound));
        }
      }
    } catch (const CheckError& error) {
      fail(OracleCheck::kEngineInvariant, error.what());
    }
  }

  return report;
}

}  // namespace bfdn
