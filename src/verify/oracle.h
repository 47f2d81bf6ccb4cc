// Differential oracle: runs the model variants the paper proves
// equivalent-or-bounded on one instance and cross-checks everything the
// theory implies.
//
// Checks, per instance (a tree and a robot count):
//  * BFDN (Algorithm 1, least-loaded) completes, returns every robot to
//    the root, produces exactly 2(n-1) edge events, and stays within the
//    Theorem 1 round bound; the engine's Claim 2/4 invariant checkers
//    are forced on for the whole run.
//  * The per-depth anchor-switch histogram respects Lemma 2's
//    k(min{log k, log Delta} + 3) at every depth (log k branch only
//    under break-downs, Proposition 7).
//  * Incremental-counter BFDN and reference-load BFDN (n_v recomputed
//    from all anchors at every query, BfdnOptions::reference_loads)
//    produce bit-identical executions — every round hash, every
//    reanchor. This is the check that catches counter-maintenance bugs
//    such as the fault_load_leak injection.
//  * The fast-forward engine reproduces the stepped engine exactly:
//    rounds, final-state digest, edge events, idle accounting, per-robot
//    move counts, the reanchor and Lemma-2 switch histograms and the
//    depth-completion timeline, uncapped and under a round limit of
//    R/2 + 1 that cuts committed walks short (skipped under break-down
//    schedules, where fast-forward disables itself).
//  * Write-read BFDN (Section 4.1) completes within the same Theorem 1
//    bound (Proposition 6) and within its memory allowance.
//  * BFDN_l completes within the Theorem 10 bound.
//  * Graph-BFDN run on the tree-as-graph behaves exactly like tree
//    exploration (Section 4.3 degenerates on trees): no edge is ever
//    closed, the BFS tree is the tree itself, and rounds respect the
//    Proposition 9 bound.
//  * The per-robot-clock engine under the round-robin scheduler
//    reproduces the synchronous execution bit-identically — the same
//    per-round state hashes, final digest, Lemma 2 histograms and every
//    other RunResult field — in both its stepped loop and its async
//    fast-forward; and for an exotic AsyncSpec (heterogeneous rates,
//    laggards, random gaps) the two loops agree with each other, also
//    under a round limit of R/2 + 1 that cuts walks short, and the run
//    still completes with 2(n-1) edge events and all robots home
//    (skipped under break-down schedules, which are mutually exclusive
//    with async scheduling).
//  * Under a break-down schedule (Section 4.2): if the run ended
//    incomplete, the adversary must not have granted an average allowed
//    distance of 2n/k + D^2(log k + 3) (Proposition 7 contrapositive).
//  * Every member of a batched campaign (sim/batch_executor) reproduces
//    its solo engine run bit-exactly — full RunResult, final-state
//    digest, and (through the stepped-fallback member that carries an
//    observer) the per-round hash sequence — including members that the
//    executor coalesced as seed-blind twins, each of which is compared
//    against its own independently executed solo run (skipped under
//    break-down schedules, whose members the executor rejects).
//
// Any CheckError thrown by an engine invariant is converted into an
// oracle failure rather than propagating.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/tree.h"
#include "verify/spec.h"

namespace bfdn {

enum class OracleCheck : std::uint8_t {
  kBfdnRun = 0,          // completes / all home / 2(n-1) edge events
  kTheorem1Bound = 1,    // rounds <= 2n/k + D^2(min{log k,log D}+3)
  kLemma2PerDepth = 2,   // per-depth anchor switches <= k(...+3)
  kLoadCounters = 3,     // incremental == reference-load execution
  kWriteRead = 4,        // Prop. 6 bound + memory allowance
  kEllTheorem10 = 5,     // BFDN_l within Theorem 10 bound
  kGraphOnTree = 6,      // Section 4.3 degenerates to tree BFDN
  kBreakdown = 7,        // Prop. 7 work accounting under schedules
  kEngineInvariant = 8,  // a BFDN_CHECK fired inside a run
  kFastForward = 9,      // fast-forward == stepped engine, field by field
  kAsyncEquivalence = 10,  // round-robin async == sync, bit by bit
  kBatchEquivalence = 11,  // batched campaign member == its solo run
};

const char* oracle_check_name(OracleCheck check);

struct OracleConfig {
  std::int32_t k = 4;
  /// Break-down schedule applied to the primary BFDN runs (kNone = the
  /// plain Section 2 setting). Bound checks that do not hold under
  /// break-downs are adjusted per Proposition 7.
  ScheduleSpec schedule;
  /// Exotic per-robot-clock schedule to exercise on top of the always-on
  /// round-robin equivalence leg (kNone / kRoundRobin add nothing).
  /// Mutually exclusive with `schedule`; ignored under break-downs.
  AsyncSpec async;
  /// Options for the primary BFDN runs. The bound checks assume the
  /// paper's algorithm (least-loaded, no depth cap, no shortcut) and
  /// are skipped for other policies. Fault-injection knobs ride here.
  BfdnOptions bfdn;
  /// Which secondary models to run (all on by default; the fuzzer may
  /// skip some for speed on large instances).
  bool run_write_read = true;
  bool run_ell = true;
  std::int32_t ell = 1;
  bool run_graph = true;
  std::int64_t max_rounds = 0;
  /// Width of the batched-campaign differential (kBatchEquivalence):
  /// the oracle builds a batch of this many member variants of the
  /// primary run (seed sweep; odd members switch to the seed-consuming
  /// random reanchor policy) and compares every member against its own
  /// solo execution. 0 or 1 skips the check; the fuzzer samples widths
  /// via --batch-p / --batch-width.
  std::int32_t batch_width = 0;
};

struct OracleFailure {
  OracleCheck check = OracleCheck::kBfdnRun;
  std::string detail;
};

struct OracleReport {
  std::vector<OracleFailure> failures;
  std::int64_t bfdn_rounds = 0;
  bool ok() const { return failures.empty(); }
  /// True iff some failure has the given check id.
  bool failed(OracleCheck check) const;
  std::string summary() const;
};

/// Runs every applicable check on (tree, config).
OracleReport run_oracle(const Tree& tree, const OracleConfig& config);

}  // namespace bfdn
