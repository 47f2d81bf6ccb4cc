// Breadth-First Depth-Next (Algorithm 1) — the paper's primary
// contribution, in the complete-communication model.
//
// Robot life cycle: at the root a robot is (re-)anchored to the
// shallowest open node of minimum load (procedure Reanchor), walks to
// its anchor along explored edges in breadth-first moves (procedure BF),
// then performs depth-next moves
// (procedure DN: take an adjacent unreserved dangling edge if any, else
// go up) until it reaches the root again.
//
// Guarantee (Theorem 1): exploration finishes and all robots are back at
// the root after at most 2n/k + D^2 (min(log k, log Delta) + 3) rounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "support/rng.h"

namespace bfdn {

/// Anchor-choice policy of procedure Reanchor. The paper's rule is
/// kLeastLoaded; the alternatives exist for the ablation benches, which
/// show the log(k) term in Lemma 2 is earned by load balancing.
enum class ReanchorPolicy {
  kLeastLoaded,  // paper: argmin load among shallowest open nodes
  kRandom,       // uniform among shallowest open nodes
  kFirstFit,     // smallest node id among shallowest open nodes
  kMostLoaded,   // adversarially bad: argmax load
};

struct BfdnOptions {
  ReanchorPolicy policy = ReanchorPolicy::kLeastLoaded;
  /// Seed for the kRandom policy.
  std::uint64_t seed = 1;
  /// If >= 0, Reanchor only considers open nodes of depth <= depth_cap
  /// and robots whose anchor would exceed the cap become idle at the
  /// root (the BFDN_1(k, k, d) variant of Section 5).
  std::int32_t depth_cap = -1;
  /// Ablation of the design choice discussed after Algorithm 1: the
  /// paper sends a finished robot all the way back to the root before
  /// re-anchoring (which is what makes the write-read planner work).
  /// With this flag the robot re-anchors the moment its excursion ends
  /// and walks the shortest explored path to the new anchor instead.
  /// Complete-communication only; Claim 1's idle accounting and the
  /// write-read reduction do not apply to this variant.
  bool shortcut_reanchor = false;
  /// Verification-harness knob (src/verify): compute the Reanchor load
  /// n_v by scanning all robots' anchors instead of reading the
  /// incremental per-node counters. Semantically identical (and the
  /// differential oracle asserts so, run against run), just O(k) per
  /// query — the slow reference the counters are checked against.
  bool reference_loads = false;
  /// Verification-harness fault injection: set_anchor "forgets" to
  /// increment the new anchor's load counter on odd node ids — the
  /// classic off-by-one leak in the incremental Reanchor bookkeeping,
  /// which under-reports n_v on nodes that are still open and competed
  /// for. Only affects the counter path, never the reference_loads
  /// path, so the differential oracle must catch it. Never set outside
  /// tests.
  bool fault_load_leak = false;
};

class BfdnAlgorithm : public Algorithm {
 public:
  explicit BfdnAlgorithm(std::int32_t num_robots,
                         BfdnOptions options = BfdnOptions{});

  std::string name() const override;
  /// Appends the name() of a BfdnAlgorithm with these options to `out`,
  /// without building one (the service's canonical request form spells
  /// it on every request).
  static void name_of(const BfdnOptions& options, std::string& out);
  void begin(const ExplorationView& view) override;
  void select_moves(const ExplorationView& view,
                    MoveSelector& selector) override;
  std::vector<NodeId> anchors() const override;

  /// Async-safety (per-robot-clock engine). Every BFDN decision is a
  /// function of shared exploration state plus the deciding robot's own
  /// private (mode, anchor) — select_one never reads another
  /// robot's private state — so activating any subset of robots at a
  /// time step is well-defined and a robot that stays keeps staying
  /// until someone else moves (stay-stability). Holds for all ablation
  /// variants, including the step-only shortcut one.
  ActivationGranularity activation_granularity() const override;

  /// Fast-forward support. Every BFDN decision depends only on shared
  /// exploration state and the robot's own (mode, anchor), so BF
  /// descents and DN return climbs are committed segments. The shortcut
  /// ablation re-anchors mid-climb when passing the anchor — a decision
  /// point inside what would otherwise be a committed walk — so it
  /// stays step-only.
  TransitCapability transit_capability() const override;
  void plan_transit(const ExplorationView& view, std::int32_t robot,
                    TransitPlan& plan) override;
  void select_moves_subset(const ExplorationView& view,
                           MoveSelector& selector,
                           const std::vector<std::int32_t>& robots) override;

  /// Robots currently anchored at the root because the depth cap left
  /// them nothing to do ("inactive" in Section 5's terms).
  std::int32_t num_inactive() const;

 private:
  /// Robot mode. Navigation is *stateless* given (mode, anchor) and the
  /// observed position: an outbound robot recomputes its next step on
  /// the path to its anchor every round, so a cancelled move (Section
  /// 4.2 break-downs, including the reactive adversary of Remark 8)
  /// cannot desynchronize any stack — the robot simply retries.
  enum class Mode : std::uint8_t { kOutbound, kExploring };

  /// Procedure Reanchor for robot i; returns the chosen anchor, or
  /// kInvalidNode when no open node is eligible (robot idles at root).
  NodeId reanchor(const ExplorationView& view, std::int32_t robot);

  /// All anchor writes go through here so the per-node load counters
  /// (n_v in procedure Reanchor) stay incremental: load_of is O(1) and
  /// reanchor is O(candidates) instead of O(k * candidates).
  void set_anchor(std::size_t robot, NodeId v);
  std::int32_t load_of(NodeId v) const;

  std::int32_t num_robots_;
  BfdnOptions options_;
  Rng rng_;
  std::vector<NodeId> anchors_;  // v_i
  std::vector<Mode> modes_;
  std::vector<char> inactive_;  // idle-at-root flag (depth-cap variant)
  // anchor_load_[v] == #{j : anchors_[j] == v}; grown lazily (node ids
  // are dense and only explored nodes become anchors).
  std::vector<std::int32_t> anchor_load_;
  // Scratch for the kRandom policy's order-statistic selection.
  std::vector<NodeId> random_scratch_;

  /// One robot's turn of the sequential selection loop; shared by
  /// select_moves and select_moves_subset so both modes run the exact
  /// same decision code.
  void select_one(const ExplorationView& view, MoveSelector& selector,
                  std::int32_t robot);
};

}  // namespace bfdn
