// Experiment campaigns: evaluate a grid of (tree instance, algorithm,
// team size) cells and collect per-cell metrics. The bench binaries
// that sweep many configurations (competitive-ratio estimates, winner
// maps) are built on this.
//
// Execution: trees shard across the thread pool, and each tree's cells
// run one after another through run_exploration. Every cell builds its
// own algorithm and run state and writes into its own pre-allocated
// result slot, so results do not depend on the thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/tree.h"

namespace bfdn {

enum class AlgorithmKind {
  kBfdn,
  kBfdnShortcut,
  kCte,
  kDnSwarm,
  kBfdnEll2,
  kBfdnEll3,
  kBfsLevels,
  kBrass,
};

std::string algorithm_kind_name(AlgorithmKind kind);

struct CellResult {
  std::string tree_name;
  std::int64_t n = 0;
  std::int32_t depth = 0;
  std::int32_t max_degree = 0;
  std::int32_t k = 0;
  AlgorithmKind algorithm = AlgorithmKind::kBfdn;
  std::int64_t rounds = 0;
  bool complete = false;
  bool all_at_root = false;
  /// rounds / (n/k + D): the competitive-ratio denominator of Section 1
  /// (up to a constant factor).
  double ratio_vs_opt = 0;
  /// rounds / max(2(n-1)/k, 2D).
  double ratio_vs_lower = 0;
  /// rounds - 2n/k: the competitive-overhead lens of [1].
  double overhead = 0;
};

/// Runs one (algorithm, tree, k) cell to completion and returns the
/// round count; throws if the algorithm fails to explore the tree.
std::int64_t run_single_cell(AlgorithmKind algorithm, const Tree& tree,
                             std::int32_t k);

class Campaign {
 public:
  /// Registers an instance (takes ownership of the tree).
  void add_tree(std::string name, Tree tree);
  void add_team_size(std::int32_t k);
  void add_algorithm(AlgorithmKind kind);

  std::size_t num_cells() const;

  /// Runs every (tree, k, algorithm) cell; threads == 0 picks the
  /// hardware concurrency. Results are in deterministic cell order
  /// (tree-major, then k, then algorithm) regardless of thread count.
  std::vector<CellResult> run(std::int32_t threads = 0) const;

 private:
  struct Instance {
    std::string name;
    Tree tree;
  };
  std::vector<Instance> instances_;
  std::vector<std::int32_t> team_sizes_;
  std::vector<AlgorithmKind> algorithms_;
};

}  // namespace bfdn
