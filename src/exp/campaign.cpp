#include "exp/campaign.h"

#include <memory>

#include "baselines/bfs_levels.h"
#include "baselines/brass.h"
#include "baselines/cte.h"
#include "baselines/depth_next_only.h"
#include "core/bfdn.h"
#include "recursive/bfdn_ell.h"
#include "sim/engine.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace bfdn {

std::string algorithm_kind_name(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kBfdn: return "BFDN";
    case AlgorithmKind::kBfdnShortcut: return "BFDN+shortcut";
    case AlgorithmKind::kCte: return "CTE";
    case AlgorithmKind::kDnSwarm: return "DN-swarm";
    case AlgorithmKind::kBfdnEll2: return "BFDN_2";
    case AlgorithmKind::kBfdnEll3: return "BFDN_3";
    case AlgorithmKind::kBfsLevels: return "BFS-levels";
    case AlgorithmKind::kBrass: return "Brass";
  }
  return "?";
}

namespace {

std::unique_ptr<Algorithm> make_algorithm(AlgorithmKind kind,
                                          const Tree& tree,
                                          std::int32_t k) {
  switch (kind) {
    case AlgorithmKind::kBfdn:
      return std::make_unique<BfdnAlgorithm>(k);
    case AlgorithmKind::kBfdnShortcut: {
      BfdnOptions options;
      options.shortcut_reanchor = true;
      return std::make_unique<BfdnAlgorithm>(k, options);
    }
    case AlgorithmKind::kCte:
      return std::make_unique<CteAlgorithm>(tree, k);
    case AlgorithmKind::kDnSwarm:
      return std::make_unique<DepthNextOnlyAlgorithm>(k);
    case AlgorithmKind::kBfdnEll2:
      return std::make_unique<BfdnEllAlgorithm>(k, 2);
    case AlgorithmKind::kBfdnEll3:
      return std::make_unique<BfdnEllAlgorithm>(k, 3);
    case AlgorithmKind::kBfsLevels:
      return std::make_unique<BfsLevelsAlgorithm>(k);
    case AlgorithmKind::kBrass:
      return std::make_unique<BrassAlgorithm>(k);
  }
  BFDN_CHECK(false, "unknown algorithm kind");
  return nullptr;
}

}  // namespace

std::int64_t run_single_cell(AlgorithmKind algorithm, const Tree& tree,
                             std::int32_t k) {
  auto algo = make_algorithm(algorithm, tree, k);
  RunConfig config;
  config.num_robots = k;
  const RunResult result = run_exploration(tree, *algo, config);
  BFDN_CHECK(result.complete, "cell failed to explore the tree");
  return result.rounds;
}

void Campaign::add_tree(std::string name, Tree tree) {
  instances_.push_back({std::move(name), std::move(tree)});
}

void Campaign::add_team_size(std::int32_t k) {
  BFDN_REQUIRE(k >= 1, "k >= 1");
  team_sizes_.push_back(k);
}

void Campaign::add_algorithm(AlgorithmKind kind) {
  algorithms_.push_back(kind);
}

std::size_t Campaign::num_cells() const {
  return instances_.size() * team_sizes_.size() * algorithms_.size();
}

std::vector<CellResult> Campaign::run(std::int32_t threads) const {
  BFDN_REQUIRE(!instances_.empty(), "campaign without trees");
  BFDN_REQUIRE(!team_sizes_.empty(), "campaign without team sizes");
  BFDN_REQUIRE(!algorithms_.empty(), "campaign without algorithms");

  std::vector<CellResult> results(num_cells());
  const std::size_t cells_per_tree =
      team_sizes_.size() * algorithms_.size();
  ThreadPool pool(threads);
  std::size_t base = 0;
  for (const Instance& instance : instances_) {
    CellResult* out = &results[base];
    base += cells_per_tree;
    const Instance* inst = &instance;
    // One task per tree: the tree's cells run one after another, each
    // with its own algorithm and run state, and write into the block's
    // slots in k-major, then algorithm, order.
    pool.submit([this, out, inst] {
      const Tree& tree = inst->tree;
      std::size_t slot = 0;
      for (const std::int32_t k : team_sizes_) {
        for (const AlgorithmKind kind : algorithms_) {
          RunConfig config;
          config.num_robots = k;
          auto algorithm = make_algorithm(kind, tree, k);
          const RunResult run_result =
              run_exploration(tree, *algorithm, config);
          CellResult* cell = out + slot;
          ++slot;
          cell->tree_name = inst->name;
          cell->n = tree.num_nodes();
          cell->depth = tree.depth();
          cell->max_degree = tree.max_degree();
          cell->k = k;
          cell->algorithm = kind;
          cell->rounds = run_result.rounds;
          cell->complete = run_result.complete;
          cell->all_at_root = run_result.all_at_root;
          const double opt_proxy =
              static_cast<double>(tree.num_nodes()) / k + tree.depth();
          cell->ratio_vs_opt =
              static_cast<double>(run_result.rounds) / opt_proxy;
          const double lower =
              offline_lower_bound(tree.num_nodes(), tree.depth(), k);
          cell->ratio_vs_lower =
              static_cast<double>(run_result.rounds) / lower;
          cell->overhead =
              static_cast<double>(run_result.rounds) -
              2.0 * static_cast<double>(tree.num_nodes()) / k;
        }
      }
    });
  }
  pool.wait_idle();
  return results;
}

}  // namespace bfdn
