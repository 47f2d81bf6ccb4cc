// Tree and workload generators.
//
// All generators are deterministic given their Rng. Families are chosen
// to cover the regimes of Figure 1 and the stress cases of the analysis:
// shallow/bushy (stars, b-ary), deep/thin (paths, spiders, combs),
// balanced random, and the adversarial constructions used in the
// collaborative-exploration literature.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/tree.h"
#include "support/rng.h"

namespace bfdn {

/// Path with n nodes (depth n-1). Requires n >= 1.
Tree make_path(std::int64_t n);

/// Star: root with n-1 leaves (depth 1). Requires n >= 1.
Tree make_star(std::int64_t n);

/// Complete b-ary tree of the given depth. Requires branching >= 1.
Tree make_complete_bary(std::int32_t branching, std::int32_t depth);

/// Spider: `legs` paths of length `leg_length` glued at the root.
Tree make_spider(std::int32_t legs, std::int32_t leg_length);

/// Caterpillar: spine path of `spine` nodes, each spine node carrying
/// `legs_per_node` leaf children.
Tree make_caterpillar(std::int32_t spine, std::int32_t legs_per_node);

/// Comb: spine path of `spine` nodes, each spine node the root of a
/// downward "tooth" path of `tooth_length` nodes.
Tree make_comb(std::int32_t spine, std::int32_t tooth_length);

/// Broom: handle path of `handle` nodes ending in `bristles` leaves.
Tree make_broom(std::int32_t handle, std::int32_t bristles);

/// Random recursive tree: node i attaches to a uniform node < i.
/// Expected depth Theta(log n).
Tree make_random_recursive(std::int64_t n, Rng& rng);

/// Random tree with maximum number of children per node; attachment
/// uniform among nodes that still have a free child slot.
Tree make_random_bounded_degree(std::int64_t n, std::int32_t max_children,
                                Rng& rng);

/// Random tree with exactly n nodes and depth exactly target_depth:
/// a path of length target_depth plus uniform attachment of the
/// remaining nodes at depths < target_depth. Used for the measured
/// Figure-1 map, which sweeps (n, D) directly.
/// Requires n >= target_depth + 1 and target_depth >= 1 (or n == 1 and
/// target_depth == 0).
Tree make_tree_with_depth(std::int64_t n, std::int32_t target_depth,
                          Rng& rng);

/// The hard instance for CTE in the spirit of Higashikawa et al. [11]:
/// `phases` stacked complete binary gadgets of depth ceil(log2 k), where
/// below each gadget exactly one (random) leaf continues to the next
/// phase. n ~= 2k * phases, depth ~= phases * (log2 k + 1).
Tree make_cte_hard_tree(std::int32_t k, std::int32_t phases, Rng& rng);

/// Size-conditioned Galton-Watson-style tree: grows a random tree by
/// repeatedly giving a uniformly random leaf between 1 and max_children
/// children, until n nodes exist. Produces irregular shapes with both
/// deep and bushy regions.
Tree make_random_leafy(std::int64_t n, std::int32_t max_children, Rng& rng);

/// Uniformly random *full binary* tree with `internal` internal nodes
/// (every node has 0 or 2 children; 2*internal + 1 nodes total), via
/// Rémy's algorithm. Expected depth Theta(sqrt(internal)).
Tree make_remy_binary(std::int32_t internal, Rng& rng);

/// Double broom: bristles at the root, a long handle, bristles at the
/// bottom — the classic shape where load balancing must hand work over
/// from the shallow brush to the deep one.
Tree make_double_broom(std::int32_t top_bristles, std::int32_t handle,
                       std::int32_t bottom_bristles);

/// Lopsided binary tree: at each level one child continues the full
/// remaining depth while the other roots a complete binary subtree of
/// logarithmic size. Deep with bushy decorations all along the spine.
Tree make_lopsided(std::int32_t depth);

/// Builds a tree from the CLI / serving-protocol family vocabulary:
/// random | path | star | binary | spider | caterpillar | comb | broom
/// | cte-hard | fixed-depth. Parameter use matches `bfdn generate`:
/// `nodes` where the family is sized by node count, `depth` for
/// binary/comb/broom/fixed-depth, `arms` for legs / teeth / branching,
/// `seed` for the randomized families. A served run and a CLI run with
/// the same five values see bit-identical trees (tests/service_test).
/// Throws CheckError on an unknown family name.
Tree make_family_tree(const std::string& family, std::int64_t nodes,
                      std::int32_t depth, std::int32_t arms,
                      std::uint64_t seed);

/// Why make_family_tree would refuse a known family with these
/// parameters (given nodes >= 1, depth >= 0 and arms >= 1), or nullptr
/// if it builds them. The text is stable: servers send it to clients.
const char* family_tree_refusal(std::string_view family, std::int64_t nodes,
                                std::int32_t depth, std::int32_t arms);

/// The number of nodes make_family_tree builds for parameters it
/// accepts, or `cap` + 1 if that is more (so a size check costs no
/// allocation and no product overflows). `cap` must be below 2^62.
std::int64_t family_tree_nodes(std::string_view family, std::int64_t nodes,
                               std::int32_t depth, std::int32_t arms,
                               std::int64_t cap);

/// Named standard families used by test/bench sweeps.
struct NamedTree {
  std::string name;
  Tree tree;
};

/// A diverse zoo of trees of roughly `scale` nodes (>= 1), deterministic
/// in `seed`; used by property tests and bound-validation benches.
std::vector<NamedTree> make_tree_zoo(std::int64_t scale, std::uint64_t seed);

}  // namespace bfdn
