// Rooted tree representation used as the (hidden) ground truth of every
// exploration experiment.
//
// Nodes are dense integer ids 0..n-1; node 0 is always the root. The
// children of every node are stored contiguously (CSR layout) so that
// per-round simulator hot loops touch contiguous memory. Depths and
// subtree sizes are precomputed at construction — the tree is immutable
// once built.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/check.h"

namespace bfdn {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

class Tree {
 public:
  /// Builds a tree from a parent array: parents[0] must be kInvalidNode
  /// (node 0 is the root); parents[v] < v is NOT required, but the parent
  /// relation must be acyclic and connected. Throws CheckError otherwise.
  static Tree from_parents(std::vector<NodeId> parents);

  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(parents_.size());
  }
  std::int64_t num_edges() const { return num_nodes() - 1; }
  NodeId root() const { return 0; }

  NodeId parent(NodeId v) const { return parents_[check_node(v)]; }
  std::span<const NodeId> children(NodeId v) const;
  std::int32_t num_children(NodeId v) const;

  /// Distance from the root (delta(v) in the paper).
  std::int32_t depth(NodeId v) const { return depths_[check_node(v)]; }
  /// Depth D of the tree: max over nodes of depth(v).
  std::int32_t depth() const { return tree_depth_; }

  /// Degree in the undirected sense (children + parent edge if any).
  std::int32_t degree(NodeId v) const;
  /// Maximum degree Delta over all nodes.
  std::int32_t max_degree() const { return max_degree_; }

  /// Number of nodes in the subtree rooted at v (T(v) in the paper).
  std::int64_t subtree_size(NodeId v) const {
    return subtree_sizes_[check_node(v)];
  }

  /// True iff a == b or a is a proper ancestor of b. O(1): preorder
  /// interval containment against the precomputed DFS numbering.
  bool is_ancestor_or_self(NodeId a, NodeId b) const {
    const std::int64_t ia = preorder_index_[check_node(a)];
    const std::int64_t ib = preorder_index_[check_node(b)];
    return ia <= ib && ib < ia + subtree_sizes_[static_cast<std::size_t>(a)];
  }

  /// Position of v in a depth-first preorder traversal (children in
  /// child order). T(v) occupies the contiguous index interval
  /// [preorder_index(v), preorder_index(v) + subtree_size(v)).
  std::int64_t preorder_index(NodeId v) const {
    return preorder_index_[check_node(v)];
  }

  /// The child of `a` on the path from `a` down to `b`; requires `a` to
  /// be a proper ancestor of `b`. O(log deg(a)): children are numbered
  /// in child order by the preorder traversal, so the answer is the
  /// last child whose preorder index does not exceed b's.
  NodeId child_toward(NodeId a, NodeId b) const;

  /// Nodes of the path root -> v, inclusive (P_T[v] reversed).
  std::vector<NodeId> path_from_root(NodeId v) const;

  /// Sanity string "Tree(n=..., D=..., Delta=...)" for logging.
  std::string summary() const;

 private:
  Tree() = default;
  std::size_t check_node(NodeId v) const {
    BFDN_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < parents_.size(),
                 "node id out of range");
    return static_cast<std::size_t>(v);
  }

  std::vector<NodeId> parents_;
  std::vector<std::int32_t> depths_;
  std::vector<std::int64_t> subtree_sizes_;
  std::vector<std::int64_t> preorder_index_;
  // CSR children: children of v are child_data_[child_offsets_[v] ..
  // child_offsets_[v+1]).
  std::vector<std::int64_t> child_offsets_;
  std::vector<NodeId> child_data_;
  std::int32_t tree_depth_ = 0;
  std::int32_t max_degree_ = 0;
};

/// Incremental construction helper: create the root, then attach children.
class TreeBuilder {
 public:
  TreeBuilder();

  /// Adds a node whose parent is `parent`; returns the new node's id.
  NodeId add_child(NodeId parent);

  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(parents_.size());
  }

  /// Finalizes into an immutable Tree. The builder may be reused after.
  Tree build() const;

 private:
  std::vector<NodeId> parents_;
};

}  // namespace bfdn
