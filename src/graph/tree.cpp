#include "graph/tree.h"

#include <algorithm>
#include <numeric>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn {

Tree Tree::from_parents(std::vector<NodeId> parents) {
  BFDN_REQUIRE(!parents.empty(), "tree needs at least the root");
  BFDN_REQUIRE(parents[0] == kInvalidNode, "node 0 must be the root");
  const auto n = static_cast<std::int64_t>(parents.size());
  BFDN_REQUIRE(n <= (std::int64_t{1} << 31) - 1, "too many nodes");

  Tree t;
  t.parents_ = std::move(parents);

  // Count children and build CSR offsets.
  std::vector<std::int32_t> child_counts(static_cast<std::size_t>(n), 0);
  for (std::int64_t v = 1; v < n; ++v) {
    const NodeId p = t.parents_[static_cast<std::size_t>(v)];
    BFDN_REQUIRE(p >= 0 && p < n, "parent id out of range");
    BFDN_REQUIRE(p != v, "self-parent");
    ++child_counts[static_cast<std::size_t>(p)];
  }
  t.child_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t v = 0; v < n; ++v) {
    t.child_offsets_[static_cast<std::size_t>(v) + 1] =
        t.child_offsets_[static_cast<std::size_t>(v)] +
        child_counts[static_cast<std::size_t>(v)];
  }
  t.child_data_.assign(static_cast<std::size_t>(n - 1), kInvalidNode);
  {
    std::vector<std::int64_t> cursor(t.child_offsets_.begin(),
                                     t.child_offsets_.end() - 1);
    for (std::int64_t v = 1; v < n; ++v) {
      const NodeId p = t.parents_[static_cast<std::size_t>(v)];
      t.child_data_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(p)]++)] = static_cast<NodeId>(v);
    }
  }

  // Depths and connectivity via BFS from the root; a cycle or a node
  // unreachable from the root leaves depth unassigned.
  t.depths_.assign(static_cast<std::size_t>(n), -1);
  t.depths_[0] = 0;
  // `order` doubles as the FIFO queue: every node is appended once, by
  // its parent, and visited when the scan reaches it.
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(0);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (NodeId c : t.children(v)) {
      t.depths_[static_cast<std::size_t>(c)] =
          t.depths_[static_cast<std::size_t>(v)] + 1;
      order.push_back(c);
    }
  }
  BFDN_REQUIRE(static_cast<std::int64_t>(order.size()) == n,
               "parent array is not a connected tree");
  t.tree_depth_ = *std::max_element(t.depths_.begin(), t.depths_.end());

  // Subtree sizes in reverse BFS order (children before parents).
  t.subtree_sizes_.assign(static_cast<std::size_t>(n), 1);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    if (v != 0) {
      t.subtree_sizes_[static_cast<std::size_t>(
          t.parents_[static_cast<std::size_t>(v)])] +=
          t.subtree_sizes_[static_cast<std::size_t>(v)];
    }
  }

  // Preorder numbering (iterative DFS, children in child order); with
  // subtree sizes this answers ancestor queries in O(1).
  t.preorder_index_.assign(static_cast<std::size_t>(n), 0);
  {
    std::vector<NodeId> dfs{0};
    std::int64_t clock = 0;
    while (!dfs.empty()) {
      const NodeId v = dfs.back();
      dfs.pop_back();
      t.preorder_index_[static_cast<std::size_t>(v)] = clock++;
      const auto kids = t.children(v);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        dfs.push_back(*it);
      }
    }
  }

  t.max_degree_ = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    t.max_degree_ =
        std::max(t.max_degree_, t.degree(static_cast<NodeId>(v)));
  }
  return t;
}

std::span<const NodeId> Tree::children(NodeId v) const {
  const std::size_t idx = check_node(v);
  const auto begin = static_cast<std::size_t>(child_offsets_[idx]);
  const auto end = static_cast<std::size_t>(child_offsets_[idx + 1]);
  return {child_data_.data() + begin, end - begin};
}

std::int32_t Tree::num_children(NodeId v) const {
  const std::size_t idx = check_node(v);
  return static_cast<std::int32_t>(child_offsets_[idx + 1] -
                                   child_offsets_[idx]);
}

std::int32_t Tree::degree(NodeId v) const {
  return num_children(v) + (v == root() ? 0 : 1);
}

NodeId Tree::child_toward(NodeId a, NodeId b) const {
  BFDN_REQUIRE(a != b && is_ancestor_or_self(a, b),
               "child_toward needs a proper ancestor");
  const std::int64_t target = preorder_index_[static_cast<std::size_t>(b)];
  const auto kids = children(a);
  const auto after = std::upper_bound(
      kids.begin(), kids.end(), target, [this](std::int64_t t, NodeId c) {
        return t < preorder_index_[static_cast<std::size_t>(c)];
      });
  return *(after - 1);
}

std::vector<NodeId> Tree::path_from_root(NodeId v) const {
  std::vector<NodeId> path;
  for (NodeId cur = v; cur != kInvalidNode; cur = parent(cur)) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Tree::summary() const {
  return str_format("Tree(n=%lld, D=%d, Delta=%d)",
                    static_cast<long long>(num_nodes()), depth(),
                    max_degree());
}

TreeBuilder::TreeBuilder() { parents_.push_back(kInvalidNode); }

NodeId TreeBuilder::add_child(NodeId parent) {
  BFDN_REQUIRE(parent >= 0 &&
                   static_cast<std::size_t>(parent) < parents_.size(),
               "parent id out of range");
  parents_.push_back(parent);
  return static_cast<NodeId>(parents_.size() - 1);
}

Tree TreeBuilder::build() const { return Tree::from_parents(parents_); }

}  // namespace bfdn
