#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/tree.h"
#include "support/check.h"
#include "support/rng.h"

namespace bfdn {
namespace {

Tree small_tree() {
  // 0 -> {1, 2}; 1 -> {3, 4}; 4 -> {5}
  return Tree::from_parents({kInvalidNode, 0, 0, 1, 1, 4});
}

TEST(TreeTest, BasicShape) {
  const Tree t = small_tree();
  EXPECT_EQ(t.num_nodes(), 6);
  EXPECT_EQ(t.num_edges(), 5);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.depth(), 3);
}

TEST(TreeTest, ParentsAndChildren) {
  const Tree t = small_tree();
  EXPECT_EQ(t.parent(0), kInvalidNode);
  EXPECT_EQ(t.parent(3), 1);
  const auto kids = t.children(1);
  EXPECT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 3);
  EXPECT_EQ(kids[1], 4);
  EXPECT_EQ(t.num_children(2), 0);
}

TEST(TreeTest, Depths) {
  const Tree t = small_tree();
  EXPECT_EQ(t.depth(0), 0);
  EXPECT_EQ(t.depth(2), 1);
  EXPECT_EQ(t.depth(5), 3);
}

TEST(TreeTest, DegreesAndMaxDegree) {
  const Tree t = small_tree();
  EXPECT_EQ(t.degree(0), 2);   // two children, no parent
  EXPECT_EQ(t.degree(1), 3);   // two children + parent
  EXPECT_EQ(t.degree(5), 1);   // leaf
  EXPECT_EQ(t.max_degree(), 3);
}

TEST(TreeTest, SubtreeSizes) {
  const Tree t = small_tree();
  EXPECT_EQ(t.subtree_size(0), 6);
  EXPECT_EQ(t.subtree_size(1), 4);
  EXPECT_EQ(t.subtree_size(4), 2);
  EXPECT_EQ(t.subtree_size(2), 1);
}

TEST(TreeTest, AncestorQueries) {
  const Tree t = small_tree();
  EXPECT_TRUE(t.is_ancestor_or_self(0, 5));
  EXPECT_TRUE(t.is_ancestor_or_self(1, 5));
  EXPECT_TRUE(t.is_ancestor_or_self(5, 5));
  EXPECT_FALSE(t.is_ancestor_or_self(2, 5));
  EXPECT_FALSE(t.is_ancestor_or_self(5, 1));
}

TEST(TreeTest, PathFromRoot) {
  const Tree t = small_tree();
  EXPECT_EQ(t.path_from_root(5), (std::vector<NodeId>{0, 1, 4, 5}));
  EXPECT_EQ(t.path_from_root(0), (std::vector<NodeId>{0}));
}

/// Naive reference for child_toward: climb from b to depth(a) + 1.
NodeId naive_child_toward(const Tree& t, NodeId a, NodeId b) {
  NodeId cur = b;
  while (t.depth(cur) > t.depth(a) + 1) cur = t.parent(cur);
  return cur;
}

/// child_toward on every (proper ancestor, descendant) pair of `t`.
void expect_child_toward_matches_reference(const Tree& t) {
  for (NodeId b = 0; b < t.num_nodes(); ++b) {
    for (NodeId a = t.parent(b); a != kInvalidNode; a = t.parent(a)) {
      ASSERT_EQ(t.child_toward(a, b), naive_child_toward(t, a, b))
          << t.summary() << " a=" << a << " b=" << b;
    }
  }
}

TEST(TreeTest, ChildTowardMatchesAncestorWalk) {
  const Tree t = small_tree();
  EXPECT_EQ(t.child_toward(0, 5), 1);
  EXPECT_EQ(t.child_toward(1, 5), 4);
  EXPECT_EQ(t.child_toward(4, 5), 5);
  EXPECT_EQ(t.child_toward(0, 2), 2);
  expect_child_toward_matches_reference(t);
  expect_child_toward_matches_reference(make_caterpillar(60, 3));
  expect_child_toward_matches_reference(make_spider(8, 12));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    expect_child_toward_matches_reference(make_random_recursive(150, rng));
    expect_child_toward_matches_reference(make_random_leafy(150, 4, rng));
    expect_child_toward_matches_reference(
        make_tree_with_depth(150, 12, rng));
  }
  // Forward parent references: child ids are not in preorder.
  expect_child_toward_matches_reference(
      Tree::from_parents({kInvalidNode, 2, 0, 0, 1, 3, 1, 4}));
}

TEST(TreeTest, ChildTowardRejectsNonAncestors) {
  const Tree t = small_tree();
  EXPECT_THROW(t.child_toward(5, 5), CheckError);  // not proper
  EXPECT_THROW(t.child_toward(2, 5), CheckError);  // other branch
  EXPECT_THROW(t.child_toward(5, 1), CheckError);  // wrong direction
}

TEST(TreeTest, SingleNode) {
  const Tree t = Tree::from_parents({kInvalidNode});
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_EQ(t.num_edges(), 0);
  EXPECT_EQ(t.depth(), 0);
  EXPECT_EQ(t.max_degree(), 0);
}

TEST(TreeTest, RejectsEmptyAndBadRoot) {
  EXPECT_THROW(Tree::from_parents({}), CheckError);
  EXPECT_THROW(Tree::from_parents({0}), CheckError);  // root self-parent
}

TEST(TreeTest, RejectsCycle) {
  // 1 and 2 point at each other; unreachable from root.
  EXPECT_THROW(Tree::from_parents({kInvalidNode, 2, 1}), CheckError);
}

TEST(TreeTest, RejectsOutOfRangeParent) {
  EXPECT_THROW(Tree::from_parents({kInvalidNode, 7}), CheckError);
}

TEST(TreeTest, AcceptsForwardParentReferences) {
  // Node 1's parent is node 2 (declared later) — still a valid tree.
  const Tree t = Tree::from_parents({kInvalidNode, 2, 0});
  EXPECT_EQ(t.depth(1), 2);
  EXPECT_EQ(t.depth(2), 1);
}

TEST(TreeTest, NodeRangeChecked) {
  const Tree t = small_tree();
  EXPECT_THROW(t.depth(99), CheckError);
  EXPECT_THROW(t.parent(-1), CheckError);
}

TEST(TreeBuilderTest, BuildsIncrementally) {
  TreeBuilder b;
  const NodeId a = b.add_child(0);
  const NodeId c = b.add_child(a);
  EXPECT_EQ(b.num_nodes(), 3);
  const Tree t = b.build();
  EXPECT_EQ(t.parent(c), a);
  EXPECT_EQ(t.depth(), 2);
}

TEST(TreeBuilderTest, RejectsUnknownParent) {
  TreeBuilder b;
  EXPECT_THROW(b.add_child(5), CheckError);
}

TEST(TreeTest, SummaryMentionsShape) {
  const std::string s = small_tree().summary();
  EXPECT_NE(s.find("n=6"), std::string::npos);
  EXPECT_NE(s.find("D=3"), std::string::npos);
}

}  // namespace
}  // namespace bfdn
