#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "graph/generators.h"
#include "support/check.h"

namespace bfdn {
namespace {

TEST(GeneratorsTest, Path) {
  const Tree t = make_path(10);
  EXPECT_EQ(t.num_nodes(), 10);
  EXPECT_EQ(t.depth(), 9);
  EXPECT_EQ(t.max_degree(), 2);
}

TEST(GeneratorsTest, Star) {
  const Tree t = make_star(10);
  EXPECT_EQ(t.num_nodes(), 10);
  EXPECT_EQ(t.depth(), 1);
  EXPECT_EQ(t.max_degree(), 9);
}

TEST(GeneratorsTest, CompleteBinary) {
  const Tree t = make_complete_bary(2, 4);
  EXPECT_EQ(t.num_nodes(), 31);  // 2^5 - 1
  EXPECT_EQ(t.depth(), 4);
  EXPECT_EQ(t.max_degree(), 3);
}

TEST(GeneratorsTest, CompleteUnary) {
  const Tree t = make_complete_bary(1, 5);
  EXPECT_EQ(t.num_nodes(), 6);
  EXPECT_EQ(t.depth(), 5);
}

TEST(GeneratorsTest, Spider) {
  const Tree t = make_spider(4, 5);
  EXPECT_EQ(t.num_nodes(), 21);
  EXPECT_EQ(t.depth(), 5);
  EXPECT_EQ(t.max_degree(), 4);  // root has 4 legs
}

TEST(GeneratorsTest, Caterpillar) {
  const Tree t = make_caterpillar(5, 2);
  EXPECT_EQ(t.num_nodes(), 5 + 5 * 2);
  EXPECT_EQ(t.depth(), 5);  // last spine node at depth 4, its legs at 5
}

TEST(GeneratorsTest, Comb) {
  const Tree t = make_comb(4, 3);
  EXPECT_EQ(t.num_nodes(), 4 + 4 * 3);
  EXPECT_EQ(t.depth(), 3 + 3);  // deepest tooth hangs off spine end
}

TEST(GeneratorsTest, Broom) {
  const Tree t = make_broom(6, 8);
  EXPECT_EQ(t.num_nodes(), 15);
  EXPECT_EQ(t.depth(), 7);
  EXPECT_EQ(t.max_degree(), 9);  // bristle hub: 8 bristles + parent
}

TEST(GeneratorsTest, RandomRecursiveDeterministic) {
  Rng r1(5), r2(5);
  const Tree a = make_random_recursive(200, r1);
  const Tree b = make_random_recursive(200, r2);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.depth(), b.depth());
  for (NodeId v = 0; v < 200; ++v) EXPECT_EQ(a.parent(v), b.parent(v));
}

TEST(GeneratorsTest, RandomRecursiveShallow) {
  Rng rng(5);
  const Tree t = make_random_recursive(2000, rng);
  // Expected depth ~ e*ln(n) ~ 20; assert a loose upper band.
  EXPECT_LT(t.depth(), 60);
}

TEST(GeneratorsTest, BoundedDegreeRespectsCap) {
  Rng rng(6);
  const Tree t = make_random_bounded_degree(500, 3, rng);
  EXPECT_EQ(t.num_nodes(), 500);
  for (NodeId v = 0; v < 500; ++v) EXPECT_LE(t.num_children(v), 3);
}

TEST(GeneratorsTest, TreeWithDepthHitsExactDepth) {
  Rng rng(7);
  for (std::int32_t d : {1, 5, 20}) {
    const Tree t = make_tree_with_depth(100, d, rng);
    EXPECT_EQ(t.num_nodes(), 100);
    EXPECT_EQ(t.depth(), d);
  }
}

TEST(GeneratorsTest, TreeWithDepthRejectsImpossible) {
  Rng rng(7);
  EXPECT_THROW(make_tree_with_depth(3, 5, rng), CheckError);
  EXPECT_THROW(make_tree_with_depth(2, 0, rng), CheckError);
}

TEST(GeneratorsTest, TreeWithDepthSingleton) {
  Rng rng(7);
  const Tree t = make_tree_with_depth(1, 0, rng);
  EXPECT_EQ(t.num_nodes(), 1);
}

TEST(GeneratorsTest, CteHardTreeShape) {
  Rng rng(8);
  const Tree t = make_cte_hard_tree(8, 3, rng);
  // Each phase: complete binary depth 3 (14 new nodes) + 1 continuation.
  EXPECT_EQ(t.num_nodes(), 1 + 3 * 15);
  EXPECT_EQ(t.depth(), 3 * 4);
}

TEST(GeneratorsTest, RandomLeafyExactSize) {
  Rng rng(9);
  const Tree t = make_random_leafy(333, 5, rng);
  EXPECT_EQ(t.num_nodes(), 333);
  for (NodeId v = 0; v < 333; ++v) EXPECT_LE(t.num_children(v), 5);
}

TEST(GeneratorsTest, RemyBinaryIsFullBinary) {
  Rng rng(17);
  for (std::int32_t internal : {0, 1, 5, 50, 300}) {
    Rng child = rng.split();
    const Tree t = make_remy_binary(internal, child);
    EXPECT_EQ(t.num_nodes(), 2 * internal + 1);
    std::int64_t leaves = 0;
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      const auto c = t.num_children(v);
      EXPECT_TRUE(c == 0 || c == 2) << "node " << v << " has " << c;
      leaves += (c == 0);
    }
    EXPECT_EQ(leaves, internal + 1);
  }
}

TEST(GeneratorsTest, RemyBinaryDepthScalesLikeSqrt) {
  // Expected depth of a uniform binary tree is Theta(sqrt(n)); with
  // n = 2*2000+1 nodes assert a generous [sqrt/4, 8*sqrt] band.
  Rng rng(18);
  const std::int32_t internal = 2000;
  const Tree t = make_remy_binary(internal, rng);
  const double sqrt_n = std::sqrt(2.0 * internal);
  EXPECT_GT(t.depth(), sqrt_n / 4.0);
  EXPECT_LT(t.depth(), 8.0 * sqrt_n);
}

TEST(GeneratorsTest, RemyBinaryDeterministic) {
  Rng a(19), b(19);
  const Tree ta = make_remy_binary(100, a);
  const Tree tb = make_remy_binary(100, b);
  for (NodeId v = 0; v < ta.num_nodes(); ++v) {
    EXPECT_EQ(ta.parent(v), tb.parent(v));
  }
}

TEST(GeneratorsTest, DoubleBroomShape) {
  const Tree t = make_double_broom(5, 7, 9);
  EXPECT_EQ(t.num_nodes(), 1 + 5 + 7 + 9);
  EXPECT_EQ(t.depth(), 8);  // handle end at 7, its bristles at 8
  EXPECT_EQ(t.num_children(0), 6);  // 5 bristles + handle
}

TEST(GeneratorsTest, LopsidedHasExactDepthAndBushes) {
  const Tree t = make_lopsided(40);
  EXPECT_EQ(t.depth(), 40);
  // Strictly more nodes than a bare path: the bushes exist.
  EXPECT_GT(t.num_nodes(), 2 * 40);
}

TEST(GeneratorsTest, LopsidedDegenerate) {
  EXPECT_EQ(make_lopsided(0).num_nodes(), 1);
}

TEST(GeneratorsTest, ZooIsDiverseAndDeterministic) {
  const auto zoo = make_tree_zoo(256, 42);
  EXPECT_GE(zoo.size(), 10u);
  std::set<std::string> names;
  for (const auto& [name, tree] : zoo) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_GE(tree.num_nodes(), 2);
  }
  const auto zoo2 = make_tree_zoo(256, 42);
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    EXPECT_EQ(zoo[i].tree.num_nodes(), zoo2[i].tree.num_nodes());
    EXPECT_EQ(zoo[i].tree.depth(), zoo2[i].tree.depth());
  }
}

TEST(GeneratorsTest, FamilyRefusalAndSizeMatchTheBuilder) {
  // family_tree_refusal names exactly the parameters make_family_tree
  // throws on, and family_tree_nodes is the built tree's size.
  constexpr std::int64_t kCap = 1 << 20;
  std::int64_t built = 0;
  for (const char* family :
       {"random", "path", "star", "binary", "spider", "caterpillar", "comb",
        "broom", "cte-hard", "fixed-depth"}) {
    for (const std::int64_t nodes : {1, 2, 3, 5, 8, 40}) {
      for (const std::int32_t depth : {0, 1, 2, 5, 9}) {
        for (const std::int32_t arms : {1, 2, 3, 5, 8}) {
          SCOPED_TRACE(std::string(family) + " nodes=" +
                       std::to_string(nodes) + " depth=" +
                       std::to_string(depth) + " arms=" +
                       std::to_string(arms));
          if (family_tree_refusal(family, nodes, depth, arms) != nullptr) {
            EXPECT_THROW(make_family_tree(family, nodes, depth, arms, 1),
                         CheckError);
            continue;
          }
          const Tree tree = make_family_tree(family, nodes, depth, arms, 1);
          EXPECT_EQ(family_tree_nodes(family, nodes, depth, arms, kCap),
                    tree.num_nodes());
          ++built;
        }
      }
    }
  }
  EXPECT_GT(built, 1000);
}

TEST(GeneratorsTest, FamilyTreeNodesSaturatesPastTheCap) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(family_tree_nodes("binary", 1, 19, 1, 1000000), 1000001);
  EXPECT_EQ(family_tree_nodes("binary", 1, 18, 1, 1000000), 524287);
  EXPECT_EQ(family_tree_nodes("binary", 1, kMax, 1, 1000000), 1000001);
  EXPECT_EQ(family_tree_nodes("comb", 1, kMax, kMax, 1000000), 1000001);
  EXPECT_EQ(family_tree_nodes("cte-hard", 1, kMax, kMax, 1000000), 1000001);
  EXPECT_EQ(family_tree_nodes("caterpillar", 1, 0, kMax, 1000000), 1000001);
  EXPECT_EQ(family_tree_nodes("spider", 1, 0, kMax, 1000000), 1000001);
  EXPECT_EQ(family_tree_nodes("broom", 1, kMax, 1, 1000000), 1000001);
  EXPECT_EQ(family_tree_nodes("path",
                              std::numeric_limits<std::int64_t>::max(), 0, 1,
                              1000000),
            1000001);
}

}  // namespace
}  // namespace bfdn
