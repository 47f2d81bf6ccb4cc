#include "graph/generators.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "support/check.h"

namespace bfdn {

Tree make_path(std::int64_t n) {
  BFDN_REQUIRE(n >= 1, "path needs >= 1 node");
  TreeBuilder b;
  NodeId tail = 0;
  for (std::int64_t i = 1; i < n; ++i) tail = b.add_child(tail);
  return b.build();
}

Tree make_star(std::int64_t n) {
  BFDN_REQUIRE(n >= 1, "star needs >= 1 node");
  TreeBuilder b;
  for (std::int64_t i = 1; i < n; ++i) b.add_child(0);
  return b.build();
}

Tree make_complete_bary(std::int32_t branching, std::int32_t depth) {
  BFDN_REQUIRE(branching >= 1, "branching >= 1");
  BFDN_REQUIRE(depth >= 0, "depth >= 0");
  TreeBuilder b;
  std::vector<NodeId> level{0};
  for (std::int32_t d = 0; d < depth; ++d) {
    std::vector<NodeId> next;
    next.reserve(level.size() * static_cast<std::size_t>(branching));
    for (NodeId v : level) {
      for (std::int32_t c = 0; c < branching; ++c) {
        next.push_back(b.add_child(v));
      }
    }
    level = std::move(next);
  }
  return b.build();
}

Tree make_spider(std::int32_t legs, std::int32_t leg_length) {
  BFDN_REQUIRE(legs >= 0 && leg_length >= 0, "non-negative spider");
  TreeBuilder b;
  for (std::int32_t leg = 0; leg < legs; ++leg) {
    NodeId tail = 0;
    for (std::int32_t i = 0; i < leg_length; ++i) tail = b.add_child(tail);
  }
  return b.build();
}

Tree make_caterpillar(std::int32_t spine, std::int32_t legs_per_node) {
  BFDN_REQUIRE(spine >= 1 && legs_per_node >= 0, "bad caterpillar");
  TreeBuilder b;
  NodeId tail = 0;
  for (std::int32_t i = 0; i < legs_per_node; ++i) b.add_child(tail);
  for (std::int32_t s = 1; s < spine; ++s) {
    tail = b.add_child(tail);
    for (std::int32_t i = 0; i < legs_per_node; ++i) b.add_child(tail);
  }
  return b.build();
}

Tree make_comb(std::int32_t spine, std::int32_t tooth_length) {
  BFDN_REQUIRE(spine >= 1 && tooth_length >= 0, "bad comb");
  TreeBuilder b;
  NodeId tail = 0;
  auto add_tooth = [&](NodeId at) {
    NodeId t = at;
    for (std::int32_t i = 0; i < tooth_length; ++i) t = b.add_child(t);
  };
  add_tooth(tail);
  for (std::int32_t s = 1; s < spine; ++s) {
    tail = b.add_child(tail);
    add_tooth(tail);
  }
  return b.build();
}

Tree make_broom(std::int32_t handle, std::int32_t bristles) {
  BFDN_REQUIRE(handle >= 0 && bristles >= 0, "bad broom");
  TreeBuilder b;
  NodeId tail = 0;
  for (std::int32_t i = 0; i < handle; ++i) tail = b.add_child(tail);
  for (std::int32_t i = 0; i < bristles; ++i) b.add_child(tail);
  return b.build();
}

Tree make_random_recursive(std::int64_t n, Rng& rng) {
  BFDN_REQUIRE(n >= 1, "need >= 1 node");
  TreeBuilder b;
  for (std::int64_t i = 1; i < n; ++i) {
    b.add_child(static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(i))));
  }
  return b.build();
}

Tree make_random_bounded_degree(std::int64_t n, std::int32_t max_children,
                                Rng& rng) {
  BFDN_REQUIRE(n >= 1, "need >= 1 node");
  BFDN_REQUIRE(max_children >= 1, "max_children >= 1");
  TreeBuilder b;
  std::vector<NodeId> open{0};                 // nodes with a free slot
  std::vector<std::int32_t> used(1, 0);        // children used per node
  for (std::int64_t i = 1; i < n; ++i) {
    BFDN_CHECK(!open.empty(), "no attachment slot left");
    const std::size_t pick =
        static_cast<std::size_t>(rng.next_below(open.size()));
    const NodeId parent = open[pick];
    const NodeId child = b.add_child(parent);
    used.push_back(0);
    if (++used[static_cast<std::size_t>(parent)] >= max_children) {
      open[pick] = open.back();
      open.pop_back();
    }
    open.push_back(child);
  }
  return b.build();
}

Tree make_tree_with_depth(std::int64_t n, std::int32_t target_depth,
                          Rng& rng) {
  BFDN_REQUIRE(target_depth >= 0, "depth >= 0");
  if (target_depth == 0) {
    BFDN_REQUIRE(n == 1, "depth 0 forces n == 1");
    return make_path(1);
  }
  BFDN_REQUIRE(n >= target_depth + 1, "need n >= D + 1");
  TreeBuilder b;
  // Spine realizing the exact depth. Remember depth of each node so we
  // can attach the rest strictly above the bottom level.
  std::vector<std::int32_t> depth_of{0};
  NodeId tail = 0;
  for (std::int32_t d = 1; d <= target_depth; ++d) {
    tail = b.add_child(tail);
    depth_of.push_back(d);
  }
  std::vector<NodeId> eligible;  // nodes at depth < target_depth
  for (NodeId v = 0; v < target_depth; ++v) eligible.push_back(v);
  for (std::int64_t i = target_depth + 1; i < n; ++i) {
    const NodeId parent = rng.pick(eligible);
    const NodeId child = b.add_child(parent);
    const std::int32_t d = depth_of[static_cast<std::size_t>(parent)] + 1;
    depth_of.push_back(d);
    if (d < target_depth) eligible.push_back(child);
  }
  return b.build();
}

Tree make_cte_hard_tree(std::int32_t k, std::int32_t phases, Rng& rng) {
  BFDN_REQUIRE(k >= 2 && phases >= 1, "need k >= 2, phases >= 1");
  const auto gadget_depth = static_cast<std::int32_t>(
      std::ceil(std::log2(static_cast<double>(k))));
  TreeBuilder b;
  NodeId hub = 0;
  for (std::int32_t phase = 0; phase < phases; ++phase) {
    // Complete binary gadget below the hub.
    std::vector<NodeId> level{hub};
    for (std::int32_t d = 0; d < gadget_depth; ++d) {
      std::vector<NodeId> next;
      for (NodeId v : level) {
        next.push_back(b.add_child(v));
        next.push_back(b.add_child(v));
      }
      level = std::move(next);
    }
    // One random leaf continues into the next phase.
    hub = b.add_child(rng.pick(level));
  }
  return b.build();
}

Tree make_random_leafy(std::int64_t n, std::int32_t max_children, Rng& rng) {
  BFDN_REQUIRE(n >= 1, "need >= 1 node");
  BFDN_REQUIRE(max_children >= 1, "max_children >= 1");
  TreeBuilder b;
  std::vector<NodeId> leaves{0};
  while (b.num_nodes() < n) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.next_below(leaves.size()));
    const NodeId parent = leaves[pick];
    leaves[pick] = leaves.back();
    leaves.pop_back();
    const std::int64_t budget = n - b.num_nodes();
    const std::int64_t want =
        rng.next_int(1, std::min<std::int64_t>(max_children, budget));
    for (std::int64_t c = 0; c < want; ++c) {
      leaves.push_back(b.add_child(parent));
    }
  }
  return b.build();
}

Tree make_remy_binary(std::int32_t internal, Rng& rng) {
  BFDN_REQUIRE(internal >= 0, "internal >= 0");
  // Rémy's algorithm over explicit parent/children arrays (ids are
  // remapped at the end because the root moves during splicing).
  std::vector<NodeId> parent{kInvalidNode};
  std::vector<std::array<NodeId, 2>> kids{{kInvalidNode, kInvalidNode}};
  auto add_node = [&]() {
    parent.push_back(kInvalidNode);
    kids.push_back({kInvalidNode, kInvalidNode});
    return static_cast<NodeId>(parent.size() - 1);
  };
  for (std::int32_t step = 0; step < internal; ++step) {
    const auto x = static_cast<NodeId>(rng.next_below(parent.size()));
    const NodeId y = add_node();
    const NodeId leaf = add_node();
    const NodeId up = parent[static_cast<std::size_t>(x)];
    parent[static_cast<std::size_t>(y)] = up;
    if (up != kInvalidNode) {
      auto& slots = kids[static_cast<std::size_t>(up)];
      if (slots[0] == x) {
        slots[0] = y;
      } else {
        BFDN_CHECK(slots[1] == x, "splice: child slot not found");
        slots[1] = y;
      }
    }
    const bool new_leaf_left = rng.next_bool();
    kids[static_cast<std::size_t>(y)] =
        new_leaf_left ? std::array<NodeId, 2>{leaf, x}
                      : std::array<NodeId, 2>{x, leaf};
    parent[static_cast<std::size_t>(x)] = y;
    parent[static_cast<std::size_t>(leaf)] = y;
  }
  // Remap so the (possibly moved) root gets id 0, children follow in
  // BFS order.
  NodeId root = kInvalidNode;
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] == kInvalidNode) {
      BFDN_CHECK(root == kInvalidNode, "two roots after splicing");
      root = static_cast<NodeId>(v);
    }
  }
  std::vector<NodeId> remap(parent.size(), kInvalidNode);
  std::vector<NodeId> order{root};
  remap[static_cast<std::size_t>(root)] = 0;
  std::vector<NodeId> new_parents{kInvalidNode};
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (const NodeId c : kids[static_cast<std::size_t>(v)]) {
      if (c == kInvalidNode) continue;
      remap[static_cast<std::size_t>(c)] =
          static_cast<NodeId>(order.size());
      new_parents.push_back(remap[static_cast<std::size_t>(v)]);
      order.push_back(c);
    }
  }
  return Tree::from_parents(std::move(new_parents));
}

Tree make_double_broom(std::int32_t top_bristles, std::int32_t handle,
                       std::int32_t bottom_bristles) {
  BFDN_REQUIRE(top_bristles >= 0 && handle >= 0 && bottom_bristles >= 0,
               "non-negative double broom");
  TreeBuilder b;
  for (std::int32_t i = 0; i < top_bristles; ++i) b.add_child(0);
  NodeId tail = 0;
  for (std::int32_t i = 0; i < handle; ++i) tail = b.add_child(tail);
  for (std::int32_t i = 0; i < bottom_bristles; ++i) b.add_child(tail);
  return b.build();
}

Tree make_lopsided(std::int32_t depth) {
  BFDN_REQUIRE(depth >= 0, "depth >= 0");
  TreeBuilder b;
  NodeId spine = 0;
  for (std::int32_t level = 0; level < depth; ++level) {
    // Bushy decoration: complete binary subtree of logarithmic depth,
    // clipped so it never exceeds the total depth.
    const auto remaining = depth - level;
    auto bush_depth = static_cast<std::int32_t>(
        std::floor(std::log2(static_cast<double>(remaining) + 1.0)));
    bush_depth = std::min(bush_depth, remaining);
    if (bush_depth > 0) {
      std::vector<NodeId> frontier{b.add_child(spine)};
      for (std::int32_t d = 1; d < bush_depth; ++d) {
        std::vector<NodeId> next;
        for (const NodeId v : frontier) {
          next.push_back(b.add_child(v));
          next.push_back(b.add_child(v));
        }
        frontier = std::move(next);
      }
    }
    spine = b.add_child(spine);
  }
  return b.build();
}

std::vector<NamedTree> make_tree_zoo(std::int64_t scale,
                                     std::uint64_t seed) {
  BFDN_REQUIRE(scale >= 8, "zoo needs scale >= 8");
  Rng rng(seed);
  std::vector<NamedTree> zoo;
  zoo.push_back({"path", make_path(scale)});
  zoo.push_back({"star", make_star(scale)});
  {
    // Binary tree with about `scale` nodes.
    const auto d = static_cast<std::int32_t>(
        std::floor(std::log2(static_cast<double>(scale + 1))) - 1);
    zoo.push_back({"binary", make_complete_bary(2, std::max(d, 1))});
  }
  {
    const auto legs = static_cast<std::int32_t>(
        std::max<std::int64_t>(2, std::llround(std::sqrt(
                                      static_cast<double>(scale)))));
    const std::int32_t leg_len =
        static_cast<std::int32_t>(std::max<std::int64_t>(
            1, (scale - 1) / legs));
    zoo.push_back({"spider", make_spider(legs, leg_len)});
    zoo.push_back({"comb", make_comb(legs, leg_len)});
  }
  zoo.push_back({"caterpillar",
                 make_caterpillar(
                     static_cast<std::int32_t>(std::max<std::int64_t>(
                         1, scale / 4)),
                     3)});
  zoo.push_back({"broom",
                 make_broom(static_cast<std::int32_t>(scale / 2),
                            static_cast<std::int32_t>(scale -
                                                      scale / 2 - 1))});
  {
    Rng child = rng.split();
    zoo.push_back({"random_recursive",
                   make_random_recursive(scale, child)});
  }
  {
    Rng child = rng.split();
    zoo.push_back({"random_ternary",
                   make_random_bounded_degree(scale, 3, child)});
  }
  {
    Rng child = rng.split();
    zoo.push_back({"random_leafy", make_random_leafy(scale, 5, child)});
  }
  {
    Rng child = rng.split();
    const auto d = static_cast<std::int32_t>(
        std::max<std::int64_t>(2, scale / 8));
    zoo.push_back(
        {"fixed_depth", make_tree_with_depth(scale, d, child)});
  }
  {
    Rng child = rng.split();
    zoo.push_back({"cte_hard", make_cte_hard_tree(
                                   8,
                                   static_cast<std::int32_t>(
                                       std::max<std::int64_t>(
                                           1, scale / 32)),
                                   child)});
  }
  {
    Rng child = rng.split();
    zoo.push_back({"remy_binary",
                   make_remy_binary(
                       static_cast<std::int32_t>(
                           std::max<std::int64_t>(1, scale / 2)),
                       child)});
  }
  {
    const auto third = static_cast<std::int32_t>(
        std::max<std::int64_t>(1, scale / 3));
    zoo.push_back({"double_broom",
                   make_double_broom(third, third, third)});
  }
  {
    // Lopsided trees grow ~2 nodes per level plus bushes; pick a depth
    // that lands near `scale` nodes.
    const auto d = static_cast<std::int32_t>(
        std::max<std::int64_t>(2, scale / 5));
    zoo.push_back({"lopsided", make_lopsided(d)});
  }
  return zoo;
}

Tree make_family_tree(const std::string& family, std::int64_t nodes,
                      std::int32_t depth, std::int32_t arms,
                      std::uint64_t seed) {
  Rng rng(seed);
  if (family == "path") return make_path(nodes);
  if (family == "star") return make_star(nodes);
  if (family == "binary") return make_complete_bary(2, depth);
  if (family == "spider") {
    return make_spider(arms, static_cast<std::int32_t>(
                                 std::max<std::int64_t>(1, nodes / arms)));
  }
  if (family == "caterpillar") {
    return make_caterpillar(
        static_cast<std::int32_t>(
            std::max<std::int64_t>(1, nodes / (arms + 1))),
        arms);
  }
  if (family == "comb") return make_comb(arms, depth);
  if (family == "broom") {
    return make_broom(depth,
                      static_cast<std::int32_t>(std::max<std::int64_t>(
                          1, nodes - depth - 1)));
  }
  if (family == "cte-hard") return make_cte_hard_tree(arms, depth, rng);
  if (family == "fixed-depth") return make_tree_with_depth(nodes, depth, rng);
  if (family == "random") return make_random_leafy(nodes, 5, rng);
  BFDN_REQUIRE(false, "unknown --family " + family);
  return make_path(1);
}

const char* family_tree_refusal(std::string_view family, std::int64_t nodes,
                                std::int32_t depth, std::int32_t arms) {
  if (family == "fixed-depth") {
    if (depth == 0 && nodes != 1) {
      return "fixed-depth with depth 0 needs nodes == 1";
    }
    if (nodes < std::int64_t{depth} + 1) {
      return "fixed-depth needs nodes >= depth + 1";
    }
  }
  if (family == "cte-hard") {
    if (arms < 2) return "cte-hard needs arms >= 2";
    if (depth < 1) return "cte-hard needs depth >= 1";
  }
  return nullptr;
}

std::int64_t family_tree_nodes(std::string_view family, std::int64_t nodes,
                               std::int32_t depth, std::int32_t arms,
                               std::int64_t cap) {
  const std::int64_t over = cap + 1;
  // x * y for x >= 0 and y >= 1, or `over` if that is more.
  const auto product = [over](std::int64_t x, std::int64_t y) {
    return x > over / y ? over : std::min(over, x * y);
  };
  const std::int64_t d = depth;
  const std::int64_t a = arms;
  if (family == "binary") {
    return d >= 62 ? over : std::min(over, (std::int64_t{2} << d) - 1);
  }
  if (family == "spider") {
    return std::min(over, 1 + product(a, std::max<std::int64_t>(1, nodes / a)));
  }
  if (family == "caterpillar") {
    return product(std::max<std::int64_t>(1, nodes / (a + 1)), a + 1);
  }
  if (family == "comb") return product(a, d + 1);
  if (family == "broom") {
    return std::min(over, d + 1 + std::max<std::int64_t>(1, nodes - d - 1));
  }
  if (family == "cte-hard") {
    // Each of `depth` phases hangs a complete binary gadget of depth
    // ceil(log2 arms) below its hub, then the next hub.
    const auto gadget_depth =
        static_cast<int>(std::bit_width(static_cast<std::uint64_t>(a - 1)));
    return std::min(over,
                    1 + product(d, (std::int64_t{2} << gadget_depth) - 1));
  }
  return std::min(over, nodes);  // path, star, fixed-depth, random
}

}  // namespace bfdn
