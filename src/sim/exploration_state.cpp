#include "sim/exploration_state.h"

#include <algorithm>
#include <numeric>

#include "support/rng.h"

namespace bfdn {

namespace {
const std::vector<NodeId> kNoOpenNodes;
}  // namespace

ExplorationState::ExplorationState(const Tree& tree, std::int32_t num_robots)
    : tree_(tree), num_robots_(num_robots) {
  BFDN_REQUIRE(num_robots >= 1, "need at least one robot");
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  robot_pos_.assign(static_cast<std::size_t>(num_robots), tree.root());
  robot_clock_.assign(static_cast<std::size_t>(num_robots), 0);
  explored_.assign(n, 0);
  reserved_.assign(n, 0);
  traversed_down_.assign(n, 0);
  traversed_up_.assign(n, 0);
  up_skip_.resize(n);
  std::iota(up_skip_.begin(), up_skip_.end(), NodeId{0});
  open_skip_ = up_skip_;

  // CSR dangling pool: one contiguous copy of every child list. A
  // node's slice starts pristine and is only consumed/recycled after
  // the node is explored, so commit_dangling never allocates.
  dangling_offset_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    dangling_offset_[v + 1] =
        dangling_offset_[v] + tree.num_children(static_cast<NodeId>(v));
  }
  dangling_pool_.assign(static_cast<std::size_t>(dangling_offset_[n]),
                        kInvalidNode);
  for (std::size_t v = 0; v < n; ++v) {
    const auto kids = tree.children(static_cast<NodeId>(v));
    std::copy(kids.begin(), kids.end(),
              dangling_pool_.begin() +
                  static_cast<std::ptrdiff_t>(dangling_offset_[v]));
  }
  dangling_count_.assign(n, 0);

  // Depth buckets pre-reserved to the per-depth node counts, so
  // mark_open is allocation-free for the lifetime of the state.
  open_buckets_.resize(static_cast<std::size_t>(tree.depth()) + 1);
  {
    std::vector<std::int64_t> at_depth(open_buckets_.size(), 0);
    for (NodeId v = 0; v < tree.num_nodes(); ++v) {
      ++at_depth[static_cast<std::size_t>(tree.depth(v))];
    }
    for (std::size_t d = 0; d < open_buckets_.size(); ++d) {
      open_buckets_[d].reserve(static_cast<std::size_t>(at_depth[d]));
    }
  }
  open_pos_.assign(n, -1);
  min_open_depth_ = static_cast<std::int32_t>(open_buckets_.size());

  // Exploration starts with the root explored and all root edges dangling.
  explored_[static_cast<std::size_t>(tree.root())] = 1;
  num_explored_ = 1;
  dangling_count_[static_cast<std::size_t>(tree.root())] =
      tree.num_children(tree.root());
  if (dangling_count_[static_cast<std::size_t>(tree.root())] > 0) {
    mark_open(tree.root());
  }
}

std::int64_t ExplorationState::robot_clock(std::int32_t robot) const {
  BFDN_REQUIRE(robot >= 0 && robot < num_robots_, "robot index");
  return std::max(clock_base_,
                  robot_clock_[static_cast<std::size_t>(robot)]);
}

void ExplorationState::set_robot_clock(std::int32_t robot, std::int64_t t) {
  BFDN_REQUIRE(robot >= 0 && robot < num_robots_, "robot index");
  robot_clock_[static_cast<std::size_t>(robot)] = t;
}

void ExplorationState::set_clock_base(std::int64_t t) { clock_base_ = t; }

std::int32_t ExplorationState::num_unexplored_child_edges(NodeId u) const {
  BFDN_REQUIRE(is_explored(u), "query on unexplored node");
  return dangling_count_[static_cast<std::size_t>(u)] +
         reserved_[static_cast<std::size_t>(u)];
}

std::int32_t ExplorationState::num_unreserved_dangling(NodeId u) const {
  BFDN_REQUIRE(is_explored(u), "query on unexplored node");
  return dangling_count_[static_cast<std::size_t>(u)];
}

NodeId ExplorationState::reserve_dangling(NodeId u) {
  auto& count = dangling_count_[static_cast<std::size_t>(u)];
  BFDN_REQUIRE(count > 0, "no unreserved dangling edge at node");
  const NodeId child =
      dangling_pool_[static_cast<std::size_t>(
          dangling_offset_[static_cast<std::size_t>(u)] + count - 1)];
  --count;
  ++reserved_[static_cast<std::size_t>(u)];
  return child;
}

void ExplorationState::release_dangling(NodeId u, NodeId child) {
  BFDN_CHECK(reserved_[static_cast<std::size_t>(u)] > 0,
             "release without reservation");
  --reserved_[static_cast<std::size_t>(u)];
  auto& count = dangling_count_[static_cast<std::size_t>(u)];
  dangling_pool_[static_cast<std::size_t>(
      dangling_offset_[static_cast<std::size_t>(u)] + count)] = child;
  ++count;
}

void ExplorationState::commit_dangling(NodeId u, NodeId child) {
  BFDN_CHECK(reserved_[static_cast<std::size_t>(u)] > 0,
             "commit without reservation");
  BFDN_CHECK(tree_.parent(child) == u, "edge does not hang off u");
  BFDN_CHECK(!is_explored(child), "child explored twice");
  --reserved_[static_cast<std::size_t>(u)];
  if (num_unexplored_child_edges(u) == 0) {
    mark_closed(u);
    if (u != tree_.root()) {
      open_skip_[static_cast<std::size_t>(u)] = tree_.parent(u);
    }
  }

  explored_[static_cast<std::size_t>(child)] = 1;
  ++num_explored_;
  // The child's pool slice is pristine (a node is committed exactly
  // once), so arming its dangling edges is a counter write.
  const std::int32_t kids = tree_.num_children(child);
  dangling_count_[static_cast<std::size_t>(child)] = kids;
  if (kids > 0) {
    mark_open(child);
  } else {
    open_skip_[static_cast<std::size_t>(child)] = u;  // a leaf: closed
  }
}

std::int32_t ExplorationState::min_open_depth() const {
  BFDN_REQUIRE(num_open_ > 0, "exploration is complete");
  return min_open_depth_;
}

const std::vector<NodeId>& ExplorationState::open_nodes_at_depth(
    std::int32_t depth) const {
  BFDN_REQUIRE(depth >= 0, "negative depth");
  if (static_cast<std::size_t>(depth) >= open_buckets_.size()) {
    return kNoOpenNodes;
  }
  return open_buckets_[static_cast<std::size_t>(depth)];
}

std::vector<NodeId> ExplorationState::open_nodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(num_open_));
  for (const auto& bucket : open_buckets_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

bool ExplorationState::record_traversal(NodeId child, bool downward) {
  auto& flag = downward ? traversed_down_[static_cast<std::size_t>(child)]
                        : traversed_up_[static_cast<std::size_t>(child)];
  if (flag) return false;
  flag = 1;
  ++edge_events_;
  if (!downward && child != tree_.root()) {
    up_skip_[static_cast<std::size_t>(child)] = tree_.parent(child);
  }
  return true;
}

NodeId ExplorationState::find_skip(std::vector<NodeId>& skip, NodeId v) {
  while (skip[static_cast<std::size_t>(v)] != v) {
    const NodeId next = skip[static_cast<std::size_t>(
        skip[static_cast<std::size_t>(v)])];
    skip[static_cast<std::size_t>(v)] = next;
    v = next;
  }
  return v;
}

void ExplorationState::record_climb(NodeId from, NodeId to) {
  BFDN_REQUIRE(tree_.is_ancestor_or_self(to, from),
               "record_climb target is not an ancestor");
  const std::int32_t stop = tree_.depth(to);
  // Every node find_skip lands on below `to` has its up-edge untraversed.
  for (NodeId v = find_skip(up_skip_, from); tree_.depth(v) > stop;
       v = find_skip(up_skip_, v)) {
    traversed_up_[static_cast<std::size_t>(v)] = 1;
    ++edge_events_;
    up_skip_[static_cast<std::size_t>(v)] = tree_.parent(v);
  }
}

NodeId ExplorationState::nearest_open_ancestor(NodeId v) const {
  BFDN_REQUIRE(is_explored(v) && v != tree_.root(),
               "return climb from the root or an unexplored node");
  return find_skip(open_skip_, tree_.parent(v));
}

std::uint64_t ExplorationState::state_hash() const {
  // splitmix64 as the mixing function: absorb each word by xoring it
  // into the running state and taking one generator step.
  std::uint64_t h = 0x42464446u;  // arbitrary non-zero start ("BFDF")
  const auto absorb = [&h](std::uint64_t word) {
    std::uint64_t mixed = h ^ word;
    h = splitmix64(mixed);
  };
  for (const NodeId pos : robot_pos_) {
    absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(pos)));
  }
  // Per-node observable flags, packed into one word per node so the
  // digest does not depend on how the flags are stored internally.
  const auto n = static_cast<std::size_t>(tree_.num_nodes());
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t word = explored_[v] != 0 ? 1u : 0u;
    word |= static_cast<std::uint64_t>(traversed_down_[v] != 0 ? 1u : 0u)
            << 1;
    word |= static_cast<std::uint64_t>(traversed_up_[v] != 0 ? 1u : 0u) << 2;
    word |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                dangling_count_[v] + reserved_[v]))
            << 3;
    absorb(word);
  }
  absorb(static_cast<std::uint64_t>(num_open_));
  absorb(static_cast<std::uint64_t>(edge_events_));
  absorb(static_cast<std::uint64_t>(num_explored_));
  return h;
}

void ExplorationState::mark_open(NodeId u) {
  const auto d = static_cast<std::size_t>(tree_.depth(u));
  auto& bucket = open_buckets_[d];
  open_pos_[static_cast<std::size_t>(u)] =
      static_cast<std::int32_t>(bucket.size());
  bucket.push_back(u);
  ++num_open_;
  min_open_depth_ =
      std::min(min_open_depth_, static_cast<std::int32_t>(d));
}

void ExplorationState::mark_closed(NodeId u) {
  const auto d = static_cast<std::size_t>(tree_.depth(u));
  const std::int32_t pos = open_pos_[static_cast<std::size_t>(u)];
  BFDN_CHECK(pos >= 0, "closing a node not open");
  auto& bucket = open_buckets_[d];
  const NodeId moved = bucket.back();
  bucket[static_cast<std::size_t>(pos)] = moved;
  open_pos_[static_cast<std::size_t>(moved)] = pos;
  bucket.pop_back();
  open_pos_[static_cast<std::size_t>(u)] = -1;
  --num_open_;
  if (num_open_ == 0) {
    min_open_depth_ = static_cast<std::int32_t>(open_buckets_.size());
  } else if (bucket.empty() &&
             static_cast<std::int32_t>(d) == min_open_depth_) {
    while (open_buckets_[static_cast<std::size_t>(min_open_depth_)]
               .empty()) {
      ++min_open_depth_;
    }
  }
}

bool ExplorationView::can_move(std::int32_t robot) const {
  BFDN_REQUIRE(robot >= 0 && robot < num_robots(), "robot index");
  return movable_[static_cast<std::size_t>(robot)] != 0;
}

std::int32_t ExplorationView::depth(NodeId v) const {
  BFDN_REQUIRE(state_.is_explored(v), "depth of unexplored node");
  return state_.tree().depth(v);
}

NodeId ExplorationView::parent(NodeId v) const {
  BFDN_REQUIRE(state_.is_explored(v), "parent of unexplored node");
  return state_.tree().parent(v);
}

std::vector<NodeId> ExplorationView::explored_children(NodeId v) const {
  BFDN_REQUIRE(state_.is_explored(v), "children of unexplored node");
  std::vector<NodeId> out;
  for (NodeId c : state_.tree().children(v)) {
    if (state_.is_explored(c)) out.push_back(c);
  }
  return out;
}

NodeId ExplorationView::child_toward(NodeId a, NodeId b) const {
  BFDN_REQUIRE(state_.is_explored(b), "step towards an unexplored node");
  return state_.tree().child_toward(a, b);
}

std::vector<NodeId> ExplorationView::path_from_root(NodeId v) const {
  BFDN_REQUIRE(state_.is_explored(v), "path to unexplored node");
  return state_.tree().path_from_root(v);
}

bool ExplorationView::is_ancestor_or_self(NodeId a, NodeId b) const {
  BFDN_REQUIRE(state_.is_explored(a) && state_.is_explored(b),
               "ancestor query on unexplored nodes");
  return state_.tree().is_ancestor_or_self(a, b);
}

NodeId ExplorationView::ancestor_at_depth(NodeId v,
                                          std::int32_t target_depth) const {
  BFDN_REQUIRE(state_.is_explored(v), "ancestor of unexplored node");
  BFDN_REQUIRE(target_depth >= 0 && target_depth <= depth(v),
               "target depth out of range");
  NodeId cur = v;
  while (state_.tree().depth(cur) > target_depth) {
    cur = state_.tree().parent(cur);
  }
  return cur;
}

}  // namespace bfdn
