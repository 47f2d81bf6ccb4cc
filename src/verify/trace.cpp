#include "verify/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "distributed/writeread.h"
#include "graph/graph.h"
#include "graphexp/graph_bfdn.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/strings.h"

namespace bfdn {
namespace {

constexpr char kMagic[8] = {'B', 'F', 'D', 'N', 'T', 'R', 'C', '2'};

// --- little-endian fixed-width primitives ----------------------------

void put_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

void put_u64(std::ostream& out, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  put_bytes(out, bytes, 8);
}

void put_u32(std::ostream& out, std::uint32_t v) {
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  put_bytes(out, bytes, 4);
}

void put_u8(std::ostream& out, std::uint8_t v) { put_bytes(out, &v, 1); }

void put_i64(std::ostream& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_i32(std::ostream& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::ostream& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void get_bytes(std::istream& in, void* data, std::size_t size) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  BFDN_CHECK(in.good(), "trace file truncated or unreadable");
}

std::uint64_t get_u64(std::istream& in) {
  unsigned char bytes[8];
  get_bytes(in, bytes, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[i];
  return v;
}

std::uint32_t get_u32(std::istream& in) {
  unsigned char bytes[4];
  get_bytes(in, bytes, 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | bytes[i];
  return v;
}

std::uint8_t get_u8(std::istream& in) {
  std::uint8_t v = 0;
  get_bytes(in, &v, 1);
  return v;
}

std::int64_t get_i64(std::istream& in) {
  return static_cast<std::int64_t>(get_u64(in));
}

std::int32_t get_i32(std::istream& in) {
  return static_cast<std::int32_t>(get_u32(in));
}

double get_f64(std::istream& in) {
  const std::uint64_t bits = get_u64(in);
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Digest of a per-round robot-position vector, for the drivers that do
/// not expose an ExplorationState (write-read, graph BFDN).
std::uint64_t positions_hash(const std::vector<NodeId>& positions) {
  std::uint64_t h = 0x42464450u;  // distinct start from state_hash
  for (const NodeId pos : positions) {
    std::uint64_t mixed =
        h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(pos));
    h = splitmix64(mixed);
  }
  return h;
}

/// RoundObserver that appends ExplorationState digests.
class HashingObserver : public RoundObserver {
 public:
  explicit HashingObserver(std::vector<std::uint64_t>& out) : out_(out) {}
  void on_round(std::int64_t /*round*/,
                const ExplorationState& state) override {
    out_.push_back(state.state_hash());
  }

 private:
  std::vector<std::uint64_t>& out_;
};

/// The tree as a port-numbered Graph (edges (parent(v), v)), for the
/// kGraphBfdn driver.
Graph tree_as_graph(const Tree& tree) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(tree.num_edges()));
  for (NodeId v = 1; v < tree.num_nodes(); ++v) {
    edges.emplace_back(tree.parent(v), v);
  }
  return Graph::from_edges(tree.num_nodes(), edges);
}

}  // namespace

TraceData run_traced(const Tree& tree, const AlgoSpec& algo,
                     const ScheduleSpec& schedule,
                     std::int64_t max_rounds, const AsyncSpec& async) {
  BFDN_REQUIRE(async.kind == AsyncKind::kNone ||
                   (algo.engine_based() &&
                    schedule.kind == ScheduleKind::kNone),
               "async specs apply to engine-based runs without break-down "
               "schedules");
  TraceData data;
  data.algo = algo;
  data.schedule = schedule;
  data.async = async;
  data.max_rounds = max_rounds;
  data.parents.reserve(static_cast<std::size_t>(tree.num_nodes()));
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    data.parents.push_back(v == tree.root() ? kInvalidNode : tree.parent(v));
  }

  if (algo.engine_based()) {
    const std::unique_ptr<Algorithm> algorithm = make_algorithm(algo, tree);
    const std::unique_ptr<FiniteSchedule> sched = schedule.make(algo.k);
    const std::unique_ptr<AsyncScheduler> async_sched = async.make(algo.k);
    HashingObserver observer(data.round_hashes);
    RunConfig config;
    config.num_robots = algo.k;
    // Slow schedulers stretch the makespan beyond the engine's default
    // limit; scale it deterministically so replay agrees.
    config.max_rounds =
        scaled_round_limit(tree, max_rounds, async.slowdown());
    config.schedule = sched.get();
    config.async = async_sched.get();
    config.observer = &observer;
    const RunResult result = run_exploration(tree, *algorithm, config);
    data.rounds = result.rounds;
    data.edge_events = result.edge_events;
    data.total_reanchors = result.total_reanchors;
    data.complete = result.complete;
    data.all_at_root = result.all_at_root;
    return data;
  }

  BFDN_REQUIRE(schedule.kind == ScheduleKind::kNone,
               "break-down schedules only apply to engine-based runs");
  std::vector<std::vector<NodeId>> positions;
  if (algo.kind == AlgoKind::kWriteRead) {
    const WriteReadResult result =
        run_write_read_bfdn(tree, algo.k, max_rounds, &positions);
    data.rounds = result.rounds;
    data.edge_events = result.max_robot_memory_bits;
    data.total_reanchors = result.total_reanchors;
    data.complete = result.complete;
    data.all_at_root = result.all_at_root;
  } else {
    const Graph graph = tree_as_graph(tree);
    const GraphExplorationResult result =
        run_graph_bfdn(graph, algo.k, max_rounds, &positions);
    data.rounds = result.rounds;
    data.edge_events = result.backtrack_moves;
    data.total_reanchors = result.total_reanchors;
    data.complete = result.complete;
    data.all_at_root = result.all_at_origin;
  }
  data.round_hashes.reserve(positions.size());
  for (const auto& round_positions : positions) {
    data.round_hashes.push_back(positions_hash(round_positions));
  }
  return data;
}

void write_trace(const TraceData& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  BFDN_REQUIRE(out.good(), "cannot open trace file for writing: " + path);

  put_bytes(out, kMagic, sizeof(kMagic));
  put_u32(out, kTraceFormatVersion);

  // Algorithm spec.
  put_u8(out, static_cast<std::uint8_t>(data.algo.kind));
  put_i32(out, data.algo.k);
  put_u8(out, static_cast<std::uint8_t>(data.algo.options.policy));
  put_u64(out, data.algo.options.seed);
  put_i32(out, data.algo.options.depth_cap);
  put_u8(out, data.algo.options.shortcut_reanchor ? 1 : 0);
  put_u8(out, data.algo.options.reference_loads ? 1 : 0);
  put_u8(out, data.algo.options.fault_load_leak ? 1 : 0);
  put_i32(out, data.algo.ell);

  // Schedule spec.
  put_u8(out, static_cast<std::uint8_t>(data.schedule.kind));
  put_i64(out, data.schedule.horizon);
  put_f64(out, data.schedule.p);
  put_u64(out, data.schedule.seed);
  put_i64(out, data.schedule.period);

  // Async (per-robot-clock) spec — new in version 2.
  put_u8(out, static_cast<std::uint8_t>(data.async.kind));
  put_u64(out, data.async.seed);
  put_i64(out, data.async.max_delay);
  put_i64(out, data.async.period);
  put_i32(out, data.async.num_slow);

  // Run config.
  put_i64(out, data.max_rounds);
  put_u8(out, data.check_invariants ? 1 : 0);

  // Ground-truth tree.
  put_i64(out, static_cast<std::int64_t>(data.parents.size()));
  for (const NodeId parent : data.parents) put_i32(out, parent);

  // Per-round state digests.
  put_i64(out, static_cast<std::int64_t>(data.round_hashes.size()));
  for (const std::uint64_t h : data.round_hashes) put_u64(out, h);

  // Summary footer.
  put_i64(out, data.rounds);
  put_i64(out, data.edge_events);
  put_i64(out, data.total_reanchors);
  put_u8(out, data.complete ? 1 : 0);
  put_u8(out, data.all_at_root ? 1 : 0);

  out.flush();
  BFDN_CHECK(out.good(), "trace write failed: " + path);
}

TraceData read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BFDN_REQUIRE(in.good(), "cannot open trace file: " + path);

  char magic[8];
  get_bytes(in, magic, sizeof(magic));
  BFDN_CHECK(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
             "not a BFDN trace file: " + path);
  const std::uint32_t version = get_u32(in);
  BFDN_CHECK(version == kTraceFormatVersion,
             str_format("unsupported trace version %u", version));

  TraceData data;
  const std::uint8_t kind = get_u8(in);
  BFDN_CHECK(kind <= static_cast<std::uint8_t>(AlgoKind::kGraphBfdn),
             "trace names an unknown algorithm kind");
  data.algo.kind = static_cast<AlgoKind>(kind);
  data.algo.k = get_i32(in);
  BFDN_CHECK(data.algo.k >= 1, "trace has a non-positive robot count");
  const std::uint8_t policy = get_u8(in);
  BFDN_CHECK(policy <= static_cast<std::uint8_t>(ReanchorPolicy::kMostLoaded),
             "trace names an unknown reanchor policy");
  data.algo.options.policy = static_cast<ReanchorPolicy>(policy);
  data.algo.options.seed = get_u64(in);
  data.algo.options.depth_cap = get_i32(in);
  data.algo.options.shortcut_reanchor = get_u8(in) != 0;
  data.algo.options.reference_loads = get_u8(in) != 0;
  data.algo.options.fault_load_leak = get_u8(in) != 0;
  data.algo.ell = get_i32(in);
  BFDN_CHECK(data.algo.ell >= 1, "trace has a non-positive ell");

  const std::uint8_t sched = get_u8(in);
  BFDN_CHECK(
      sched <= static_cast<std::uint8_t>(ScheduleKind::kRollingOutage),
      "trace names an unknown schedule kind");
  data.schedule.kind = static_cast<ScheduleKind>(sched);
  data.schedule.horizon = get_i64(in);
  data.schedule.p = get_f64(in);
  data.schedule.seed = get_u64(in);
  data.schedule.period = get_i64(in);

  const std::uint8_t async_kind = get_u8(in);
  BFDN_CHECK(async_kind <= static_cast<std::uint8_t>(AsyncKind::kRandom),
             "trace names an unknown async scheduler kind");
  data.async.kind = static_cast<AsyncKind>(async_kind);
  data.async.seed = get_u64(in);
  data.async.max_delay = get_i64(in);
  data.async.period = get_i64(in);
  data.async.num_slow = get_i32(in);
  BFDN_CHECK(data.async.max_delay >= 0 && data.async.period >= 1 &&
                 data.async.num_slow >= 0,
             "trace has an implausible async spec");

  data.max_rounds = get_i64(in);
  data.check_invariants = get_u8(in) != 0;

  const std::int64_t n = get_i64(in);
  BFDN_CHECK(n >= 1 && n <= (std::int64_t{1} << 31),
             "trace has an implausible node count");
  data.parents.reserve(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) data.parents.push_back(get_i32(in));

  const std::int64_t num_hashes = get_i64(in);
  BFDN_CHECK(num_hashes >= 0 && num_hashes <= (std::int64_t{1} << 40),
             "trace has an implausible round count");
  data.round_hashes.reserve(static_cast<std::size_t>(num_hashes));
  for (std::int64_t r = 0; r < num_hashes; ++r) {
    data.round_hashes.push_back(get_u64(in));
  }

  data.rounds = get_i64(in);
  data.edge_events = get_i64(in);
  data.total_reanchors = get_i64(in);
  data.complete = get_u8(in) != 0;
  data.all_at_root = get_u8(in) != 0;
  return data;
}

TraceData record_trace(const Tree& tree, const AlgoSpec& algo,
                       const std::string& path,
                       const ScheduleSpec& schedule,
                       std::int64_t max_rounds, const AsyncSpec& async) {
  TraceData data = run_traced(tree, algo, schedule, max_rounds, async);
  write_trace(data, path);
  return data;
}

ReplayReport replay_trace(const TraceData& recorded) {
  ReplayReport report;
  report.recorded = recorded;
  const Tree tree = recorded.rebuild_tree();
  report.replayed = run_traced(tree, recorded.algo, recorded.schedule,
                               recorded.max_rounds, recorded.async);

  const auto& want = recorded.round_hashes;
  const auto& got = report.replayed.round_hashes;
  const std::size_t common = std::min(want.size(), got.size());
  for (std::size_t r = 0; r < common; ++r) {
    if (want[r] != got[r]) {
      report.first_divergence = static_cast<std::int64_t>(r) + 1;
      report.detail = str_format(
          "state hash diverges at round %lld: recorded %016llx, replayed "
          "%016llx",
          static_cast<long long>(report.first_divergence),
          static_cast<unsigned long long>(want[r]),
          static_cast<unsigned long long>(got[r]));
      return report;
    }
  }
  if (want.size() != got.size()) {
    report.first_divergence = static_cast<std::int64_t>(common) + 1;
    report.detail = str_format(
        "round count diverges: recorded %zu rounds, replayed %zu",
        want.size(), got.size());
    return report;
  }
  if (recorded.rounds != report.replayed.rounds ||
      recorded.edge_events != report.replayed.edge_events ||
      recorded.total_reanchors != report.replayed.total_reanchors ||
      recorded.complete != report.replayed.complete ||
      recorded.all_at_root != report.replayed.all_at_root) {
    report.first_divergence = recorded.rounds;
    report.detail = "summary footer diverges despite identical hashes";
    return report;
  }
  report.ok = true;
  return report;
}

ReplayReport replay_trace(const std::string& path) {
  return replay_trace(read_trace(path));
}

}  // namespace bfdn
