#include "service/protocol.h"

#include <algorithm>
#include <numeric>

#include "graph/generators.h"
#include "store/segment.h"
#include "support/check.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"

namespace bfdn {
namespace {

constexpr const char* kFamilies[] = {
    "random", "path",  "star",     "binary",      "spider",
    "caterpillar", "comb", "broom", "cte-hard", "fixed-depth"};

bool known_family(const std::string& family) {
  for (const char* name : kFamilies) {
    if (family == name) return true;
  }
  return false;
}

const char* policy_name(ReanchorPolicy policy) {
  switch (policy) {
    case ReanchorPolicy::kLeastLoaded: return "least-loaded";
    case ReanchorPolicy::kRandom: return "random";
    case ReanchorPolicy::kFirstFit: return "first-fit";
    case ReanchorPolicy::kMostLoaded: return "most-loaded";
  }
  return "?";
}

bool parse_policy(const std::string& name, ReanchorPolicy& out) {
  if (name == "least-loaded") out = ReanchorPolicy::kLeastLoaded;
  else if (name == "random") out = ReanchorPolicy::kRandom;
  else if (name == "first-fit") out = ReanchorPolicy::kFirstFit;
  else if (name == "most-loaded") out = ReanchorPolicy::kMostLoaded;
  else return false;
  return true;
}

const char* schedule_name(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kNone: return "none";
    case ScheduleKind::kFull: return "full";
    case ScheduleKind::kRoundRobin: return "round-robin";
    case ScheduleKind::kRandom: return "random";
    case ScheduleKind::kBurst: return "burst";
    case ScheduleKind::kRollingOutage: return "rolling-outage";
  }
  return "?";
}

bool parse_schedule_kind(const std::string& name, ScheduleKind& out) {
  if (name == "none") out = ScheduleKind::kNone;
  else if (name == "full") out = ScheduleKind::kFull;
  else if (name == "round-robin") out = ScheduleKind::kRoundRobin;
  else if (name == "random") out = ScheduleKind::kRandom;
  else if (name == "burst") out = ScheduleKind::kBurst;
  else if (name == "rolling-outage") out = ScheduleKind::kRollingOutage;
  else return false;
  return true;
}

const char* async_name(AsyncKind kind) {
  switch (kind) {
    case AsyncKind::kNone: return "none";
    case AsyncKind::kRoundRobin: return "round-robin";
    case AsyncKind::kFixedRate: return "fixed-rate";
    case AsyncKind::kLaggard: return "laggard";
    case AsyncKind::kRandom: return "random";
  }
  return "?";
}

bool parse_async_kind(const std::string& name, AsyncKind& out) {
  if (name == "none") out = AsyncKind::kNone;
  else if (name == "round-robin") out = AsyncKind::kRoundRobin;
  else if (name == "fixed-rate") out = AsyncKind::kFixedRate;
  else if (name == "laggard") out = AsyncKind::kLaggard;
  else if (name == "random") out = AsyncKind::kRandom;
  else return false;
  return true;
}

}  // namespace

Tree TreeRecipe::build() const {
  return make_family_tree(family, nodes, depth, arms, seed);
}

std::string TreeRecipe::label() const {
  return str_format("%s(nodes=%lld,depth=%d,arms=%d,seed=%llu)",
                    family.c_str(), static_cast<long long>(nodes), depth,
                    arms, static_cast<unsigned long long>(seed));
}

std::string algo_wire_name(const AlgoSpec& algo) {
  switch (algo.kind) {
    case AlgoKind::kBfdn:
      return algo.options.shortcut_reanchor ? "bfdn-shortcut" : "bfdn";
    case AlgoKind::kBfdnEll: return "bfdn-ell";
    case AlgoKind::kBfsLevels: return "bfs-levels";
    case AlgoKind::kCte: return "cte";
    default: break;
  }
  BFDN_REQUIRE(false, "algo_wire_name: kind not servable");
  return "";
}

bool parse_request(const std::string& line, ServiceRequest& out,
                   std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  JsonValue doc;
  std::string json_error;
  if (!json_parse(line, doc, &json_error)) return fail(json_error);
  if (!doc.is_object()) return fail("request must be a JSON object");

  out = ServiceRequest{};
  out.id = doc.get_string("id", "");

  const std::string type = doc.get_string("type", "run");
  if (type == "stats") {
    out.type = RequestType::kStats;
    return true;
  }
  if (type == "compact") {
    out.type = RequestType::kCompact;
    return true;
  }
  if (type == "peer_stats") {
    out.type = RequestType::kPeerStats;
    return true;
  }
  if (type == "ship_segment") {
    out.type = RequestType::kShipSegment;
    try {
      out.ship_port =
          static_cast<std::int32_t>(doc.get_int("port", 0));
      out.ship_peer =
          static_cast<std::int32_t>(doc.get_int("peer", -1));
      // Router form: "from" names the shipping peer, "to" the receiver.
      out.ship_from =
          static_cast<std::int32_t>(doc.get_int("from", -1));
      if (doc.has("to")) {
        out.ship_peer = static_cast<std::int32_t>(doc.get_int("to", -1));
      }
    } catch (const CheckError& e) {
      return fail(e.what());
    }
    if (out.ship_port < 0 || out.ship_port > 65535) {
      return fail("ship_segment port out of range");
    }
    if (out.ship_port == 0 && out.ship_peer < 0) {
      return fail("ship_segment needs a target: port, peer, or to");
    }
    return true;
  }
  if (type == "segment_fill") {
    out.type = RequestType::kSegmentFill;
    try {
      out.fill_bytes = doc.get_int("bytes", 0);
    } catch (const CheckError& e) {
      return fail(e.what());
    }
    if (out.fill_bytes < static_cast<std::int64_t>(
                             store::kSegmentHeaderBytes) ||
        out.fill_bytes >
            static_cast<std::int64_t>(store::kMaxPayloadBytes)) {
      return fail("segment_fill bytes out of range");
    }
    return true;
  }
  if (type == "run") {
    out.type = RequestType::kRun;
  } else if (type == "campaign") {
    out.type = RequestType::kCampaign;
  } else if (type == "shard") {
    out.type = RequestType::kShard;
  } else {
    return fail("unknown request type: " + type);
  }

  try {
    out.recipe.family = doc.get_string("family", out.recipe.family);
    if (!known_family(out.recipe.family)) {
      return fail("unknown family: " + out.recipe.family);
    }
    out.recipe.nodes = doc.get_int("nodes", out.recipe.nodes);
    out.recipe.depth =
        static_cast<std::int32_t>(doc.get_int("depth", out.recipe.depth));
    out.recipe.arms =
        static_cast<std::int32_t>(doc.get_int("arms", out.recipe.arms));
    out.recipe.seed = doc.get_uint("seed", out.recipe.seed);
    if (out.recipe.nodes < 1) return fail("nodes must be >= 1");
    if (out.recipe.depth < 0) return fail("depth must be >= 0");
    if (out.recipe.arms < 1) return fail("arms must be >= 1");

    const std::string algo = doc.get_string("algo", "bfdn");
    if (algo == "bfdn" || algo == "bfdn-shortcut") {
      out.algo.kind = AlgoKind::kBfdn;
      out.algo.options.shortcut_reanchor = algo == "bfdn-shortcut";
      if (!parse_policy(doc.get_string("policy", "least-loaded"),
                        out.algo.options.policy)) {
        return fail("unknown policy: " + doc.get_string("policy", ""));
      }
      out.algo.options.seed =
          doc.get_uint("algo_seed", out.algo.options.seed);
      out.algo.options.depth_cap = static_cast<std::int32_t>(
          doc.get_int("depth_cap", out.algo.options.depth_cap));
    } else if (algo == "bfdn-ell" || algo == "ell2" || algo == "ell3") {
      out.algo.kind = AlgoKind::kBfdnEll;
      out.algo.ell = algo == "ell2"   ? 2
                     : algo == "ell3" ? 3
                                      : static_cast<std::int32_t>(
                                            doc.get_int("ell", 2));
      if (out.algo.ell < 1 || out.algo.ell > 8) {
        return fail("ell must be in [1, 8]");
      }
    } else if (algo == "cte") {
      out.algo.kind = AlgoKind::kCte;
    } else if (algo == "bfs-levels") {
      out.algo.kind = AlgoKind::kBfsLevels;
    } else {
      return fail("unknown or non-servable algo: " + algo);
    }
    out.algo.k = static_cast<std::int32_t>(doc.get_int("k", 1));
    if (out.algo.k < 1 || out.algo.k > 65536) {
      return fail("k must be in [1, 65536]");
    }

    if (!parse_schedule_kind(doc.get_string("schedule", "none"),
                             out.schedule.kind)) {
      return fail("unknown schedule: " + doc.get_string("schedule", ""));
    }
    if (out.schedule.kind != ScheduleKind::kNone) {
      out.schedule.horizon = doc.get_int("horizon", 0);
      if (out.schedule.horizon < 1) {
        return fail("schedule needs horizon >= 1");
      }
      out.schedule.p = doc.get_double("p", out.schedule.p);
      out.schedule.seed =
          doc.get_uint("schedule_seed", out.schedule.seed);
      out.schedule.period = doc.get_int("period", out.schedule.period);
      if (out.schedule.period < 1) return fail("period must be >= 1");
    }

    if (!parse_async_kind(doc.get_string("async", "none"),
                          out.async.kind)) {
      return fail("unknown async scheduler: " + doc.get_string("async", ""));
    }
    if (out.async.kind != AsyncKind::kNone) {
      if (out.schedule.kind != ScheduleKind::kNone) {
        return fail("async is mutually exclusive with schedule");
      }
      out.async.seed = doc.get_uint("async_seed", out.async.seed);
      out.async.max_delay = doc.get_int("async_delay", out.async.max_delay);
      if (out.async.max_delay < 0) return fail("async_delay must be >= 0");
      out.async.period = doc.get_int("async_period", out.async.period);
      if (out.async.period < 1) return fail("async_period must be >= 1");
      out.async.num_slow = static_cast<std::int32_t>(
          doc.get_int("async_slow", out.async.num_slow));
      if (out.async.num_slow < 1) return fail("async_slow must be >= 1");
    }

    out.max_rounds = doc.get_int("max_rounds", 0);
    out.fast_forward = doc.get_bool("fast_forward", true);
    out.check_invariants = doc.get_bool("check_invariants", false);

    if (out.type == RequestType::kCampaign) {
      if (doc.has("ks")) {
        const JsonValue& ks = doc.at("ks");
        if (!ks.is_array()) return fail("ks must be an array");
        for (std::size_t i = 0; i < ks.size(); ++i) {
          const std::int64_t k = ks.at(i).as_int();
          if (k < 1 || k > 65536) return fail("k must be in [1, 65536]");
          out.campaign_ks.push_back(static_cast<std::int32_t>(k));
        }
      }
      if (doc.has("algo_seeds")) {
        const JsonValue& seeds = doc.at("algo_seeds");
        if (!seeds.is_array()) return fail("algo_seeds must be an array");
        for (std::size_t i = 0; i < seeds.size(); ++i) {
          out.campaign_seeds.push_back(seeds.at(i).as_uint());
        }
      }
      const std::size_t members =
          std::max<std::size_t>(1, out.campaign_ks.size()) *
          std::max<std::size_t>(1, out.campaign_seeds.size());
      if (members > kMaxCampaignMembers) {
        return fail(str_format("campaign expands to %zu members (max %zu)",
                               members, kMaxCampaignMembers));
      }
    }
  } catch (const CheckError& e) {
    return fail(e.what());  // wrong-typed field accessors throw
  }
  return true;
}

std::string serialize_request(const ServiceRequest& request) {
  JsonWriter w;
  w.begin_object();
  if (!request.id.empty()) w.kv("id", request.id);
  if (request.type == RequestType::kStats ||
      request.type == RequestType::kCompact ||
      request.type == RequestType::kPeerStats) {
    w.kv("type", request.type == RequestType::kStats     ? "stats"
                 : request.type == RequestType::kCompact ? "compact"
                                                         : "peer_stats");
    w.end_object();
    return w.str();
  }
  if (request.type == RequestType::kShipSegment) {
    w.kv("type", "ship_segment");
    if (request.ship_port != 0) w.kv("port", request.ship_port);
    if (request.ship_from >= 0) {
      w.kv("from", request.ship_from);
      if (request.ship_peer >= 0) w.kv("to", request.ship_peer);
    } else if (request.ship_peer >= 0) {
      w.kv("peer", request.ship_peer);
    }
    w.end_object();
    return w.str();
  }
  if (request.type == RequestType::kSegmentFill) {
    w.kv("type", "segment_fill");
    w.kv("bytes", request.fill_bytes);
    w.end_object();
    return w.str();
  }
  w.kv("type", request.type == RequestType::kCampaign ? "campaign"
               : request.type == RequestType::kShard  ? "shard"
                                                      : "run");
  w.kv("family", request.recipe.family);
  w.kv("nodes", request.recipe.nodes);
  w.kv("depth", request.recipe.depth);
  w.kv("arms", request.recipe.arms);
  w.kv("seed", request.recipe.seed);
  w.kv("algo", algo_wire_name(request.algo));
  w.kv("k", request.algo.k);
  if (request.algo.kind == AlgoKind::kBfdn) {
    w.kv("policy", policy_name(request.algo.options.policy));
    w.kv("algo_seed", request.algo.options.seed);
    w.kv("depth_cap", request.algo.options.depth_cap);
  } else if (request.algo.kind == AlgoKind::kBfdnEll) {
    w.kv("ell", request.algo.ell);
  }
  w.kv("schedule", schedule_name(request.schedule.kind));
  if (request.schedule.kind != ScheduleKind::kNone) {
    w.kv("horizon", request.schedule.horizon);
    w.kv("p", request.schedule.p);
    w.kv("schedule_seed", request.schedule.seed);
    w.kv("period", request.schedule.period);
  }
  if (request.async.kind != AsyncKind::kNone) {
    w.kv("async", async_name(request.async.kind));
    w.kv("async_seed", request.async.seed);
    w.kv("async_delay", request.async.max_delay);
    w.kv("async_period", request.async.period);
    w.kv("async_slow", request.async.num_slow);
  }
  if (request.max_rounds != 0) w.kv("max_rounds", request.max_rounds);
  if (!request.fast_forward) w.kv("fast_forward", false);
  if (request.check_invariants) w.kv("check_invariants", true);
  if (request.type == RequestType::kCampaign) {
    if (!request.campaign_ks.empty()) {
      w.key("ks").begin_array();
      for (const std::int32_t k : request.campaign_ks) w.value(k);
      w.end_array();
    }
    if (!request.campaign_seeds.empty()) {
      w.key("algo_seeds").begin_array();
      for (const std::uint64_t seed : request.campaign_seeds) {
        w.value(seed);
      }
      w.end_array();
    }
  }
  w.end_object();
  return w.str();
}

std::vector<ServiceRequest> expand_campaign(const ServiceRequest& request) {
  BFDN_REQUIRE(request.type == RequestType::kCampaign,
               "expand_campaign: campaign requests only");
  const std::vector<std::int32_t> ks =
      request.campaign_ks.empty() ? std::vector<std::int32_t>{request.algo.k}
                                  : request.campaign_ks;
  const std::vector<std::uint64_t> seeds =
      request.campaign_seeds.empty()
          ? std::vector<std::uint64_t>{request.algo.options.seed}
          : request.campaign_seeds;
  BFDN_REQUIRE(ks.size() * seeds.size() <= kMaxCampaignMembers,
               "campaign expands past kMaxCampaignMembers");
  std::vector<ServiceRequest> members;
  members.reserve(ks.size() * seeds.size());
  for (const std::int32_t k : ks) {
    for (const std::uint64_t seed : seeds) {
      ServiceRequest member = request;
      member.type = RequestType::kRun;
      member.campaign_ks.clear();
      member.campaign_seeds.clear();
      member.algo.k = k;
      member.algo.options.seed = seed;
      members.push_back(std::move(member));
    }
  }
  return members;
}

bool batchable_request(const ServiceRequest& request) {
  return request.type == RequestType::kRun &&
         request.schedule.kind == ScheduleKind::kNone &&
         request.async.kind == AsyncKind::kNone;
}

std::string batch_coalesce_key(const ServiceRequest& request) {
  // The algorithm seed is only ever consumed by BfdnAlgorithm under the
  // random reanchor policy (spec.cpp passes it to no other kind); every
  // other servable run is seed-blind, so a seed sweep over one of them
  // describes a single run. The key's promise is differential-tested by
  // OracleCheck::kBatchEquivalence.
  if (request.algo.kind == AlgoKind::kBfdn &&
      request.algo.options.policy == ReanchorPolicy::kRandom) {
    return "";
  }
  ServiceRequest blind = request;
  blind.algo.options.seed = 0;
  return "batch:" + canonical_request(blind);
}

std::string canonical_request(const ServiceRequest& request) {
  // kShard carries the same fields as kRun and asks "where would this
  // run live?", so it canonicalizes — and therefore fingerprints —
  // exactly like the run it describes.
  BFDN_REQUIRE(request.type == RequestType::kRun ||
                   request.type == RequestType::kShard,
               "canonical_request: run/shard requests only");
  // The request id is transport-level and deliberately excluded; two
  // clients asking for the same run share one cache entry. AlgoSpec /
  // ScheduleSpec render through the same label()s the verification
  // harness writes into trace files.
  return str_format(
      "recipe=%s algo=%s policy=%s algo_seed=%llu depth_cap=%d "
      "sched=%s async=%s max_rounds=%lld ff=%d check=%d",
      request.recipe.label().c_str(), request.algo.label().c_str(),
      policy_name(request.algo.options.policy),
      static_cast<unsigned long long>(request.algo.options.seed),
      request.algo.options.depth_cap, request.schedule.label().c_str(),
      request.async.label().c_str(),
      static_cast<long long>(request.max_rounds),
      request.fast_forward ? 1 : 0, request.check_invariants ? 1 : 0);
}

std::uint64_t request_fingerprint(const ServiceRequest& request) {
  const std::string canonical = canonical_request(request);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // splitmix64 finalizer: FNV alone mixes low bits poorly.
  return splitmix64(h);
}

std::string execute_run(const ServiceRequest& request, const Tree& tree) {
  const std::unique_ptr<Algorithm> algorithm =
      make_algorithm(request.algo, tree);
  RunConfig config;
  config.num_robots = request.algo.k;
  config.max_rounds = request.max_rounds;
  config.check_invariants = request.check_invariants;
  config.fast_forward = request.fast_forward;
  const std::unique_ptr<FiniteSchedule> schedule =
      request.schedule.make(request.algo.k);
  config.schedule = schedule.get();
  const std::unique_ptr<AsyncScheduler> async =
      request.async.make(request.algo.k);
  config.async = async.get();
  // Slow async schedulers stretch the makespan by their worst-case
  // activation gap; scale the default round budget accordingly (same
  // rule as verify/trace.cpp) so unconfigured requests still finish.
  if (config.max_rounds == 0 && request.async.slowdown() > 1) {
    config.max_rounds = default_round_limit(tree) * request.async.slowdown();
  }
  const RunResult result = run_exploration(tree, *algorithm, config);
  return serialize_run_result(request, tree, result);
}

std::string serialize_run_result(const ServiceRequest& request,
                                 const Tree& tree, const RunResult& result) {
  const std::int64_t total_moves =
      std::accumulate(result.robot_moves.begin(), result.robot_moves.end(),
                      std::int64_t{0});
  JsonWriter w;
  w.begin_object();
  w.kv("algo", request.algo.label());
  w.kv("n", tree.num_nodes());
  w.kv("tree_depth", tree.depth());
  w.kv("max_degree", tree.max_degree());
  w.kv("rounds", result.rounds);
  w.kv("complete", result.complete);
  w.kv("all_at_root", result.all_at_root);
  w.kv("hit_round_limit", result.hit_round_limit);
  w.kv("edge_events", result.edge_events);
  w.kv("rounds_with_idle", result.rounds_with_idle);
  w.kv("idle_robot_rounds", result.idle_robot_rounds);
  w.kv("total_moves", total_moves);
  w.kv("total_activations", result.total_activations);
  w.kv("total_reanchors", result.total_reanchors);
  w.kv("total_reanchor_switches", result.total_reanchor_switches);
  w.kv("final_state_hash",
       str_format("%016llx",
                  static_cast<unsigned long long>(result.final_state_hash)));
  w.end_object();
  return w.str();
}

ResponseStatus response_status(std::string_view response) {
  static constexpr std::string_view kNeedle = "\"status\":\"";
  const std::size_t pos = response.find(kNeedle);
  if (pos == std::string_view::npos) return ResponseStatus::kError;
  const std::string_view value = response.substr(pos + kNeedle.size());
  if (value.starts_with("ok\"")) return ResponseStatus::kOk;
  if (value.starts_with("retry\"")) return ResponseStatus::kRetry;
  return ResponseStatus::kError;
}

std::string ok_response(const std::string& id, bool cached,
                        std::uint64_t key, const std::string& result_json) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "ok");
  w.kv("cached", cached);
  w.kv("key", str_format("%016llx", static_cast<unsigned long long>(key)));
  w.key("result").raw(result_json);
  w.end_object();
  return w.str();
}

std::string retry_response(const std::string& id,
                           std::int32_t retry_after_ms,
                           std::int64_t queue_depth) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "retry");
  w.kv("retry_after_ms", retry_after_ms);
  w.kv("queue_depth", queue_depth);
  w.end_object();
  return w.str();
}

std::string error_response(const std::string& id,
                           const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "error");
  w.kv("error", message);
  w.end_object();
  return w.str();
}

std::string campaign_response(
    const std::string& id,
    const std::vector<CampaignMemberResponse>& members) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "ok");
  w.kv("members_total", static_cast<std::int64_t>(members.size()));
  w.key("members").begin_array();
  for (const CampaignMemberResponse& member : members) {
    w.begin_object();
    w.kv("cached", member.cached);
    w.kv("key", str_format("%016llx",
                           static_cast<unsigned long long>(member.key)));
    w.key("result").raw(member.result_json);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string stats_response(const std::string& id,
                           const std::string& stats_json) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "ok");
  w.key("stats").raw(stats_json);
  w.end_object();
  return w.str();
}

std::string compact_response(const std::string& id,
                             const CompactSummary& summary) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "ok");
  w.key("compact").begin_object();
  w.kv("segments_before", summary.segments_before);
  w.kv("segments_after", summary.segments_after);
  w.kv("bytes_before", summary.bytes_before);
  w.kv("bytes_after", summary.bytes_after);
  w.kv("kept", summary.kept);
  w.kv("dropped", summary.dropped);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string shard_response(const std::string& id, std::uint64_t key,
                           const std::vector<std::int32_t>& owners) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "ok");
  w.kv("key", str_format("%016llx", static_cast<unsigned long long>(key)));
  w.key("owners").begin_array();
  for (const std::int32_t owner : owners) w.value(owner);
  w.end_array();
  w.end_object();
  return w.str();
}

namespace {

void write_fill_block(JsonWriter& w, const FillSummary& fill) {
  w.begin_object();
  w.kv("records", fill.records);
  w.kv("imported", fill.imported);
  w.kv("duplicates", fill.duplicates);
  w.kv("corrupted_skipped", fill.corrupted_skipped);
  w.kv("torn_truncated", fill.torn_truncated);
  w.kv("bytes", fill.bytes);
  w.end_object();
}

}  // namespace

std::string fill_response(const std::string& id, const FillSummary& fill) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "ok");
  w.key("fill");
  write_fill_block(w, fill);
  w.end_object();
  return w.str();
}

bool parse_fill_response(const std::string& line, FillSummary* out,
                         std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  JsonValue doc;
  std::string json_error;
  if (!json_parse(line, doc, &json_error)) return fail(json_error);
  if (!doc.is_object()) return fail("fill response must be an object");
  try {
    const std::string status = doc.get_string("status", "");
    if (status != "ok") {
      return fail("peer fill failed: " +
                  doc.get_string("error", "status " + status));
    }
    if (!doc.has("fill")) return fail("fill response missing fill block");
    const JsonValue& fill = doc.at("fill");
    out->records = fill.get_int("records", 0);
    out->imported = fill.get_int("imported", 0);
    out->duplicates = fill.get_int("duplicates", 0);
    out->corrupted_skipped = fill.get_int("corrupted_skipped", 0);
    out->torn_truncated = fill.get_int("torn_truncated", 0);
    out->bytes = fill.get_int("bytes", 0);
  } catch (const CheckError& e) {
    return fail(e.what());
  }
  return true;
}

std::string ship_response(const std::string& id, const ShipSummary& ship) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("status", "ok");
  w.key("ship").begin_object();
  w.kv("records", ship.records);
  w.kv("bytes", ship.bytes);
  w.key("fill");
  write_fill_block(w, ship.peer);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace bfdn
