#include "service/protocol.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
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

bool known_family(std::string_view family) {
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

bool parse_policy(std::string_view name, ReanchorPolicy& out) {
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

bool parse_schedule_kind(std::string_view name, ScheduleKind& out) {
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

bool parse_async_kind(std::string_view name, AsyncKind& out) {
  if (name == "none") out = AsyncKind::kNone;
  else if (name == "round-robin") out = AsyncKind::kRoundRobin;
  else if (name == "fixed-rate") out = AsyncKind::kFixedRate;
  else if (name == "laggard") out = AsyncKind::kLaggard;
  else if (name == "random") out = AsyncKind::kRandom;
  else return false;
  return true;
}

/// The request members parse_request reads, in serialize_request's
/// order; kMemberNames spells them.
enum class Member : std::uint8_t {
  kId, kType, kFamily, kNodes, kDepth, kArms, kSeed, kAlgo, kK, kPolicy,
  kAlgoSeed, kDepthCap, kEll, kSchedule, kHorizon, kP, kScheduleSeed,
  kPeriod, kAsync, kAsyncSeed, kAsyncDelay, kAsyncPeriod, kAsyncSlow,
  kMaxRounds, kFastForward, kCheckInvariants, kKs, kAlgoSeeds, kPort,
  kFrom, kTo, kPeer, kBytes, kCount,
};

constexpr std::string_view kMemberNames[] = {
    "id", "type", "family", "nodes", "depth", "arms", "seed", "algo", "k",
    "policy", "algo_seed", "depth_cap", "ell", "schedule", "horizon", "p",
    "schedule_seed", "period", "async", "async_seed", "async_delay",
    "async_period", "async_slow", "max_rounds", "fast_forward",
    "check_invariants", "ks", "algo_seeds", "port", "from", "to", "peer",
    "bytes"};
static_assert(std::size(kMemberNames) ==
              static_cast<std::size_t>(Member::kCount));

/// One value as read off the wire: its type and, for a scalar, its
/// source text (a string's raw contents, a number's digits).
struct WireValue {
  JsonValue::Type type = JsonValue::Type::kNull;
  std::string_view text;
  bool escaped = false;  // kString: text needs json_unescape
  bool flag = false;     // kBool
};

/// Reads the value at the cursor. A container is skipped; its type is
/// kept so that an accessor can reject it.
WireValue read_wire_value(JsonReader& reader) {
  WireValue value;
  value.type = reader.peek_value();
  switch (value.type) {
    case JsonValue::Type::kString:
      value.text = reader.read_string(&value.escaped);
      break;
    case JsonValue::Type::kNumber: value.text = reader.read_number(); break;
    case JsonValue::Type::kBool: value.flag = reader.read_bool(); break;
    case JsonValue::Type::kNull: reader.read_null(); break;
    case JsonValue::Type::kArray:
    case JsonValue::Type::kObject: reader.skip_value(); break;
  }
  return value;
}

/// The members of one request object, read in a single pass over the
/// line without building a DOM. Each member keeps its first occurrence
/// and unknown members are skipped, as JsonValue lookups would. The
/// accessors mirror JsonValue's get_* with the same errors; strings come
/// back as views into the line (or into `scratch` when escaped).
class RequestMembers {
 public:
  /// Reads the object at the reader's cursor.
  void read(JsonReader& reader) {
    std::string_view name;
    for (bool more = reader.first_member(&name); more;
         more = reader.next_member(&name)) {
      const std::size_t index = find(name);
      if (index == kMembers || present_[index]) {
        reader.skip_value();
        continue;
      }
      present_[index] = true;
      const auto member = static_cast<Member>(index);
      if ((member == Member::kKs || member == Member::kAlgoSeeds) &&
          reader.peek_value() == JsonValue::Type::kArray) {
        std::vector<WireValue>& items =
            member == Member::kKs ? ks_ : algo_seeds_;
        for (bool item = reader.first_item(); item;
             item = reader.next_item()) {
          items.push_back(read_wire_value(reader));
        }
        values_[index].type = JsonValue::Type::kArray;
        continue;
      }
      values_[index] = read_wire_value(reader);
    }
  }

  bool has(Member member) const { return present_[slot(member)]; }

  std::string_view get_string(Member member, std::string_view fallback,
                              std::string& scratch) const {
    if (!has(member)) return fallback;
    return string_of(values_[slot(member)], scratch);
  }
  std::int64_t get_int(Member member, std::int64_t fallback) const {
    return has(member) ? int_of(values_[slot(member)]) : fallback;
  }
  /// get_int for an int32 field: a value outside int32 is rejected, so
  /// it can never wrap into a different, valid request.
  std::int32_t get_int32(Member member, std::int32_t fallback) const {
    if (!has(member)) return fallback;
    const WireValue& value = values_[slot(member)];
    const std::int64_t v = int_of(value);
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
      throw CheckError("JsonValue: not an int32: " + std::string(value.text));
    }
    return static_cast<std::int32_t>(v);
  }
  std::uint64_t get_uint(Member member, std::uint64_t fallback) const {
    return has(member) ? uint_of(values_[slot(member)]) : fallback;
  }
  double get_double(Member member, double fallback) const {
    if (!has(member)) return fallback;
    const WireValue& value = values_[slot(member)];
    json_require_type(value.type, JsonValue::Type::kNumber);
    return json_to_double(value.text);
  }
  bool get_bool(Member member, bool fallback) const {
    if (!has(member)) return fallback;
    const WireValue& value = values_[slot(member)];
    json_require_type(value.type, JsonValue::Type::kBool);
    return value.flag;
  }
  /// The items of "ks" / "algo_seeds"; nullptr unless it is an array.
  const std::vector<WireValue>* array(Member member) const {
    if (values_[slot(member)].type != JsonValue::Type::kArray) return nullptr;
    return member == Member::kKs ? &ks_ : &algo_seeds_;
  }

  static std::int64_t int_of(const WireValue& value) {
    json_require_type(value.type, JsonValue::Type::kNumber);
    return json_to_int(value.text);
  }
  static std::uint64_t uint_of(const WireValue& value) {
    json_require_type(value.type, JsonValue::Type::kNumber);
    return json_to_uint(value.text);
  }

 private:
  static constexpr std::size_t kMembers =
      static_cast<std::size_t>(Member::kCount);

  static std::size_t slot(Member member) {
    return static_cast<std::size_t>(member);
  }

  /// The index of `name` in kMemberNames, kMembers if absent. Lines
  /// written by serialize_request list members in kMemberNames order,
  /// so the search starts after the previous member found.
  std::size_t find(std::string_view name) {
    for (std::size_t n = 0; n < kMembers; ++n) {
      const std::size_t index = (next_ + n) % kMembers;
      if (kMemberNames[index] == name) {
        next_ = index + 1;
        return index;
      }
    }
    return kMembers;
  }

  static std::string_view string_of(const WireValue& value,
                                    std::string& scratch) {
    json_require_type(value.type, JsonValue::Type::kString);
    if (!value.escaped) return value.text;
    scratch.clear();
    json_unescape(value.text, scratch);
    return scratch;
  }

  std::array<WireValue, kMembers> values_{};
  std::array<bool, kMembers> present_{};
  std::vector<WireValue> ks_;
  std::vector<WireValue> algo_seeds_;
  std::size_t next_ = 0;
};

}  // namespace

Tree TreeRecipe::build() const {
  return make_family_tree(family, nodes, depth, arms, seed);
}

std::string TreeRecipe::label() const {
  std::string out;
  append_label(out, *this);
  return out;
}

void append_label(std::string& out, const TreeRecipe& recipe) {
  out += recipe.family;
  out += "(nodes=";
  append_int(out, recipe.nodes);
  out += ",depth=";
  append_int(out, recipe.depth);
  out += ",arms=";
  append_int(out, recipe.arms);
  out += ",seed=";
  append_uint(out, recipe.seed);
  out += ')';
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
  const auto fail = [error](std::string_view message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const auto unknown = [&fail](const char* what, std::string_view name) {
    std::string message = what;
    message += name;
    return fail(message);
  };

  // Syntax errors, wrong-typed members and out-of-range numbers all
  // throw CheckError; a syntax error anywhere in the line is reported
  // before any semantic one, as the whole object is read first.
  try {
    JsonReader reader(line);
    if (reader.peek_value() != JsonValue::Type::kObject) {
      reader.skip_value();
      reader.finish();
      return fail("request must be a JSON object");
    }
    RequestMembers doc;
    doc.read(reader);
    reader.finish();

    // An escaped string member, unescaped; a view into it lasts until
    // the next get_string.
    std::string scratch;
    out = ServiceRequest{};
    out.id = doc.get_string(Member::kId, "", scratch);

    const std::string_view type =
        doc.get_string(Member::kType, "run", scratch);
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
      out.ship_port = doc.get_int32(Member::kPort, 0);
      out.ship_peer = doc.get_int32(Member::kPeer, -1);
      // Router form: "from" names the shipping peer, "to" the receiver.
      out.ship_from = doc.get_int32(Member::kFrom, -1);
      if (doc.has(Member::kTo)) {
        out.ship_peer = doc.get_int32(Member::kTo, -1);
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
      out.fill_bytes = doc.get_int(Member::kBytes, 0);
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
      return unknown("unknown request type: ", type);
    }

    out.recipe.family =
        doc.get_string(Member::kFamily, out.recipe.family, scratch);
    if (!known_family(out.recipe.family)) {
      return unknown("unknown family: ", out.recipe.family);
    }
    out.recipe.nodes = doc.get_int(Member::kNodes, out.recipe.nodes);
    out.recipe.depth = doc.get_int32(Member::kDepth, out.recipe.depth);
    out.recipe.arms = doc.get_int32(Member::kArms, out.recipe.arms);
    out.recipe.seed = doc.get_uint(Member::kSeed, out.recipe.seed);
    if (out.recipe.nodes < 1) return fail("nodes must be >= 1");
    if (out.recipe.depth < 0) return fail("depth must be >= 0");
    if (out.recipe.arms < 1) return fail("arms must be >= 1");
    // Refused here, the recipe costs no queue slot and its rejection
    // text is the same in every build.
    if (const char* refusal =
            family_tree_refusal(out.recipe.family, out.recipe.nodes,
                                out.recipe.depth, out.recipe.arms)) {
      return fail(refusal);
    }
    if (family_tree_nodes(out.recipe.family, out.recipe.nodes,
                          out.recipe.depth, out.recipe.arms,
                          kMaxTreeNodes) > kMaxTreeNodes) {
      return fail(str_format("tree exceeds %lld nodes",
                             static_cast<long long>(kMaxTreeNodes)));
    }

    std::string algo_scratch;  // `algo` outlives the policy's view
    const std::string_view algo =
        doc.get_string(Member::kAlgo, "bfdn", algo_scratch);
    if (algo == "bfdn" || algo == "bfdn-shortcut") {
      out.algo.kind = AlgoKind::kBfdn;
      out.algo.options.shortcut_reanchor = algo == "bfdn-shortcut";
      const std::string_view policy =
          doc.get_string(Member::kPolicy, "least-loaded", scratch);
      if (!parse_policy(policy, out.algo.options.policy)) {
        return unknown("unknown policy: ", policy);
      }
      out.algo.options.seed =
          doc.get_uint(Member::kAlgoSeed, out.algo.options.seed);
      out.algo.options.depth_cap =
          doc.get_int32(Member::kDepthCap, out.algo.options.depth_cap);
      if (out.algo.options.depth_cap < -1) {
        return fail("depth_cap must be >= -1");
      }
    } else if (algo == "bfdn-ell" || algo == "ell2" || algo == "ell3") {
      out.algo.kind = AlgoKind::kBfdnEll;
      out.algo.ell = algo == "ell2"   ? 2
                     : algo == "ell3" ? 3
                                      : doc.get_int32(Member::kEll, 2);
      if (out.algo.ell < 1 || out.algo.ell > 8) {
        return fail("ell must be in [1, 8]");
      }
    } else if (algo == "cte") {
      out.algo.kind = AlgoKind::kCte;
    } else if (algo == "bfs-levels") {
      out.algo.kind = AlgoKind::kBfsLevels;
    } else {
      return unknown("unknown or non-servable algo: ", algo);
    }
    out.algo.k = doc.get_int32(Member::kK, 1);
    if (out.algo.k < 1 || out.algo.k > 65536) {
      return fail("k must be in [1, 65536]");
    }

    const std::string_view schedule =
        doc.get_string(Member::kSchedule, "none", scratch);
    if (!parse_schedule_kind(schedule, out.schedule.kind)) {
      return unknown("unknown schedule: ", schedule);
    }
    if (out.schedule.kind != ScheduleKind::kNone) {
      out.schedule.horizon = doc.get_int(Member::kHorizon, 0);
      if (out.schedule.horizon < 1) {
        return fail("schedule needs horizon >= 1");
      }
      out.schedule.p = doc.get_double(Member::kP, out.schedule.p);
      if (!(out.schedule.p > 0.0 && out.schedule.p <= 1.0)) {
        return fail("p must be in (0, 1]");
      }
      out.schedule.seed =
          doc.get_uint(Member::kScheduleSeed, out.schedule.seed);
      out.schedule.period =
          doc.get_int(Member::kPeriod, out.schedule.period);
      if (out.schedule.period < 1) return fail("period must be >= 1");
    }

    const std::string_view async =
        doc.get_string(Member::kAsync, "none", scratch);
    if (!parse_async_kind(async, out.async.kind)) {
      return unknown("unknown async scheduler: ", async);
    }
    if (out.async.kind != AsyncKind::kNone) {
      if (out.schedule.kind != ScheduleKind::kNone) {
        return fail("async is mutually exclusive with schedule");
      }
      out.async.seed = doc.get_uint(Member::kAsyncSeed, out.async.seed);
      out.async.max_delay =
          doc.get_int(Member::kAsyncDelay, out.async.max_delay);
      if (out.async.max_delay < 0 || out.async.max_delay > kMaxAsyncGap) {
        return fail(str_format("async_delay must be in [0, %lld]",
                               static_cast<long long>(kMaxAsyncGap)));
      }
      out.async.period = doc.get_int(Member::kAsyncPeriod, out.async.period);
      if (out.async.period < 1 || out.async.period > kMaxAsyncGap) {
        return fail(str_format("async_period must be in [1, %lld]",
                               static_cast<long long>(kMaxAsyncGap)));
      }
      out.async.num_slow =
          doc.get_int32(Member::kAsyncSlow, out.async.num_slow);
      if (out.async.num_slow < 1) return fail("async_slow must be >= 1");
    }

    out.max_rounds = doc.get_int(Member::kMaxRounds, 0);
    if (out.max_rounds < 0) return fail("max_rounds must be >= 0");
    out.fast_forward = doc.get_bool(Member::kFastForward, true);
    out.check_invariants = doc.get_bool(Member::kCheckInvariants, false);

    if (out.type == RequestType::kCampaign) {
      if (doc.has(Member::kKs)) {
        const std::vector<WireValue>* ks = doc.array(Member::kKs);
        if (ks == nullptr) return fail("ks must be an array");
        for (const WireValue& item : *ks) {
          const std::int64_t k = RequestMembers::int_of(item);
          if (k < 1 || k > 65536) return fail("k must be in [1, 65536]");
          out.campaign_ks.push_back(static_cast<std::int32_t>(k));
        }
      }
      if (doc.has(Member::kAlgoSeeds)) {
        const std::vector<WireValue>* seeds = doc.array(Member::kAlgoSeeds);
        if (seeds == nullptr) return fail("algo_seeds must be an array");
        for (const WireValue& item : *seeds) {
          out.campaign_seeds.push_back(RequestMembers::uint_of(item));
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
    return fail(e.what());
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

std::string batch_coalesce_key(const ServiceRequest& request) {
  // The algorithm seed is only ever consumed by BfdnAlgorithm under the
  // random reanchor policy (spec.cpp passes it to no other kind); every
  // other servable run is seed-blind, so a seed sweep over one of them
  // describes a single run. On the serving path the key's promise is
  // differential-tested by SchedulerTest.SampledSeedSweepsMatchTheirOwnRuns
  // (sampled trees, algorithms and communication models through the
  // scheduler, against execute_run); OracleCheck::kBatchEquivalence
  // tests it for synchronous members of a sim/BatchExecutor pass only.
  if (request.algo.kind == AlgoKind::kBfdn &&
      request.algo.options.policy == ReanchorPolicy::kRandom) {
    return "";
  }
  ServiceRequest blind = request;
  blind.algo.options.seed = 0;
  std::string key = "batch:";
  append_canonical_request(key, blind);
  return key;
}

std::string canonical_request(const ServiceRequest& request) {
  std::string out;
  append_canonical_request(out, request);
  return out;
}

void append_canonical_request(std::string& out,
                              const ServiceRequest& request) {
  // kShard carries the same fields as kRun and asks "where would this
  // run live?", so it canonicalizes — and therefore fingerprints —
  // exactly like the run it describes.
  BFDN_REQUIRE(request.type == RequestType::kRun ||
                   request.type == RequestType::kShard,
               "canonical_request: run/shard requests only");
  // The request id is transport-level and deliberately excluded; two
  // clients asking for the same run share one cache entry. AlgoSpec /
  // ScheduleSpec render through the same labels the verification
  // harness writes into trace files.
  out += "recipe=";
  append_label(out, request.recipe);
  out += " algo=";
  append_label(out, request.algo);
  out += " policy=";
  out += policy_name(request.algo.options.policy);
  out += " algo_seed=";
  append_uint(out, request.algo.options.seed);
  out += " depth_cap=";
  append_int(out, request.algo.options.depth_cap);
  out += " sched=";
  append_label(out, request.schedule);
  out += " async=";
  append_label(out, request.async);
  out += " max_rounds=";
  append_int(out, request.max_rounds);
  out += request.fast_forward ? " ff=1" : " ff=0";
  out += request.check_invariants ? " check=1" : " check=0";
}

std::uint64_t request_fingerprint(const ServiceRequest& request) {
  // Its capacity settles at the longest canonical form the thread has
  // rendered: a few hundred bytes.
  thread_local std::string canonical;
  canonical.clear();
  append_canonical_request(canonical, request);
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
  config.check_invariants = request.check_invariants;
  config.fast_forward = request.fast_forward;
  const std::unique_ptr<FiniteSchedule> schedule =
      request.schedule.make(request.algo.k);
  config.schedule = schedule.get();
  const std::unique_ptr<AsyncScheduler> async =
      request.async.make(request.algo.k);
  config.async = async.get();
  config.max_rounds =
      scaled_round_limit(tree, request.max_rounds, request.async.slowdown());
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
  // The bytes JsonWriter would emit, appended directly into a string
  // reserved for the worst-case escaped id (6 bytes per character) and
  // the line's '\n'.
  static constexpr std::string_view kId = R"({"id":)";
  static constexpr std::string_view kCached = R"(,"status":"ok","cached":)";
  static constexpr std::string_view kKey = R"(,"key":")";
  static constexpr std::string_view kResult = R"(","result":)";
  static constexpr std::size_t kFixedBytes =
      kId.size() + 2 + kCached.size() + 5 + kKey.size() + 16 +
      kResult.size() + 1 + 1;
  std::string out;
  out.reserve(kFixedBytes + 6 * id.size() + result_json.size());
  out += kId;
  json_append_quoted(out, id);
  out += kCached;
  out += cached ? "true" : "false";
  out += kKey;
  append_hex16(out, key);
  out += kResult;
  out += result_json;
  out += '}';
  return out;
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
