// Wire protocol of the exploration service: one JSON document per
// '\n'-terminated line, both directions (see docs/SERVICE.md for the
// grammar).
//
// A run request names everything needed to reproduce the run outside
// the service: a tree recipe in the CLI family vocabulary
// (graph/make_family_tree) and an algorithm/schedule spec reusing the
// verification harness's serializable AlgoSpec / ScheduleSpec
// (verify/spec.h). The canonicalized request — a normalized key=value
// rendering of every semantically relevant field — is hashed
// (FNV-1a + splitmix64 finalizer) into the content address under which
// the result cache stores the serialized result object, so two
// requests that mean the same run share one cache entry regardless of
// field order or formatting on the wire.
//
// A campaign request (type "campaign") bundles a cross product of run
// requests over one tree recipe — wire arrays "ks" (team sizes) and
// "algo_seeds" (algorithm seeds), k-major then seed — and is answered
// with one response carrying every member's result object. Members are
// first-class runs: each is cached under its own solo fingerprint, so
// a campaign miss warms the cache for later solo requests and vice
// versa, and the member bytes are identical either way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/tree.h"
#include "sim/engine.h"
#include "verify/spec.h"

namespace bfdn {

/// Tree construction parameters, mirroring `bfdn generate` flag for
/// flag; build() goes through the same make_family_tree, so a served
/// run sees the bit-identical tree the CLI builds.
struct TreeRecipe {
  std::string family = "random";
  std::int64_t nodes = 500;
  std::int32_t depth = 12;
  std::int32_t arms = 8;
  std::uint64_t seed = 1;

  Tree build() const;
  /// Canonical "family(nodes=..,depth=..,arms=..,seed=..)" rendering.
  std::string label() const;
};
/// Appends recipe.label() to `out`.
void append_label(std::string& out, const TreeRecipe& recipe);

enum class RequestType : std::uint8_t {
  kRun,
  kStats,
  kCampaign,
  kCompact,
  /// Routing introspection (answered by bfdn_route): which peers own
  /// this run request's fingerprint. Carries the same fields as kRun.
  kShard,
  /// Fan-out stats (answered by bfdn_route): every peer's stats object.
  kPeerStats,
  /// Admin: ship this node's live result set to a peer as one segment
  /// image. Fields: "port" (direct target) or "peer" (index into the
  /// node's --peers list); via the router, "from"/"to" peer indices.
  kShipSegment,
  /// Transfer leg of kShipSegment: the JSON header names "bytes", and
  /// exactly that many raw segment-image bytes follow the newline on
  /// the same connection.
  kSegmentFill,
};

/// Hard bound on expanded campaign members per request.
constexpr std::size_t kMaxCampaignMembers = 64;

/// Hard bound on the nodes of a request's tree, far above every tree a
/// test, tool or benchmark workload serves: parse_request rejects a
/// recipe that would build more, so no request allocates without bound.
constexpr std::int64_t kMaxTreeNodes = 1000000;

/// Hard bound on "async_period" and "async_delay", so the round budget
/// of a slowed run (scaled_round_limit) fits int64. With D <= n - 1 and
/// n <= kMaxTreeNodes = 1e6, default_round_limit = 3 max(D, 1) n + 4n +
/// 4D + 64 <= 3n^2 + 5n + 60 < 3.00001e12; the slowdown is at most
/// 2 * 1e6 (a laggard's 2 * period), so the budget stays under 6.00002e18
/// < 9.22e18 = INT64_MAX.
constexpr std::int64_t kMaxAsyncGap = 1000000;

/// Hard bound on one request line, terminator excluded. The largest
/// legal request is a campaign at kMaxCampaignMembers: 64 twenty-digit
/// algo_seeds plus every run field at its widest serializes to under
/// 2 KiB, so 64 KiB leaves a margin of over 32x for whitespace and ids.
/// Servers answer an over-cap line with one error response and close
/// the connection. (Responses are not capped: clients read them whole.)
constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

struct ServiceRequest {
  RequestType type = RequestType::kRun;
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::string id;
  TreeRecipe recipe;
  /// Algorithm + k (+ options / ell). Engine-based kinds only.
  AlgoSpec algo;
  /// Break-down schedule; kind kNone = complete communication.
  ScheduleSpec schedule;
  /// Per-robot-clock scheduler; kind kNone = synchronous rounds.
  /// Mutually exclusive with a break-down schedule (the engine rejects
  /// the combination, so parse_request does too). Wire fields: "async"
  /// (kind name), "async_seed", "async_delay", "async_period",
  /// "async_slow".
  AsyncSpec async;
  std::int64_t max_rounds = 0;
  bool fast_forward = true;
  bool check_invariants = false;
  /// Campaign sweeps (kCampaign only): the request expands into the
  /// cross product of these team sizes and algorithm seeds, k-major
  /// then seed; an empty vector falls back to the singleton {algo.k}
  /// resp. {algo.options.seed}. Wire fields "ks" and "algo_seeds".
  std::vector<std::int32_t> campaign_ks;
  std::vector<std::uint64_t> campaign_seeds;
  /// kShipSegment: direct target port (wire "port", 0 = unset), target
  /// peer index (wire "peer", -1 = unset), and — router form — source
  /// peer index (wire "from"; the target then comes from "to" → peer).
  std::int32_t ship_port = 0;
  std::int32_t ship_peer = -1;
  std::int32_t ship_from = -1;
  /// kSegmentFill: size of the raw segment image that follows the
  /// header line (wire "bytes").
  std::int64_t fill_bytes = 0;
};

/// Parses one request line. Returns false and fills *error on
/// malformed JSON, unknown names, or out-of-range parameters.
bool parse_request(const std::string& line, ServiceRequest& out,
                   std::string* error);

/// Serializes a request to its wire line (no trailing newline).
/// parse_request(serialize_request(r)) reproduces r exactly.
std::string serialize_request(const ServiceRequest& request);

/// Normalized key=value rendering of every field that affects the
/// result; the cache key's preimage, and therefore a persisted format
/// (docs/SERVICE.md). append_canonical_request is its one writer.
std::string canonical_request(const ServiceRequest& request);
/// Appends canonical_request(request) to `out`.
void append_canonical_request(std::string& out, const ServiceRequest& request);

/// Content address: FNV-1a over canonical_request, splitmix64-mixed.
/// Renders into a reused per-thread buffer, so a steady-state call
/// allocates nothing.
std::uint64_t request_fingerprint(const ServiceRequest& request);

/// Runs the request's simulation on `tree` and serializes the RunResult
/// into the cacheable result object (compact JSON, deterministic field
/// order — cache hits return these bytes verbatim). Throws CheckError
/// on invalid parameter combinations.
std::string execute_run(const ServiceRequest& request, const Tree& tree);

/// Serializes an already-computed RunResult into the exact bytes
/// execute_run would emit for `request`. It reads only the seed-blind
/// AlgoSpec::label(), the tree and the result, so a seed-blind twin's
/// bytes are its leader's.
std::string serialize_run_result(const ServiceRequest& request,
                                 const Tree& tree, const RunResult& result);

/// Expands a campaign request into its member run requests (k-major,
/// then seed). Each member is a plain kRun whose fingerprint is the
/// same fingerprint a direct solo request for that run would get.
std::vector<ServiceRequest> expand_campaign(const ServiceRequest& request);

/// Coalesce key for the run: requests that provably ignore their
/// algorithm seed (every servable kind except BFDN under the random
/// reanchor policy) share a key with their seed zeroed, so a seed sweep
/// over them executes once — in the scheduler, where a twin takes its
/// leader's bytes, and in a sim/BatchExecutor pass. "" = never coalesce.
std::string batch_coalesce_key(const ServiceRequest& request);

// Response envelopes (no trailing newline).
enum class ResponseStatus : std::uint8_t { kOk, kRetry, kError };
/// The envelope's "status", read from the response prefix without
/// parsing the document ("status" precedes every payload member). A
/// line without a recognizable status reads as kError.
ResponseStatus response_status(std::string_view response);

/// Built in one allocation that also holds the '\n' the line server
/// appends.
std::string ok_response(const std::string& id, bool cached,
                        std::uint64_t key, const std::string& result_json);
std::string retry_response(const std::string& id,
                           std::int32_t retry_after_ms,
                           std::int64_t queue_depth);
std::string error_response(const std::string& id,
                           const std::string& message);
std::string stats_response(const std::string& id,
                           const std::string& stats_json);

/// Response to the `compact` admin request: the store rewrite summary
/// (fields mirror ResultStore::CompactResult).
struct CompactSummary {
  std::int64_t segments_before = 0;
  std::int64_t segments_after = 0;
  std::int64_t bytes_before = 0;
  std::int64_t bytes_after = 0;
  std::int64_t kept = 0;
  std::int64_t dropped = 0;
};
std::string compact_response(const std::string& id,
                             const CompactSummary& summary);

/// Response to the `shard` routing-introspection request: the request's
/// fingerprint and the peers that own it on the ring, primary first
/// (more than one entry when the key is replicated).
std::string shard_response(const std::string& id, std::uint64_t key,
                           const std::vector<std::int32_t>& owners);

/// The receiver's summary of one segment_fill transfer (fields mirror
/// ResultStore::ImportResult; a memory-only receiver fills the same
/// shape from its cache-side scan).
struct FillSummary {
  std::int64_t records = 0;
  std::int64_t imported = 0;
  std::int64_t duplicates = 0;
  std::int64_t corrupted_skipped = 0;
  std::int64_t torn_truncated = 0;
  std::int64_t bytes = 0;
};
std::string fill_response(const std::string& id, const FillSummary& fill);
/// Parses the "fill" block out of a fill_response line (the shipping
/// side reads its peer's ack with this). Returns false on a non-ok or
/// malformed line, filling *error.
bool parse_fill_response(const std::string& line, FillSummary* out,
                         std::string* error);

/// The shipping side's summary of a completed ship_segment: what it
/// exported plus the receiver's fill ack.
struct ShipSummary {
  std::int64_t records = 0;  // records in the exported image
  std::int64_t bytes = 0;    // image size shipped
  FillSummary peer;          // receiver's ack
};
std::string ship_response(const std::string& id, const ShipSummary& ship);

/// One member slot of a campaign response.
struct CampaignMemberResponse {
  bool cached = false;
  std::uint64_t key = 0;
  /// The member's solo result object, spliced verbatim.
  std::string result_json;
};
std::string campaign_response(
    const std::string& id,
    const std::vector<CampaignMemberResponse>& members);

/// Wire name of an engine-based AlgoSpec ("bfdn", "bfdn-shortcut",
/// "cte", "bfs-levels", "bfdn-ell").
std::string algo_wire_name(const AlgoSpec& algo);

}  // namespace bfdn
