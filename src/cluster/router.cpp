#include "cluster/router.h"

#include <condition_variable>
#include <optional>

#include "support/check.h"
#include "support/json.h"
#include "support/strings.h"

namespace bfdn {

namespace {

std::vector<std::string> ring_labels(
    const std::vector<std::uint16_t>& ports) {
  std::vector<std::string> labels;
  labels.reserve(ports.size());
  for (const std::uint16_t port : ports) {
    labels.push_back(str_format("%u", static_cast<unsigned>(port)));
  }
  return labels;
}

/// Splices the value of an ok response's final member ("result" from
/// ok_response, "stats" from stats_response; protocol.cpp puts each
/// last), so the raw bytes run from after the colon to the envelope's
/// closing brace — no re-serialization, hence no chance of byte drift.
bool extract_last_member(const std::string& line, const std::string& name,
                         std::string* out) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos || line.empty() || line.back() != '}') {
    return false;
  }
  const std::size_t start = pos + needle.size();
  *out = line.substr(start, line.size() - start - 1);
  return true;
}

std::string extract_error(const std::string& line) {
  JsonValue doc;
  std::string json_error;
  if (!json_parse(line, doc, &json_error) || !doc.is_object()) {
    return "malformed shard response";
  }
  return doc.get_string("error", "shard error");
}

}  // namespace

RouterServer::RouterServer(RouterOptions options)
    : options_(options),
      ring_(ring_labels(options.peers), options.vnodes),
      pool_(options.peers, options.forward_timeout_ms),
      fanout_(options.fanout_threads),
      core_([this](const ServiceRequest& request, const std::string& line,
                   Socket&) { return handle(request, line); }) {
  BFDN_REQUIRE(!options_.peers.empty(), "router needs at least one peer");
  BFDN_REQUIRE(options_.replicas >= 1, "replicas must be >= 1");
  BFDN_REQUIRE(options_.hot_threshold >= 1, "hot_threshold must be >= 1");
  BFDN_REQUIRE(options_.hot_capacity >= 1, "hot_capacity must be >= 1");
}

RouterServer::~RouterServer() { drain(); }

void RouterServer::start() { core_.start(options_.port); }

bool RouterServer::record_hit(std::uint64_t key) {
  MutexLock lock(hot_mutex_);
  const auto it = hot_index_.find(key);
  if (it != hot_index_.end()) {
    ++it->second->second;
    hot_lru_.splice(hot_lru_.begin(), hot_lru_, it->second);
    return it->second->second >= options_.hot_threshold;
  }
  hot_lru_.emplace_front(key, 1);
  hot_index_[key] = hot_lru_.begin();
  if (hot_lru_.size() > options_.hot_capacity) {
    hot_index_.erase(hot_lru_.back().first);
    hot_lru_.pop_back();
  }
  return std::int64_t{1} >= options_.hot_threshold;
}

std::vector<std::int32_t> RouterServer::route(std::uint64_t key,
                                              bool hot) const {
  if (hot && options_.replicas > 1) {
    return ring_.owners(key, options_.replicas);
  }
  return {ring_.owner(key)};
}

std::optional<std::string> RouterServer::forward_to_owners(
    std::uint64_t key, const std::string& line) {
  const bool hot = record_hit(key);
  const std::vector<std::int32_t> owners = route(key, hot);
  std::size_t start = 0;
  if (owners.size() > 1) {
    ++replica_routed_;
    start = static_cast<std::size_t>(replica_rr_++ % owners.size());
  }
  for (std::size_t attempt = 0; attempt < owners.size(); ++attempt) {
    auto response =
        pool_.forward(owners[(start + attempt) % owners.size()], line);
    if (response.has_value()) {
      if (attempt > 0) ++reroutes_;
      return response;
    }
    ++peer_unreachable_;
  }
  return std::nullopt;
}

std::string RouterServer::handle(const ServiceRequest& request,
                                 const std::string& line) {
  switch (request.type) {
    case RequestType::kStats:
      return stats_response(request.id, stats_json());
    case RequestType::kPeerStats:
      return handle_peer_stats(request);
    case RequestType::kShard:
      return handle_shard(request);
    case RequestType::kCampaign:
      return handle_campaign(request);
    case RequestType::kShipSegment:
      return handle_ship(request);
    case RequestType::kSegmentFill:
      return error_response(request.id,
                            "segment_fill goes directly to a shard");
    case RequestType::kCompact:
      return error_response(request.id,
                            "compact is a per-shard admin request");
    case RequestType::kRun:
      return handle_run(request, line);
  }
  return error_response(request.id, "unhandled request type");
}

std::string RouterServer::handle_run(const ServiceRequest& request,
                                     const std::string& line) {
  ++runs_forwarded_;
  // The original request line is forwarded verbatim and the shard's
  // response bytes are spliced back verbatim: the router never
  // re-serializes what it routes, so routed == solo byte for byte.
  auto response = forward_to_owners(request_fingerprint(request), line);
  if (response.has_value()) return *std::move(response);
  return retry_response(request.id, options_.retry_after_ms,
                        /*queue_depth=*/0);
}

std::string RouterServer::handle_campaign(const ServiceRequest& request) {
  ++campaigns_;
  const std::vector<ServiceRequest> members = expand_campaign(request);
  campaign_members_ += static_cast<std::int64_t>(members.size());

  // Fan every member out to its own fingerprint's owner concurrently;
  // a shard receiving several same-recipe members at once still batches
  // them through its scheduler exactly as a directly-submitted group.
  std::vector<std::uint64_t> keys(members.size());
  std::vector<std::string> lines(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    keys[i] = request_fingerprint(members[i]);
    lines[i] = serialize_request(members[i]);
  }
  std::vector<std::optional<std::string>> replies(members.size());
  Mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = members.size();
  for (std::size_t i = 0; i < members.size(); ++i) {
    fanout_.submit([this, i, &keys, &lines, &replies, &done_mutex,
                    &done_cv, &remaining] {
      replies[i] = forward_to_owners(keys[i], lines[i]);
      MutexLock lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  {
    MutexLock lock(done_mutex);
    done_cv.wait(lock.native(), [&remaining] { return remaining == 0; });
  }

  // Reassemble in expansion order — the same order the solo campaign
  // path emits — splicing each member's result bytes verbatim.
  std::vector<CampaignMemberResponse> out(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    // An unreachable owner counts as a retry.
    const ResponseStatus status = replies[i].has_value()
                                      ? response_status(*replies[i])
                                      : ResponseStatus::kRetry;
    if (status == ResponseStatus::kRetry) {
      return retry_response(request.id, options_.retry_after_ms,
                            /*queue_depth=*/0);
    }
    const std::string& reply = *replies[i];
    if (status != ResponseStatus::kOk ||
        !extract_last_member(reply, "result", &out[i].result_json)) {
      return error_response(request.id, extract_error(reply));
    }
    const std::size_t result_pos = reply.find("\"result\":");
    out[i].cached =
        reply.find("\"cached\":true") < result_pos;
    out[i].key = keys[i];
  }
  return campaign_response(request.id, out);
}

std::string RouterServer::handle_shard(const ServiceRequest& request) {
  ++shard_queries_;
  const std::uint64_t key = request_fingerprint(request);
  bool hot = false;
  {
    // Introspection must not heat the key: read the count, don't bump.
    MutexLock lock(hot_mutex_);
    const auto it = hot_index_.find(key);
    hot = it != hot_index_.end() &&
          it->second->second >= options_.hot_threshold;
  }
  return shard_response(request.id, key, route(key, hot));
}

std::string RouterServer::handle_peer_stats(const ServiceRequest& request) {
  ServiceRequest probe;
  probe.type = RequestType::kStats;
  const std::string probe_line = serialize_request(probe);
  JsonWriter w;
  w.begin_object();
  w.kv("id", request.id);
  w.kv("status", "ok");
  w.key("peers").begin_array();
  for (std::size_t peer = 0; peer < options_.peers.size(); ++peer) {
    w.begin_object();
    w.kv("peer", static_cast<std::int64_t>(peer));
    w.kv("port", static_cast<std::int64_t>(options_.peers[peer]));
    auto reply =
        pool_.forward(static_cast<std::int32_t>(peer), probe_line);
    std::string stats_raw;
    w.key("stats");
    if (reply.has_value() &&
        response_status(*reply) == ResponseStatus::kOk &&
        extract_last_member(*reply, "stats", &stats_raw)) {
      w.raw(stats_raw);
    } else {
      w.value_null();
      ++peer_unreachable_;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string RouterServer::handle_ship(const ServiceRequest& request) {
  const std::int32_t from = request.ship_from;
  if (from < 0 ||
      from >= static_cast<std::int32_t>(options_.peers.size())) {
    return error_response(
        request.id,
        str_format("ship_segment from %d out of range (fleet of %zu)",
                   from, options_.peers.size()));
  }
  std::uint16_t target_port = 0;
  if (request.ship_port != 0) {
    target_port = static_cast<std::uint16_t>(request.ship_port);
  } else {
    const std::int32_t to = request.ship_peer;
    if (to < 0 ||
        to >= static_cast<std::int32_t>(options_.peers.size())) {
      return error_response(
          request.id,
          str_format("ship_segment to %d out of range (fleet of %zu)",
                     to, options_.peers.size()));
    }
    if (to == from) {
      return error_response(request.id,
                            "ship_segment source equals target");
    }
    target_port = options_.peers[static_cast<std::size_t>(to)];
  }
  // Hand the source shard a direct-port ship order so the transfer
  // streams shard-to-shard without the image passing through here.
  ServiceRequest order;
  order.type = RequestType::kShipSegment;
  order.id = request.id;
  order.ship_port = static_cast<std::int32_t>(target_port);
  auto reply = pool_.forward(from, serialize_request(order));
  if (!reply.has_value()) {
    ++peer_unreachable_;
    return retry_response(request.id, options_.retry_after_ms,
                          /*queue_depth=*/0);
  }
  ++ships_routed_;
  return *reply;
}

void RouterServer::drain() {
  core_.drain();
  pool_.close_all();
}

std::string RouterServer::stats_json() const {
  std::int64_t hot_tracked = 0;
  std::int64_t hot_keys = 0;
  {
    MutexLock lock(hot_mutex_);
    hot_tracked = static_cast<std::int64_t>(hot_lru_.size());
    for (const auto& [key, count] : hot_lru_) {
      if (count >= options_.hot_threshold) ++hot_keys;
    }
  }

  return core_.stats_json([&](JsonWriter& w, double) {
    w.key("routing").begin_object();
    w.kv("runs_forwarded", runs_forwarded_.load());
    w.kv("campaigns", campaigns_.load());
    w.kv("campaign_members", campaign_members_.load());
    w.kv("shard_queries", shard_queries_.load());
    w.kv("replica_routed", replica_routed_.load());
    w.kv("reroutes", reroutes_.load());
    w.kv("peer_unreachable", peer_unreachable_.load());
    w.kv("hot_tracked", hot_tracked);
    w.kv("hot_keys", hot_keys);
    w.kv("hot_threshold", options_.hot_threshold);
    w.end_object();
    w.key("cluster").begin_object();
    w.kv("replicas", options_.replicas);
    w.kv("vnodes", options_.vnodes);
    w.kv("ships_routed", ships_routed_.load());
    w.key("peers").begin_array();
    for (std::size_t peer = 0; peer < options_.peers.size(); ++peer) {
      const PeerPool::Counters counters =
          pool_.counters(static_cast<std::int32_t>(peer));
      w.begin_object();
      w.kv("peer", static_cast<std::int64_t>(peer));
      w.kv("port", static_cast<std::int64_t>(options_.peers[peer]));
      w.kv("forwarded", counters.forwarded);
      w.kv("errors", counters.errors);
      w.kv("reconnects", counters.reconnects);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

}  // namespace bfdn
