// Consistent-hash routing front end of the sharded service fleet.
//
// A RouterServer is, like the shard (src/service/server.h), a request
// handler on the line-server core (src/service/line_server.h), which
// owns the client connections, the parse preamble, the request
// counters and the drain; the router's own drain step closes its pooled
// shard connections after the core has released the client ones. It
// owns no cache, store, or scheduler: it fingerprints each run request
// with the protocol's canonical fingerprint, looks the key up on the
// consistent ring (ring.h), and forwards the request line to the
// owning shard over a pooled connection (forward.h), splicing the
// shard's response bytes back verbatim — routed responses are
// byte-identical to the same request served solo (pinned by
// tests/cluster_test.cpp).
//
// Campaigns are expanded router-side and each member is forwarded to
// its own fingerprint's owner concurrently; the members' result bytes
// are reassembled into one campaign response in expansion order, so a
// routed campaign equals the solo campaign byte for byte.
//
// The Zipf head is replicated: a small LRU frequency tracker promotes
// keys past `hot_threshold` to hot, and hot keys round-robin across the
// first `replicas` distinct ring owners (any replica computes identical
// bytes on its first miss — determinism makes replication free of
// coherence). A dead shard answers with the protocol's retry response;
// hot keys fail over to the surviving replica instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/forward.h"
#include "cluster/ring.h"
#include "service/line_server.h"
#include "service/protocol.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"

namespace bfdn {

struct RouterOptions {
  /// 0 = ephemeral; RouterServer::port() reports the bound port.
  std::uint16_t port = 0;
  /// Shard loopback ports, indexed by peer id. Ring labels are these
  /// ports rendered as strings, so a peer keeps its keys across fleet
  /// restarts and resizes.
  std::vector<std::uint16_t> peers;
  std::int32_t vnodes = 64;
  /// Distinct owners a hot key is spread over (1 = no replication).
  std::int32_t replicas = 2;
  /// Request count at which a key counts as hot.
  std::int64_t hot_threshold = 8;
  /// Keys the frequency tracker remembers (LRU beyond that).
  std::size_t hot_capacity = 4096;
  /// Suggested client back-off when a shard is unreachable.
  std::int32_t retry_after_ms = 20;
  /// SO_RCVTIMEO on forwarding connections.
  std::int32_t forward_timeout_ms = 30000;
  /// Workers for concurrent campaign member fan-out; 0 = hardware.
  std::int32_t fanout_threads = 0;
};

class RouterServer {
 public:
  explicit RouterServer(RouterOptions options);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  void start();
  std::uint16_t port() const { return core_.port(); }

  /// Graceful drain: stop accepting, finish in-flight forwards, release
  /// client connections and pooled shard connections. Idempotent.
  void drain();

  /// The router's stats object: request counters, routing counters, and
  /// the cluster block (per-peer forward/replica/ship counters).
  std::string stats_json() const BFDN_EXCLUDES(hot_mutex_);

 private:
  /// The core's handler; `line` is the raw request line, forwarded
  /// verbatim for run requests.
  std::string handle(const ServiceRequest& request, const std::string& line);
  std::string handle_run(const ServiceRequest& request,
                         const std::string& line);
  std::string handle_campaign(const ServiceRequest& request);
  std::string handle_shard(const ServiceRequest& request)
      BFDN_EXCLUDES(hot_mutex_);
  std::string handle_peer_stats(const ServiceRequest& request);
  std::string handle_ship(const ServiceRequest& request);

  /// Bumps the key's frequency and returns whether it is hot now.
  bool record_hit(std::uint64_t key) BFDN_EXCLUDES(hot_mutex_);
  /// Hot-aware owner list: one owner for cold keys, `replicas` distinct
  /// owners for hot ones. Does not bump the frequency.
  std::vector<std::int32_t> route(std::uint64_t key, bool hot) const;
  /// Forwards `line` to the key's owners (recording the hit): the hot
  /// replicas are tried round-robin-first with failover. Counts replica
  /// routes, reroutes and unreachable peers; std::nullopt when no owner
  /// answered.
  std::optional<std::string> forward_to_owners(std::uint64_t key,
                                               const std::string& line);

  RouterOptions options_;
  ConsistentRing ring_;
  PeerPool pool_;
  ThreadPool fanout_;

  // Hot-key frequency tracker (LRU over tracked keys).
  mutable Mutex hot_mutex_;
  std::list<std::pair<std::uint64_t, std::int64_t>> hot_lru_
      BFDN_GUARDED_BY(hot_mutex_);
  std::unordered_map<std::uint64_t, decltype(hot_lru_)::iterator>
      hot_index_ BFDN_GUARDED_BY(hot_mutex_);
  std::atomic<std::uint64_t> replica_rr_{0};

  std::atomic<std::int64_t> runs_forwarded_{0};
  std::atomic<std::int64_t> campaigns_{0};
  std::atomic<std::int64_t> campaign_members_{0};
  std::atomic<std::int64_t> shard_queries_{0};
  std::atomic<std::int64_t> replica_routed_{0};
  std::atomic<std::int64_t> reroutes_{0};
  std::atomic<std::int64_t> peer_unreachable_{0};
  std::atomic<std::int64_t> ships_routed_{0};
  // Last: its connection threads call into every member above.
  LineServer core_;
};

}  // namespace bfdn
