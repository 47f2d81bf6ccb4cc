// The exploration service's shard: a request handler on the line-server
// core (line_server.h), which owns connections, parsing, the request
// counters and drain. Run requests consult the content-addressed result
// cache before scheduling. Drain hook: once the core stops accepting,
// finish every admitted job (their responses are written) and flush the
// store; the core then releases the connections.
//
// Embeddable: tests run servers in-process (start / drain / stats);
// tools/bfdn_serve wraps one instance and wires SIGTERM to drain().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/cache.h"
#include "service/line_server.h"
#include "service/scheduler.h"
#include "store/result_store.h"
#include "support/socket.h"

namespace bfdn {

struct ServerOptions {
  /// 0 = ephemeral; ServiceServer::port() reports the bound port.
  std::uint16_t port = 0;
  std::int32_t threads = 0;  // scheduler workers; 0 = hardware
  std::int32_t queue_capacity = 64;
  std::size_t cache_capacity = 1024;
  /// Suggested client back-off in backpressure rejections.
  std::int32_t retry_after_ms = 20;
  /// Admission guard on request tree sizes.
  std::int64_t max_nodes = 1000000;
  /// Durable result store directory; empty = in-memory cache only.
  /// Non-empty runs boot recovery here and makes the cache a
  /// read-through/write-behind tier over the segment files.
  std::string store_dir;
  std::size_t store_segment_bytes = 64ull << 20;
  std::int32_t store_flush_ms = 25;
  /// fdatasync each group commit (tests/benches may turn it off).
  bool store_sync = true;
  /// Fleet identity: this node's index into `peers` (-1 = standalone)
  /// and the full fleet's loopback ports. Only consulted by the
  /// ship_segment admin path ("peer" targets) and the stats cluster
  /// block — shards hold no ring; routing lives in src/cluster.
  std::int32_t peer_id = -1;
  std::vector<std::uint16_t> peers;
};

class ServiceServer {
 public:
  explicit ServiceServer(ServerOptions options);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens and starts accepting. Throws CheckError when the
  /// port is taken.
  void start();
  std::uint16_t port() const { return core_.port(); }

  /// Graceful drain: stop accepting, reject new submissions, finish
  /// every admitted job (their responses are written), close
  /// connections. Idempotent; also run by the destructor.
  void drain();

  /// The protocol's stats object (also the final flush bfdn_serve
  /// prints on drain).
  std::string stats_json() const;

  ResultCache::Stats cache_stats() const { return cache_.stats(); }
  Scheduler::Stats scheduler_stats() const { return scheduler_.stats(); }
  std::int64_t protocol_errors() const { return core_.protocol_errors(); }
  /// Null when the server runs without a durable store.
  ResultStore* store() { return store_.get(); }

 private:
  /// The core's handler. `socket` lets kSegmentFill consume the raw
  /// image bytes that follow the header line on the same connection.
  std::string handle(const ServiceRequest& request, Socket& socket);
  /// The answer to a job the scheduler did not admit: retry when the
  /// queue is full, error when draining.
  std::string refusal(Scheduler::Admit admit, const std::string& id) const;
  std::string handle_run(const ServiceRequest& request);
  std::string handle_campaign(const ServiceRequest& request);
  std::string handle_compact(const ServiceRequest& request);
  std::string handle_ship(const ServiceRequest& request);
  std::string handle_fill(const ServiceRequest& request, Socket& socket);
  /// The live result set as one segment image: from the store when one
  /// is attached (covers memory-evicted keys), else from the cache.
  std::string export_image(std::int64_t* records);

  ServerOptions options_;
  // Declared before cache_: the cache holds a raw pointer into the
  // store, so the store must outlive it.
  std::unique_ptr<ResultStore> store_;
  ResultCache cache_;
  Scheduler scheduler_;

  std::atomic<std::int64_t> ships_sent_{0};
  std::atomic<std::int64_t> ship_records_sent_{0};
  std::atomic<std::int64_t> fills_received_{0};
  std::atomic<std::int64_t> fill_records_imported_{0};
  // Last: its connection threads call into every member above.
  LineServer core_;
};

}  // namespace bfdn
