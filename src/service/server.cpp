#include "service/server.h"

#include <cstring>
#include <unordered_set>

#include "graph/generators.h"
#include "service/protocol.h"
#include "store/segment.h"
#include "support/check.h"
#include "support/json.h"
#include "support/strings.h"

namespace bfdn {

namespace {

std::unique_ptr<ResultStore> make_store(const ServerOptions& options) {
  if (options.store_dir.empty()) return nullptr;
  StoreOptions store_options;
  store_options.dir = options.store_dir;
  store_options.segment_bytes = options.store_segment_bytes;
  store_options.flush_interval_ms = options.store_flush_ms;
  store_options.sync_on_flush = options.store_sync;
  return std::make_unique<ResultStore>(store_options);
}

}  // namespace

ServiceServer::ServiceServer(ServerOptions options)
    : options_(options),
      store_(make_store(options)),
      cache_(options.cache_capacity, store_.get()),
      scheduler_({options.threads, options.queue_capacity}),
      core_([this](const ServiceRequest& request, const std::string&,
                   Socket& socket) { return handle(request, socket); }) {}

ServiceServer::~ServiceServer() { drain(); }

void ServiceServer::start() { core_.start(options_.port); }

std::string ServiceServer::handle(const ServiceRequest& request,
                                  Socket& socket) {
  switch (request.type) {
    case RequestType::kStats:
      return stats_response(request.id, stats_json());
    case RequestType::kCompact:
      return handle_compact(request);
    case RequestType::kShipSegment:
      return handle_ship(request);
    case RequestType::kSegmentFill:
      return handle_fill(request, socket);
    case RequestType::kShard:
    case RequestType::kPeerStats:
      // The ring lives above the service layer (src/cluster); a shard
      // cannot answer routing questions without inverting that DAG.
      return error_response(request.id,
                            "shard/peer_stats are router requests "
                            "(ask bfdn_route)");
    case RequestType::kRun:
    case RequestType::kCampaign:
      break;
  }
  // The size of the tree the recipe builds: families sized by depth or
  // arms ignore `nodes`. parse_request bounds it by kMaxTreeNodes, so
  // the count is exact.
  if (family_tree_nodes(request.recipe.family, request.recipe.nodes,
                        request.recipe.depth, request.recipe.arms,
                        kMaxTreeNodes) > options_.max_nodes) {
    return error_response(
        request.id,
        str_format("nodes exceeds server limit %lld",
                   static_cast<long long>(options_.max_nodes)));
  }
  return request.type == RequestType::kCampaign ? handle_campaign(request)
                                                : handle_run(request);
}

std::string ServiceServer::refusal(Scheduler::Admit admit,
                                   const std::string& id) const {
  return admit == Scheduler::Admit::kQueueFull
             ? retry_response(id, options_.retry_after_ms,
                              scheduler_.queue_depth())
             : error_response(id, "server is draining");
}

std::string ServiceServer::handle_run(const ServiceRequest& request) {
  const std::uint64_t key = request_fingerprint(request);
  if (auto cached = cache_.get(key); cached.has_value()) {
    return ok_response(request.id, /*cached=*/true, key, *cached);
  }

  std::shared_ptr<Scheduler::Job> job;
  const Scheduler::Admit admit = scheduler_.submit(request, &job);
  if (admit != Scheduler::Admit::kAdmitted) return refusal(admit, request.id);

  const JobOutcome& outcome = job->wait();
  if (!outcome.ok) {
    return error_response(request.id, outcome.payload);
  }
  cache_.put(key, outcome.payload);
  return ok_response(request.id, /*cached=*/false, key, outcome.payload);
}

std::string ServiceServer::handle_campaign(const ServiceRequest& request) {
  // Each member is cached under its own solo fingerprint: hits splice
  // the original solo bytes back verbatim, misses are admitted as one
  // atomic group (the scheduler then builds their tree once and runs
  // each distinct member once, seed-blind twins sharing a run) and
  // their results warm the per-member cache.
  // The lookup is one get_many call, so a cold campaign against a warm
  // store bulk-loads every member fingerprint in a single index pass
  // instead of N separate misses.
  const std::vector<ServiceRequest> members = expand_campaign(request);
  std::vector<CampaignMemberResponse> responses(members.size());
  std::vector<std::uint64_t> keys(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    keys[i] = request_fingerprint(members[i]);
    responses[i].key = keys[i];
  }
  std::vector<std::optional<std::string>> found;
  cache_.get_many(keys, &found);
  std::vector<std::size_t> miss_slots;
  std::vector<ServiceRequest> misses;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (found[i].has_value()) {
      responses[i].cached = true;
      responses[i].result_json = std::move(*found[i]);
    } else {
      miss_slots.push_back(i);
      misses.push_back(members[i]);
    }
  }

  if (!misses.empty()) {
    std::vector<std::shared_ptr<Scheduler::Job>> jobs;
    const Scheduler::Admit admit = scheduler_.submit_all(misses, &jobs);
    if (admit != Scheduler::Admit::kAdmitted) {
      return refusal(admit, request.id);
    }
    // Wait for every member before reporting, so an early failure
    // cannot leave admitted siblings racing the response.
    std::string first_error;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const JobOutcome& outcome = jobs[j]->wait();
      if (!outcome.ok) {
        if (first_error.empty()) first_error = outcome.payload;
        continue;
      }
      const std::size_t slot = miss_slots[j];
      cache_.put(responses[slot].key, outcome.payload);
      responses[slot].result_json = outcome.payload;
    }
    if (!first_error.empty()) {
      return error_response(request.id, first_error);
    }
  }

  return campaign_response(request.id, responses);
}

std::string ServiceServer::handle_compact(const ServiceRequest& request) {
  if (store_ == nullptr) {
    return error_response(request.id, "server has no durable store");
  }
  // The cache's LRU residents are the live set; everything evicted from
  // memory is cold and gets dropped from the rewritten segments.
  const ResultStore::CompactResult result =
      store_->compact(cache_.lru_keys());
  CompactSummary summary;
  summary.segments_before = result.segments_before;
  summary.segments_after = result.segments_after;
  summary.bytes_before = result.bytes_before;
  summary.bytes_after = result.bytes_after;
  summary.kept = result.kept;
  summary.dropped = result.dropped;
  return compact_response(request.id, summary);
}

std::string ServiceServer::export_image(std::int64_t* records) {
  if (store_ != nullptr) return store_->export_live(records);
  // Memory-only server: encode the cache residents with the same
  // segment framing the store writes, so the receiving side replays one
  // uniform format.
  std::string image(store::kSegmentMagic, store::kSegmentHeaderBytes);
  std::int64_t count = 0;
  for (const auto& [key, payload] : cache_.export_entries()) {
    store::encode_record(key, payload, &image);
    ++count;
  }
  if (records != nullptr) *records = count;
  return image;
}

std::string ServiceServer::handle_ship(const ServiceRequest& request) {
  std::uint16_t port = 0;
  if (request.ship_port != 0) {
    port = static_cast<std::uint16_t>(request.ship_port);
  } else {
    const std::int32_t peer = request.ship_peer;
    if (peer < 0 ||
        peer >= static_cast<std::int32_t>(options_.peers.size())) {
      return error_response(
          request.id,
          str_format("ship_segment peer %d out of range (fleet of %zu)",
                     peer, options_.peers.size()));
    }
    if (peer == options_.peer_id) {
      return error_response(request.id,
                            "ship_segment target is this node");
    }
    port = options_.peers[static_cast<std::size_t>(peer)];
  }

  std::int64_t records = 0;
  std::string image;
  try {
    image = export_image(&records);
  } catch (const CheckError& e) {
    return error_response(request.id,
                          std::string("export failed: ") + e.what());
  }

  ShipSummary summary;
  summary.records = records;
  summary.bytes = static_cast<std::int64_t>(image.size());
  try {
    Socket peer = connect_local(port, /*recv_timeout_ms=*/30000);
    ServiceRequest header;
    header.type = RequestType::kSegmentFill;
    header.id = request.id;
    header.fill_bytes = static_cast<std::int64_t>(image.size());
    if (!peer.send_all(serialize_request(header) + "\n") ||
        !peer.send_all(image)) {
      return error_response(request.id, "peer connection lost mid-ship");
    }
    const auto ack = peer.recv_line();
    if (!ack.has_value()) {
      return error_response(request.id, "peer closed before fill ack");
    }
    std::string error;
    if (!parse_fill_response(*ack, &summary.peer, &error)) {
      return error_response(request.id, error);
    }
  } catch (const CheckError& e) {
    return error_response(request.id, e.what());
  }
  ++ships_sent_;
  ship_records_sent_ += records;
  return ship_response(request.id, summary);
}

std::string ServiceServer::handle_fill(const ServiceRequest& request,
                                       Socket& socket) {
  const auto image =
      socket.recv_exact(static_cast<std::size_t>(request.fill_bytes));
  if (!image.has_value()) {
    return error_response(request.id, "connection lost mid-fill");
  }
  if (std::memcmp(image->data(), store::kSegmentMagic,
                  store::kSegmentHeaderBytes) != 0) {
    return error_response(request.id, "bad segment magic");
  }

  FillSummary fill;
  fill.bytes = static_cast<std::int64_t>(image->size());
  if (store_ != nullptr) {
    try {
      const ResultStore::ImportResult result =
          store_->install_segment(*image);
      fill.records = result.records;
      fill.imported = result.imported;
      fill.duplicates = result.duplicates;
      fill.corrupted_skipped = result.corrupted_skipped;
      fill.torn_truncated = result.torn_truncated;
    } catch (const CheckError& e) {
      return error_response(request.id,
                            std::string("install failed: ") + e.what());
    }
  } else {
    // Memory-only receiver: replay the image straight into the cache
    // with the same validation discipline as the store's recovery scan
    // (checksums re-verified, corrupt skipped and counted, torn tail
    // truncated).
    std::unordered_set<std::uint64_t> resident;
    for (const std::uint64_t key : cache_.lru_keys()) resident.insert(key);
    std::size_t offset = store::kSegmentHeaderBytes;
    while (offset < image->size()) {
      store::DecodedRecord record;
      const store::RecordStatus status =
          store::decode_record(image->data(), image->size(), offset,
                               &record);
      if (status == store::RecordStatus::kTorn) {
        ++fill.torn_truncated;
        break;
      }
      offset += record.frame_bytes;
      if (status == store::RecordStatus::kCorrupt) {
        ++fill.corrupted_skipped;
        continue;
      }
      ++fill.records;
      if (resident.count(record.fingerprint) > 0) {
        ++fill.duplicates;
        continue;
      }
      resident.insert(record.fingerprint);
      cache_.put(record.fingerprint,
                 std::string(record.payload, record.payload_len));
      ++fill.imported;
    }
  }
  ++fills_received_;
  fill_records_imported_ += fill.imported;
  return fill_response(request.id, fill);
}

void ServiceServer::drain() {
  core_.drain([this] {
    // Every admitted job finishes; connection threads blocked in
    // Job::wait() get their outcome and write the response.
    scheduler_.drain();
    // Make everything the drained jobs produced durable before the
    // final stats flush, so a restart over the same store dir starts
    // warm.
    if (store_ != nullptr) store_->flush();
  });
}

std::string ServiceServer::stats_json() const {
  return core_.stats_json([this](JsonWriter& w, double uptime_s) {
    const auto cache = cache_.stats();
    const auto jobs = scheduler_.stats();
    w.key("queue").begin_object();
    w.kv("depth", scheduler_.queue_depth());
    w.kv("capacity", scheduler_.queue_capacity());
    w.kv("threads", scheduler_.num_threads());
    w.end_object();
    w.key("cache").begin_object();
    w.kv("hits", cache.hits);
    w.kv("misses", cache.misses);
    w.kv("store_hits", cache.store_hits);
    w.kv("evictions", cache.evictions);
    w.kv("entries", static_cast<std::int64_t>(cache.entries));
    w.kv("capacity", static_cast<std::int64_t>(cache.capacity));
    w.kv("hit_rate", cache.hit_rate(), 4);
    w.end_object();
    if (store_ != nullptr) {
      const StoreStats store = store_->stats();
      w.key("store").begin_object();
      w.kv("segments", store.segments);
      w.kv("file_bytes", store.file_bytes);
      w.kv("records", store.records);
      w.kv("pending_records", store.pending_records);
      w.kv("recovered_records", store.recovered_records);
      w.kv("torn_tail_truncations", store.torn_tail_truncations);
      w.kv("corrupted_skipped", store.corrupted_skipped);
      w.kv("appended_records", store.appended_records);
      w.kv("appended_bytes", store.appended_bytes);
      w.kv("flushes", store.flushes);
      w.kv("syncs", store.syncs);
      w.kv("bulk_lookups", store.bulk_lookups);
      w.kv("bulk_key_hits", store.bulk_key_hits);
      w.kv("compactions", store.compactions);
      w.kv("compaction_dropped", store.compaction_dropped);
      w.kv("exports", store.exports);
      w.kv("exported_records", store.exported_records);
      w.kv("imports", store.imports);
      w.kv("imported_records", store.imported_records);
      w.kv("import_duplicates", store.import_duplicates);
      w.kv("import_corrupted", store.import_corrupted);
      w.kv("import_torn", store.import_torn);
      w.end_object();
    }
    w.key("cluster").begin_object();
    w.kv("peer_id", options_.peer_id);
    w.key("peers").begin_array();
    for (const std::uint16_t peer : options_.peers) {
      w.value(static_cast<std::int64_t>(peer));
    }
    w.end_array();
    w.kv("ships_sent", ships_sent_.load());
    w.kv("ship_records_sent", ship_records_sent_.load());
    w.kv("fills_received", fills_received_.load());
    w.kv("fill_records_imported", fill_records_imported_.load());
    w.end_object();
    w.key("jobs").begin_object();
    w.kv("admitted", jobs.admitted);
    w.kv("completed", jobs.completed);
    w.kv("rejected_full", jobs.rejected_full);
    w.kv("rejected_draining", jobs.rejected_draining);
    w.kv("batched", jobs.batched_jobs);
    w.kv("trees_built", jobs.trees_built);
    w.kv("batch_coalesced", jobs.batch_coalesced);
    w.kv("per_sec", uptime_s > 0
                        ? static_cast<double>(jobs.completed) / uptime_s
                        : 0.0,
         2);
    w.end_object();
    w.key("latency_us").begin_object();
    w.kv("count", static_cast<std::int64_t>(jobs.latency_us.count()));
    if (jobs.latency_us.count() > 0) {
      w.kv("mean", jobs.latency_us.mean(), 1);
      w.kv("min", jobs.latency_us.min(), 1);
      w.kv("max", jobs.latency_us.max(), 1);
    }
    w.key("log2_hist").begin_object();
    for (const auto& [bucket, count] : jobs.latency_log2_us.buckets()) {
      w.kv(str_format("%lld", static_cast<long long>(bucket)), count);
    }
    w.end_object();
    w.end_object();
  });
}

}  // namespace bfdn
