// Tests for the durable result store (src/store): segment framing,
// crash recovery (torn tails, checksum corruption, kill-9-style partial
// appends), write-behind visibility, compaction, and the end-to-end
// persistence contract — a served result recovered after a server
// restart is byte-identical to the bytes the original miss produced,
// and a damaged store never serves wrong bytes (it recomputes and
// overwrites).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "store/result_store.h"
#include "store/segment.h"
#include "support/check.h"
#include "support/socket.h"
#include "support/strings.h"

namespace bfdn {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under gtest's temp root.
std::string test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("bfdn_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

StoreOptions small_store(const std::string& dir) {
  StoreOptions options;
  options.dir = dir;
  options.segment_bytes = 4096;  // small: tests exercise rotation
  options.flush_interval_ms = 5;
  return options;
}

std::string payload_for(std::uint64_t key) {
  return str_format("{\"result\":%llu,\"blob\":\"%s\"}",
                    static_cast<unsigned long long>(key * 2654435761ull),
                    std::string(17 + key % 91, 'x').c_str());
}

/// Paths of the store's segment files, sequence order.
std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::uint64_t seq = store::parse_segment_file_name(
        entry.path().filename().string());
    if (seq > 0) found.emplace_back(seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  for (auto& [seq, path] : found) paths.push_back(std::move(path));
  return paths;
}

// --- segment framing ---

TEST(SegmentTest, EncodeDecodeRoundTrip) {
  std::string buffer(store::kSegmentHeaderBytes, '\0');
  store::encode_record(0xdeadbeefcafe1234ull, "hello result", &buffer);
  ASSERT_EQ(buffer.size() % store::kRecordAlign, 0u);

  store::DecodedRecord record;
  ASSERT_EQ(store::decode_record(buffer.data(), buffer.size(),
                                 store::kSegmentHeaderBytes, &record),
            store::RecordStatus::kOk);
  EXPECT_EQ(record.fingerprint, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(std::string(record.payload, record.payload_len),
            "hello result");
}

TEST(SegmentTest, ChecksumBindsPayloadToFingerprint) {
  // The same payload under two keys must produce different checksums:
  // a record transplanted to another fingerprint fails validation.
  EXPECT_NE(store::record_checksum(1, "payload"),
            store::record_checksum(2, "payload"));

  std::string buffer;
  store::encode_record(42, "payload", &buffer);
  buffer[0] ^= 1;  // flip one fingerprint bit
  store::DecodedRecord record;
  EXPECT_EQ(store::decode_record(buffer.data(), buffer.size(), 0, &record),
            store::RecordStatus::kCorrupt);
}

TEST(SegmentTest, TruncatedFrameIsTorn) {
  std::string buffer;
  store::encode_record(7, "0123456789abcdef0123", &buffer);
  store::DecodedRecord record;
  for (const std::size_t cut : {buffer.size() - 1, buffer.size() - 9,
                                store::kRecordHeaderBytes - 1,
                                std::size_t{3}}) {
    EXPECT_EQ(store::decode_record(buffer.data(), cut, 0, &record),
              store::RecordStatus::kTorn)
        << "cut=" << cut;
  }
}

TEST(SegmentTest, FileNameRoundTrip) {
  EXPECT_EQ(store::segment_file_name(42), "seg-000042.bfdnseg");
  EXPECT_EQ(store::parse_segment_file_name("seg-000042.bfdnseg"), 42u);
  EXPECT_EQ(store::parse_segment_file_name("seg-1234567.bfdnseg"),
            1234567u);
  EXPECT_EQ(store::parse_segment_file_name("seg-.bfdnseg"), 0u);
  EXPECT_EQ(store::parse_segment_file_name("seg-12x4.bfdnseg"), 0u);
  EXPECT_EQ(store::parse_segment_file_name("other.txt"), 0u);
}

// --- store basics ---

TEST(ResultStoreTest, PutIsVisibleBeforeAndAfterFlush) {
  const std::string dir = test_dir("visible");
  ResultStore store(small_store(dir));
  store.put(1, payload_for(1));
  // Write-behind: readable immediately from the pending buffer.
  const auto before = store.get(1);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(*before, payload_for(1));
  store.flush();
  const auto after = store.get(1);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, payload_for(1));
  EXPECT_EQ(store.stats().pending_records, 0);
  EXPECT_GE(store.stats().flushes, 1);
}

TEST(ResultStoreTest, FlushWritesAndSyncsWithoutHoldingTheMutex) {
  // Gets and puts never wait on a batch's writes or fdatasyncs: every IO
  // call runs with the store mutex dropped, across segment rotations too.
  const std::string dir = test_dir("unlocked_io");
  ResultStore store(small_store(dir));
  for (std::uint64_t key = 1; key <= 60; ++key) {
    store.put(key, payload_for(key));
  }
  store.flush();
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.appended_records, 60);
  EXPECT_GE(stats.segments, 2);
  EXPECT_GE(stats.syncs, stats.flushes);
  EXPECT_EQ(stats.locked_io, 0);
}

TEST(ResultStoreTest, ReopenRecoversEveryRecordByteIdentical) {
  const std::string dir = test_dir("reopen");
  constexpr std::uint64_t kCount = 60;  // spans several 4 KiB segments
  {
    ResultStore store(small_store(dir));
    for (std::uint64_t key = 1; key <= kCount; ++key) {
      store.put(key, payload_for(key));
    }
    // Destructor flushes; no explicit flush() on purpose.
  }
  ResultStore store(small_store(dir));
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.recovered_records, static_cast<std::int64_t>(kCount));
  EXPECT_EQ(stats.torn_tail_truncations, 0);
  EXPECT_EQ(stats.corrupted_skipped, 0);
  EXPECT_GT(stats.segments, 1) << "rotation never triggered";
  for (std::uint64_t key = 1; key <= kCount; ++key) {
    const auto payload = store.get(key);
    ASSERT_TRUE(payload.has_value()) << key;
    EXPECT_EQ(*payload, payload_for(key)) << key;
  }
  EXPECT_FALSE(store.get(kCount + 1).has_value());
}

TEST(ResultStoreTest, DuplicatePutsAreDroppedNotAppended) {
  const std::string dir = test_dir("dedup");
  ResultStore store(small_store(dir));
  store.put(5, payload_for(5));
  store.flush();
  store.put(5, payload_for(5));  // already durable
  store.put(6, payload_for(6));
  store.put(6, payload_for(6));  // already pending
  store.flush();
  EXPECT_EQ(store.stats().appended_records, 2);
  EXPECT_EQ(store.stats().records, 2);
}

TEST(ResultStoreTest, GetManyFillsFoundKeysInOnePass) {
  const std::string dir = test_dir("getmany");
  ResultStore store(small_store(dir));
  store.put(10, payload_for(10));
  store.put(11, payload_for(11));
  store.flush();
  store.put(12, payload_for(12));  // still pending: must be visible too

  std::vector<std::optional<std::string>> out;
  store.get_many({10, 99, 12, 11}, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], payload_for(10));
  EXPECT_FALSE(out[1].has_value());
  EXPECT_EQ(out[2], payload_for(12));
  EXPECT_EQ(out[3], payload_for(11));
  EXPECT_EQ(store.stats().bulk_lookups, 1);
  EXPECT_EQ(store.stats().bulk_key_hits, 3);
}

// --- crash recovery ---

TEST(ResultStoreTest, TornTailIsTruncatedAndStoreStaysUsable) {
  const std::string dir = test_dir("torn");
  {
    ResultStore store(small_store(dir));
    store.put(1, payload_for(1));
    store.put(2, payload_for(2));
  }
  // A kill -9 mid-append leaves a prefix of the last frame: fabricate
  // one by appending a valid header + partial payload.
  const std::vector<std::string> paths = segment_paths(dir);
  ASSERT_FALSE(paths.empty());
  std::string frame;
  store::encode_record(3, payload_for(3), &frame);
  const std::string partial = frame.substr(0, frame.size() - 5);
  const auto before = fs::file_size(paths.back());
  {
    std::ofstream out(paths.back(), std::ios::binary | std::ios::app);
    out.write(partial.data(),
              static_cast<std::streamsize>(partial.size()));
  }

  ResultStore store(small_store(dir));
  EXPECT_EQ(store.stats().torn_tail_truncations, 1);
  EXPECT_EQ(store.stats().recovered_records, 2);
  EXPECT_EQ(fs::file_size(paths.back()), before) << "tail not truncated";
  EXPECT_EQ(store.get(1), payload_for(1));
  EXPECT_EQ(store.get(2), payload_for(2));
  EXPECT_FALSE(store.get(3).has_value());

  // The truncated store keeps working: the lost record is re-put and
  // survives the next reopen.
  store.put(3, payload_for(3));
  store.flush();
  ResultStore reopened(small_store(dir));
  EXPECT_EQ(reopened.stats().torn_tail_truncations, 0);
  EXPECT_EQ(reopened.get(3), payload_for(3));
}

TEST(ResultStoreTest, CorruptedRecordIsSkippedCountedAndOverwritable) {
  const std::string dir = test_dir("corrupt");
  {
    ResultStore store(small_store(dir));
    store.put(1, payload_for(1));
    store.put(2, payload_for(2));
  }
  // Flip one payload byte of the first record (directly after the
  // segment magic + record header).
  const std::vector<std::string> paths = segment_paths(dir);
  ASSERT_FALSE(paths.empty());
  {
    std::fstream file(paths.front(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(store::kSegmentHeaderBytes +
                                           store::kRecordHeaderBytes));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(store::kSegmentHeaderBytes +
                                           store::kRecordHeaderBytes));
    file.put(static_cast<char>(byte ^ 0x40));
  }

  ResultStore store(small_store(dir));
  EXPECT_EQ(store.stats().corrupted_skipped, 1);
  EXPECT_EQ(store.stats().recovered_records, 1);
  // Never serve wrong bytes: the damaged key misses...
  EXPECT_FALSE(store.get(1).has_value());
  EXPECT_EQ(store.get(2), payload_for(2));
  // ...and a recompute overwrites it (the new record appends; last
  // write wins on the next recovery).
  store.put(1, payload_for(1));
  store.flush();
  EXPECT_EQ(store.get(1), payload_for(1));
  ResultStore reopened(small_store(dir));
  EXPECT_EQ(reopened.get(1), payload_for(1));
}

TEST(ResultStoreTest, ForeignFileIsResetNotTrusted) {
  const std::string dir = test_dir("foreign");
  {
    std::ofstream out(
        (fs::path(dir) / store::segment_file_name(1)).string(),
        std::ios::binary);
    out << "this is not a segment file at all";
  }
  ResultStore store(small_store(dir));
  EXPECT_EQ(store.stats().recovered_records, 0);
  EXPECT_EQ(store.stats().torn_tail_truncations, 1);
  store.put(1, payload_for(1));
  store.flush();
  ResultStore reopened(small_store(dir));
  EXPECT_EQ(reopened.get(1), payload_for(1));
}

// --- compaction ---

TEST(ResultStoreTest, CompactKeepsLiveDropsColdReclaimsSpace) {
  const std::string dir = test_dir("compact");
  ResultStore store(small_store(dir));
  std::vector<std::uint64_t> live;
  for (std::uint64_t key = 1; key <= 50; ++key) {
    store.put(key, payload_for(key));
    if (key % 2 == 0) live.push_back(key);
  }
  const auto result = store.compact(live);
  EXPECT_EQ(result.kept, 25);
  EXPECT_EQ(result.dropped, 25);
  EXPECT_LT(result.bytes_after, result.bytes_before);
  EXPECT_EQ(store.stats().records, 25);
  for (std::uint64_t key = 1; key <= 50; ++key) {
    EXPECT_EQ(store.get(key).has_value(), key % 2 == 0) << key;
  }
  // The rewrite survives recovery, and dropped keys stay gone.
  ResultStore reopened(small_store(dir));
  EXPECT_EQ(reopened.stats().recovered_records, 25);
  for (const std::uint64_t key : live) {
    EXPECT_EQ(reopened.get(key), payload_for(key)) << key;
  }
  EXPECT_FALSE(reopened.get(1).has_value());
}

// --- cache tiering ---

TEST(ResultStoreTest, EvictedEntryComesBackAsStoreHit) {
  const std::string dir = test_dir("tier");
  ResultStore store(small_store(dir));
  ResultCache cache(/*capacity=*/2, &store);
  cache.put(1, payload_for(1));
  cache.put(2, payload_for(2));
  cache.put(3, payload_for(3));  // evicts 1 from memory, not from disk
  EXPECT_EQ(cache.stats().evictions, 1);

  const auto payload = cache.get(1);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, payload_for(1));
  EXPECT_EQ(cache.stats().store_hits, 1);
  EXPECT_EQ(cache.stats().misses, 0);

  // Unknown keys miss both tiers.
  EXPECT_FALSE(cache.get(99).has_value());
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ResultStoreTest, CapacityZeroCacheStillReadsThroughStore) {
  const std::string dir = test_dir("tier0");
  ResultStore store(small_store(dir));
  ResultCache cache(/*capacity=*/0, &store);
  cache.put(1, payload_for(1));
  EXPECT_EQ(cache.stats().entries, 0u);
  const auto payload = cache.get(1);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, payload_for(1));
  EXPECT_EQ(cache.stats().store_hits, 1);
}

// --- end to end through the service ---

ServiceRequest store_request(std::uint64_t seed) {
  ServiceRequest request;
  request.id = str_format("p%llu", static_cast<unsigned long long>(seed));
  request.recipe.family = "spider";
  request.recipe.nodes = 120;
  request.recipe.depth = 6;
  request.recipe.arms = 5;
  request.recipe.seed = seed;
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = 4;
  return request;
}

ServerOptions store_server_options(const std::string& dir) {
  ServerOptions options;
  options.threads = 2;
  options.queue_capacity = 16;
  options.cache_capacity = 64;
  options.store_dir = dir;
  options.store_segment_bytes = 4096;
  options.store_flush_ms = 5;
  return options;
}

/// Raw response line for one request (byte-identity comparisons).
std::string raw_call(std::uint16_t port, const std::string& line) {
  Socket socket = connect_local(port, /*recv_timeout_ms=*/30000);
  BFDN_CHECK(socket.send_all(line + "\n"), "send failed");
  const auto response = socket.recv_line();
  BFDN_CHECK(response.has_value(), "no response");
  return *response;
}

TEST(ServiceStoreTest, RestartServesByteIdenticalResponseFromStore) {
  const std::string dir = test_dir("service_restart");
  const ServiceRequest request = store_request(7);
  const std::string line = serialize_request(request);
  std::string miss_response;
  {
    ServiceServer server(store_server_options(dir));
    server.start();
    miss_response = raw_call(server.port(), line);
    EXPECT_NE(miss_response.find("\"cached\":false"), std::string::npos);
    server.drain();
  }
  ServiceServer server(store_server_options(dir));
  server.start();
  const std::string hit_response = raw_call(server.port(), line);
  server.drain();

  // The recovered response differs from the miss only in the cached
  // flag; the key and result object are byte-identical.
  const std::string expected = [&] {
    std::string s = miss_response;
    const auto pos = s.find("\"cached\":false");
    BFDN_CHECK(pos != std::string::npos, "no cached flag");
    s.replace(pos, 14, "\"cached\":true");
    return s;
  }();
  EXPECT_EQ(hit_response, expected);
  EXPECT_GE(server.cache_stats().store_hits, 1);
}

TEST(ServiceStoreTest, CorruptedStoreRecomputesAndNeverServesWrongBytes) {
  const std::string dir = test_dir("service_corrupt");
  const ServiceRequest request = store_request(9);
  const std::string line = serialize_request(request);
  std::string miss_response;
  {
    ServiceServer server(store_server_options(dir));
    server.start();
    miss_response = raw_call(server.port(), line);
    server.drain();
  }
  // Corrupt every segment byte after each record header region: flip a
  // byte in the middle of the (single) record's payload.
  const std::vector<std::string> paths = segment_paths(dir);
  ASSERT_EQ(paths.size(), 1u);
  {
    std::fstream file(paths.front(),
                      std::ios::binary | std::ios::in | std::ios::out);
    const std::streamoff off = static_cast<std::streamoff>(
        store::kSegmentHeaderBytes + store::kRecordHeaderBytes + 10);
    file.seekg(off);
    char byte = 0;
    file.get(byte);
    file.seekp(off);
    file.put(static_cast<char>(byte ^ 0x08));
  }

  ServiceServer server(store_server_options(dir));
  server.start();
  const std::string response = raw_call(server.port(), line);
  // Served as a fresh compute (cached:false), with the same result
  // bytes as the original run — never the corrupted record.
  EXPECT_EQ(response, miss_response);
  // The recompute overwrote the record: a third boot serves it again.
  server.drain();
  ServiceServer third(store_server_options(dir));
  third.start();
  const std::string recovered = raw_call(third.port(), line);
  EXPECT_NE(recovered.find("\"cached\":true"), std::string::npos);
  third.drain();
}

TEST(ServiceStoreTest, CampaignColdFillBulkLoadsFromStore) {
  const std::string dir = test_dir("service_campaign");
  ServiceRequest campaign;
  campaign.type = RequestType::kCampaign;
  campaign.id = "c";
  campaign.recipe.family = "spider";
  campaign.recipe.nodes = 90;
  campaign.recipe.depth = 5;
  campaign.recipe.arms = 4;
  campaign.algo.kind = AlgoKind::kBfdn;
  campaign.campaign_ks = {2, 4, 8};
  campaign.campaign_seeds = {11, 22};
  const std::string line = serialize_request(campaign);
  std::string first;
  {
    ServiceServer server(store_server_options(dir));
    server.start();
    first = raw_call(server.port(), line);
    EXPECT_NE(first.find("\"members_total\":6"), std::string::npos);
    server.drain();
  }
  // Cold server, warm store: every member fills from one index pass.
  ServiceServer server(store_server_options(dir));
  server.start();
  const std::string second = raw_call(server.port(), line);
  for (const char* fragment : {"\"members_total\":6"}) {
    EXPECT_NE(second.find(fragment), std::string::npos);
  }
  EXPECT_EQ(second.find("\"cached\":false"), std::string::npos)
      << "some member recomputed despite a warm store";
  const StoreStats stats = server.store()->stats();
  EXPECT_EQ(stats.bulk_lookups, 1);
  EXPECT_EQ(stats.bulk_key_hits, 6);
  server.drain();
}

TEST(ServiceStoreTest, CompactRequestDropsEvictedEntries) {
  const std::string dir = test_dir("service_compact");
  ServerOptions options = store_server_options(dir);
  options.cache_capacity = 4;  // small LRU: early requests evict
  ServiceServer server(options);
  server.start();
  ServiceClient client(server.port());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const JsonValue response = client.run(store_request(seed));
    ASSERT_EQ(response.get_string("status", ""), "ok");
  }
  const JsonValue compacted = client.compact();
  ASSERT_EQ(compacted.get_string("status", ""), "ok");
  const JsonValue& summary = compacted.at("compact");
  EXPECT_EQ(summary.get_int("kept", -1), 4);
  EXPECT_EQ(summary.get_int("dropped", -1), 4);
  server.drain();
}

TEST(ServiceStoreTest, NoStoreServerReportsCompactError) {
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 4;
  ServiceServer server(options);
  server.start();
  ServiceClient client(server.port());
  const JsonValue response = client.compact();
  EXPECT_EQ(response.get_string("status", ""), "error");
  server.drain();
}

}  // namespace
}  // namespace bfdn
