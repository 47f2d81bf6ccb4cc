// Tests for the line-server core (src/service/line_server.h) that the
// shard and the router share, each case run against both daemons: the
// request-line cap (an over-cap line gets one error, then EOF, and the
// daemon keeps serving), malformed members answered with an error, the
// request counters (every response counted once by its envelope
// status), and drain with idle clients connected.
// Plus the envelope-status reader the counters rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "cluster/router.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/json.h"
#include "support/socket.h"

namespace bfdn {
namespace {

ServiceRequest run_request(const std::string& id, std::uint64_t seed) {
  ServiceRequest request;
  request.id = id;
  request.recipe.family = "caterpillar";
  request.recipe.nodes = 300;
  request.recipe.depth = 8;
  request.recipe.arms = 3;
  request.recipe.seed = seed;
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = 4;
  return request;
}

enum class Daemon { kShard, kRouter };

/// One daemon under test: a lone shard, or a router in front of one.
struct Deployment {
  std::unique_ptr<ServiceServer> shard;
  std::unique_ptr<RouterServer> router;

  explicit Deployment(Daemon daemon) {
    ServerOptions shard_options;
    shard_options.threads = 2;
    shard_options.queue_capacity = 16;
    shard_options.cache_capacity = 16;
    shard = std::make_unique<ServiceServer>(shard_options);
    shard->start();
    if (daemon == Daemon::kRouter) {
      RouterOptions router_options;
      router_options.peers = {shard->port()};
      router_options.fanout_threads = 2;
      router = std::make_unique<RouterServer>(router_options);
      router->start();
    }
  }

  std::uint16_t port() const {
    return router != nullptr ? router->port() : shard->port();
  }
  std::string stats_json() const {
    return router != nullptr ? router->stats_json() : shard->stats_json();
  }
  void drain() {
    if (router != nullptr) router->drain();
    shard->drain();
  }
};

/// The "requests" block of a stats document.
JsonValue requests_block(const std::string& stats_json) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(stats_json, doc, &error)) << error;
  return doc.at("requests");
}

void expect_counts_add_up(const JsonValue& requests) {
  EXPECT_EQ(requests.get_int("total", -1),
            requests.get_int("ok", 0) + requests.get_int("retry", 0) +
                requests.get_int("error", 0));
  EXPECT_LE(requests.get_int("protocol_errors", 0),
            requests.get_int("error", 0));
}

std::string status_of(const std::string& response) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(response, doc, &error)) << error << ": "
                                                 << response;
  return doc.get_string("status", "");
}

/// Sends one line on `socket` and reads its response ("" on EOF).
std::string call(Socket& socket, const std::string& line) {
  EXPECT_TRUE(socket.send_all(line + "\n"));
  return socket.recv_line().value_or("");
}

class LineServerTest : public ::testing::TestWithParam<Daemon> {};

TEST_P(LineServerTest, OverCapLineGetsOneErrorThenEof) {
  Deployment deployment(GetParam());

  // Exactly at the cap is a legal line: a stats request padded with
  // JSON whitespace.
  std::string at_cap = "{\"type\":\"stats\"";
  at_cap.append(kMaxRequestLineBytes - at_cap.size() - 1, ' ');
  at_cap += "}";
  ASSERT_EQ(at_cap.size(), kMaxRequestLineBytes);
  Socket legal = connect_local(deployment.port(), 30000);
  EXPECT_EQ(status_of(call(legal, at_cap)), "ok");

  // One byte past the cap, never terminated: the daemon stops reading,
  // answers one error and closes its side.
  Socket hostile = connect_local(deployment.port(), 30000);
  ASSERT_TRUE(hostile.send_all(std::string(kMaxRequestLineBytes + 1, 'x')));
  const auto refused = hostile.recv_line();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(status_of(*refused), "error");
  EXPECT_NE(refused->find("request line exceeds"), std::string::npos);
  EXPECT_FALSE(hostile.recv_line().has_value());

  // Other clients are still served, including the one that sent the
  // at-cap line.
  Socket second = connect_local(deployment.port(), 30000);
  EXPECT_EQ(status_of(call(
                second, serialize_request(run_request("after", 3)))),
            "ok");
  EXPECT_EQ(status_of(call(legal, "{\"type\":\"stats\"}")), "ok");

  const JsonValue requests = requests_block(deployment.stats_json());
  EXPECT_EQ(requests.get_int("protocol_errors", -1), 1);
  EXPECT_EQ(requests.get_int("error", -1), 1);
  expect_counts_add_up(requests);
  deployment.drain();
}

TEST_P(LineServerTest, EveryResponseIsCountedOnceByItsStatus) {
  const bool router = GetParam() == Daemon::kRouter;
  Deployment deployment(GetParam());
  Socket client = connect_local(deployment.port(), 30000);
  const std::string run = serialize_request(run_request("r", 5));

  EXPECT_EQ(status_of(call(client, run)), "ok");  // miss
  EXPECT_EQ(status_of(call(client, run)), "ok");  // hit
  EXPECT_EQ(status_of(call(client, "{\"type\":\"stats\"}")), "ok");
  EXPECT_EQ(status_of(call(client, "{\"type\":")), "error");

  ServiceRequest campaign = run_request("c", 6);
  campaign.type = RequestType::kCampaign;
  campaign.campaign_ks = {2, 4};
  campaign.campaign_seeds = {1, 2};
  EXPECT_EQ(status_of(call(client, serialize_request(campaign))), "ok");

  ServiceRequest shard_query = run_request("s", 5);
  shard_query.type = RequestType::kShard;
  const std::string routing_status = router ? "ok" : "error";
  EXPECT_EQ(status_of(call(client, serialize_request(shard_query))),
            routing_status);
  EXPECT_EQ(status_of(call(client, "{\"type\":\"peer_stats\"}")),
            routing_status);

  Socket hostile = connect_local(deployment.port(), 30000);
  ASSERT_TRUE(hostile.send_all(std::string(kMaxRequestLineBytes + 1, '{')));
  EXPECT_EQ(status_of(hostile.recv_line().value_or("")), "error");

  const JsonValue requests = requests_block(deployment.stats_json());
  EXPECT_EQ(requests.get_int("total", -1), 8);
  EXPECT_EQ(requests.get_int("protocol_errors", -1), 2);
  EXPECT_EQ(requests.get_int("error", -1), router ? 2 : 4);
  expect_counts_add_up(requests);
  // Behind a router, the shard's own counters (forwarded runs and
  // members, the peer_stats probe) obey the same invariant.
  expect_counts_add_up(requests_block(deployment.shard->stats_json()));
  deployment.drain();
}

TEST_P(LineServerTest, WrongTypedIdOrTypeIsAnErrorNotACrash) {
  Deployment deployment(GetParam());
  Socket client = connect_local(deployment.port(), 30000);
  for (const char* line : {"{\"id\":5}", "{\"type\":null}",
                           "{\"id\":[],\"type\":\"stats\"}"}) {
    const std::string response = call(client, line);
    EXPECT_EQ(status_of(response), "error") << line;
    EXPECT_NE(response.find("not a string"), std::string::npos) << response;
  }
  EXPECT_EQ(status_of(call(client, "{\"type\":\"stats\"}")), "ok");
  const JsonValue requests = requests_block(deployment.stats_json());
  EXPECT_EQ(requests.get_int("protocol_errors", -1), 3);
  expect_counts_add_up(requests);
  deployment.drain();
}

TEST_P(LineServerTest, DrainReleasesIdleClients) {
  Deployment deployment(GetParam());
  // A client stalled mid-line. It connects first, so it has been
  // accepted once the second client's request is answered.
  Socket stalled = connect_local(deployment.port(), 30000);
  ASSERT_TRUE(stalled.send_all("{\"type\":"));
  Socket served = connect_local(deployment.port(), 30000);
  EXPECT_EQ(status_of(call(served, "{\"type\":\"stats\"}")), "ok");

  // Both clients stay connected and idle; drain must not wait on them,
  // and each then reads EOF.
  deployment.drain();
  EXPECT_FALSE(served.recv_line().has_value());
  EXPECT_FALSE(stalled.recv_line().has_value());
  deployment.drain();  // idempotent
  expect_counts_add_up(requests_block(deployment.stats_json()));
}

INSTANTIATE_TEST_SUITE_P(
    Daemons, LineServerTest,
    ::testing::Values(Daemon::kShard, Daemon::kRouter),
    [](const ::testing::TestParamInfo<Daemon>& param) {
      return std::string(param.param == Daemon::kShard ? "Shard" : "Router");
    });

TEST(LineServerLimitsTest, WidestLegalRequestFitsTheCapWithMargin) {
  constexpr std::uint64_t kWidest = std::numeric_limits<std::uint64_t>::max();
  ServiceRequest widest = run_request("", kWidest);
  widest.type = RequestType::kCampaign;
  // The largest fixed-depth tree parse_request admits; fixed-depth
  // ignores arms, so any int32 is legal there.
  widest.recipe.family = "fixed-depth";
  widest.recipe.nodes = kMaxTreeNodes;
  widest.recipe.depth = static_cast<std::int32_t>(kMaxTreeNodes - 1);
  widest.recipe.arms = std::numeric_limits<std::int32_t>::max();
  widest.algo.options.shortcut_reanchor = true;
  widest.algo.options.depth_cap = std::numeric_limits<std::int32_t>::max();
  widest.async.kind = AsyncKind::kFixedRate;
  widest.async.seed = kWidest;
  widest.async.max_delay = kMaxAsyncGap;
  widest.async.period = kMaxAsyncGap;
  widest.async.num_slow = std::numeric_limits<std::int32_t>::max();
  widest.max_rounds = std::numeric_limits<std::int64_t>::max();
  widest.fast_forward = false;
  widest.check_invariants = true;
  widest.campaign_ks = {65536};
  widest.campaign_seeds.assign(kMaxCampaignMembers, kWidest);
  const std::string line = serialize_request(widest);

  ServiceRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(line, parsed, &error)) << error;
  // The margin kMaxRequestLineBytes states.
  EXPECT_LE(line.size() * 32, kMaxRequestLineBytes) << line.size();
}

TEST(ResponseStatusTest, ReadsTheEnvelopeNotThePayload) {
  EXPECT_EQ(response_status(ok_response("a", false, 1, "{\"x\":1}")),
            ResponseStatus::kOk);
  EXPECT_EQ(response_status(retry_response("a", 20, 3)),
            ResponseStatus::kRetry);
  EXPECT_EQ(response_status(error_response("", "bad")),
            ResponseStatus::kError);
  EXPECT_EQ(response_status(stats_response("a", "{\"status\":\"retry\"}")),
            ResponseStatus::kOk);
  // An id cannot impersonate the envelope: its quotes are escaped.
  EXPECT_EQ(response_status(error_response("\"status\":\"ok\"", "bad")),
            ResponseStatus::kError);
  EXPECT_EQ(response_status("not a response"), ResponseStatus::kError);
}

}  // namespace
}  // namespace bfdn
