// Golden pins of the wire protocol's persisted and client-visible
// forms. The canonical request string is the preimage of the request
// fingerprint, and the fingerprint is the key of every cache entry and
// every store record (docs/SERVICE.md), so neither may change by one
// byte without invalidating stored results. The pins cover every
// algorithm, break-down schedule kind, async kind and reanchor policy,
// plus depth_cap, shortcut, max_rounds, fast_forward/check, uint64-max
// seeds, an id that needs escaping and one campaign's members; they
// also pin the rejection text of malformed lines, that the first of
// duplicate keys wins and that unknown members are ignored.
//
// To regenerate after an intentional format change, run with
// BFDN_GOLDEN_RECORD=1 and paste the printed tables over the pins.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "support/strings.h"

namespace bfdn {
namespace {

bool recording() { return std::getenv("BFDN_GOLDEN_RECORD") != nullptr; }

/// Prints `text` as a C++ string literal.
void print_literal(const std::string& text) {
  std::printf("\"");
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (c == '\n') {
      std::printf("\\n");
    } else {
      std::printf("%c", c);
    }
  }
  std::printf("\"");
}

ServiceRequest parse_or_fail(const std::string& line) {
  ServiceRequest request;
  std::string error;
  EXPECT_TRUE(parse_request(line, request, &error)) << line << ": " << error;
  return request;
}

std::string hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// Errors raised through BFDN_REQUIRE carry a "<kind> failed: <expr> at
/// <file>:<line> — " prefix naming a source location; only the message
/// after it is protocol.
std::string message_of(const std::string& error) {
  static const std::string kSeparator = " — ";
  const std::size_t pos = error.find(kSeparator);
  return pos == std::string::npos ? error
                                  : error.substr(pos + kSeparator.size());
}

struct RunPin {
  const char* line;
  const char* canonical;
  const char* fingerprint;
};

struct MemberPin {
  const char* canonical;
  const char* fingerprint;
};

struct ErrorPin {
  const char* line;
  const char* error;
};

// clang-format off
const RunPin kRunPins[] = {
    {R"({"id":"v0","type":"run","family":"caterpillar","nodes":2000,"depth":40,"arms":3,"seed":96160665213566,"algo":"bfdn","k":8,"policy":"least-loaded","algo_seed":1,"depth_cap":-1,"schedule":"none"})",
     "recipe=caterpillar(nodes=2000,depth=40,arms=3,seed=96160665213566) algo=BFDN(least-loaded)/k8 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "2543bb0c1c01c45e"},
    {R"({"type":"run","family":"comb","nodes":300,"depth":5,"arms":8,"seed":18446744073709551615,"algo":"bfdn-shortcut","k":4,"policy":"random","algo_seed":18446744073709551615})",
     "recipe=comb(nodes=300,depth=5,arms=8,seed=18446744073709551615) algo=BFDN(random+shortcut)/k4 policy=random algo_seed=18446744073709551615 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "2dc2676cfabfa574"},
    {R"({"family":"spider","nodes":500,"algo":"bfdn","policy":"first-fit","depth_cap":3,"k":6})",
     "recipe=spider(nodes=500,depth=12,arms=8,seed=1) algo=BFDN_1(d=3, first-fit)/k6 policy=first-fit algo_seed=1 depth_cap=3 sched=none async=none max_rounds=0 ff=1 check=0",
     "ce98f8ff543e007e"},
    {R"({"family":"binary","algo":"bfdn-shortcut","policy":"most-loaded","depth_cap":0,"k":2})",
     "recipe=binary(nodes=500,depth=12,arms=8,seed=1) algo=BFDN_1(d=0, most-loaded+shortcut)/k2 policy=most-loaded algo_seed=1 depth_cap=0 sched=none async=none max_rounds=0 ff=1 check=0",
     "9c126c778cfab969"},
    {R"({"family":"star","nodes":64,"algo":"cte","k":5,"policy":"random","algo_seed":9})",
     "recipe=star(nodes=64,depth=12,arms=8,seed=1) algo=cte/k5 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "21b5bd9e9cba7bda"},
    {R"({"family":"path","nodes":40,"algo":"bfs-levels","k":3})",
     "recipe=path(nodes=40,depth=12,arms=8,seed=1) algo=bfs-levels/k3 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "4312680aa53222d4"},
    {R"({"family":"broom","algo":"bfdn-ell","ell":4,"k":7})",
     "recipe=broom(nodes=500,depth=12,arms=8,seed=1) algo=bfdn-ell4/k7 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "2115a245a04a8470"},
    {R"({"family":"cte-hard","algo":"ell2","k":7})",
     "recipe=cte-hard(nodes=500,depth=12,arms=8,seed=1) algo=bfdn-ell2/k7 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "22b64248d287b17e"},
    {R"({"family":"fixed-depth","depth":9,"algo":"ell3","k":16})",
     "recipe=fixed-depth(nodes=500,depth=9,arms=8,seed=1) algo=bfdn-ell3/k16 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "ee5fe8a404562977"},
    {R"({"schedule":"full","horizon":10,"k":2})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k2 policy=least-loaded algo_seed=1 depth_cap=-1 sched=full(h=10) async=none max_rounds=0 ff=1 check=0",
     "79e4e90c96fcb44e"},
    {R"({"schedule":"round-robin","horizon":7,"k":3})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k3 policy=least-loaded algo_seed=1 depth_cap=-1 sched=round-robin(h=7) async=none max_rounds=0 ff=1 check=0",
     "35e583227b5f18e5"},
    {R"({"schedule":"random","horizon":12,"p":0.0625,"schedule_seed":18446744073709551615,"k":4})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k4 policy=least-loaded algo_seed=1 depth_cap=-1 sched=random(h=12, p=0.062, seed=18446744073709551615) async=none max_rounds=0 ff=1 check=0",
     "9f0b37229de528d8"},
    {R"({"schedule":"burst","horizon":20,"period":3,"k":4})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k4 policy=least-loaded algo_seed=1 depth_cap=-1 sched=burst(h=20, burst=3) async=none max_rounds=0 ff=1 check=0",
     "9be4332ba02bc864"},
    {R"({"schedule":"rolling-outage","horizon":20,"period":5,"k":4})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k4 policy=least-loaded algo_seed=1 depth_cap=-1 sched=rolling(h=20, period=5) async=none max_rounds=0 ff=1 check=0",
     "375eece5d0257e33"},
    {R"({"async":"round-robin","k":5})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k5 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=round-robin max_rounds=0 ff=1 check=0",
     "bb469410ccc96189"},
    {R"({"async":"fixed-rate","async_period":3,"async_slow":2,"k":5})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k5 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=fixed-rate(period=3, slow=2) max_rounds=0 ff=1 check=0",
     "fee767cd52e0d06f"},
    {R"({"async":"laggard","async_period":4,"async_slow":1,"k":5})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k5 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=laggard(period=4, slow=1) max_rounds=0 ff=1 check=0",
     "b358315a60c98693"},
    {R"({"async":"random","async_seed":18446744073709551615,"async_delay":3,"k":5})",
     "recipe=random(nodes=500,depth=12,arms=8,seed=1) algo=BFDN(least-loaded)/k5 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=random(seed=18446744073709551615, delay=3) max_rounds=0 ff=1 check=0",
     "1462da109c337ab2"},
    {R"({"family":"random","nodes":1000,"seed":18446744073709551615,"max_rounds":500,"fast_forward":false,"check_invariants":true,"k":8})",
     "recipe=random(nodes=1000,depth=12,arms=8,seed=18446744073709551615) algo=BFDN(least-loaded)/k8 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=500 ff=0 check=1",
     "b9408176803ff2d1"},
    {R"({"id":"q\"\\\n\t\u0001é/","type":"shard","family":"comb","nodes":300,"arms":8,"depth":5,"k":4,"seed":9})",
     "recipe=comb(nodes=300,depth=5,arms=8,seed=9) algo=BFDN(least-loaded)/k4 policy=least-loaded algo_seed=1 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "978d3e13cbcae0bf"},
};

const char* const kCampaignLine =
    R"({"type":"campaign","family":"spider","nodes":700,"ks":[16,64],"algo_seeds":[3,18446744073709551615],"policy":"random"})";

const MemberPin kCampaignPins[] = {
    {"recipe=spider(nodes=700,depth=12,arms=8,seed=1) algo=BFDN(random)/k16 policy=random algo_seed=3 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "f211d2787f0369ed"},
    {"recipe=spider(nodes=700,depth=12,arms=8,seed=1) algo=BFDN(random)/k16 policy=random algo_seed=18446744073709551615 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "e1f9fda31566596d"},
    {"recipe=spider(nodes=700,depth=12,arms=8,seed=1) algo=BFDN(random)/k64 policy=random algo_seed=3 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "3aed09f3bf85fc9f"},
    {"recipe=spider(nodes=700,depth=12,arms=8,seed=1) algo=BFDN(random)/k64 policy=random algo_seed=18446744073709551615 depth_cap=-1 sched=none async=none max_rounds=0 ff=1 check=0",
     "86f798363bcf5966"},
};

const ErrorPin kErrorPins[] = {
    {R"()",
     "json parse error at offset 0: unexpected end of input"},
    {R"([])",
     "request must be a JSON object"},
    {R"({"a":})",
     "json parse error at offset 5: bad number"},
    {R"({a:1})",
     "json parse error at offset 1: expected string"},
    {R"({"a":1}x)",
     "json parse error at offset 7: trailing characters"},
    {R"({"a":"\u12g4"})",
     "json parse error at offset 11: bad \\u escape"},
    {R"({"a":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]})",
     "json parse error at offset 68: nesting too deep"},
    {R"({"type":"bogus"})",
     "unknown request type: bogus"},
    {R"({"k":"4"})",
     "JsonValue: not a number"},
    {R"({"k":1e3})",
     "JsonValue: not an int64: 1e3"},
    {R"({"k":0})",
     "k must be in [1, 65536]"},
    {R"({"seed":-1})",
     "JsonValue: negative uint64: -1"},
    {R"({"family":"bogus"})",
     "unknown family: bogus"},
    {R"({"algo":"writeread"})",
     "unknown or non-servable algo: writeread"},
    {R"({"schedule":"full"})",
     "schedule needs horizon >= 1"},
    {R"({"async":"random","schedule":"full","horizon":2})",
     "async is mutually exclusive with schedule"},
    {R"({"family":"binary","depth":5,"k":4,"schedule":"random","horizon":10,"p":7})",
     "p must be in (0, 1]"},
    {R"({"schedule":"random","horizon":10,"p":0})",
     "p must be in (0, 1]"},
    {R"({"schedule":"full","horizon":10,"p":-0.5})",
     "p must be in (0, 1]"},
    {R"({"max_rounds":-5})",
     "max_rounds must be >= 0"},
    {R"({"depth_cap":-7})",
     "depth_cap must be >= -1"},
    {R"({"family":"binary","depth":5,"k":4,"async":"fixed-rate","async_period":9000000000000000000})",
     "async_period must be in [1, 1000000]"},
    {R"({"async":"laggard","async_period":1000001})",
     "async_period must be in [1, 1000000]"},
    {R"({"async":"fixed-rate","async_period":0})",
     "async_period must be in [1, 1000000]"},
    {R"({"async":"random","async_delay":1000001})",
     "async_delay must be in [0, 1000000]"},
    {R"({"async":"random","async_delay":-1})",
     "async_delay must be in [0, 1000000]"},
    {R"({"type":"campaign","ks":[1,2,3,4,5,6,7,8,9],"algo_seeds":[1,2,3,4,5,6,7,8]})",
     "campaign expands to 72 members (max 64)"},
    {R"({"type":"campaign","ks":"x"})",
     "ks must be an array"},
    {R"({"type":"segment_fill","bytes":1})",
     "segment_fill bytes out of range"},
    {R"({"k":4294967297})",
     "JsonValue: not an int32: 4294967297"},
    {R"({"depth":4294967301})",
     "JsonValue: not an int32: 4294967301"},
    {R"({"depth":-4294967295})",
     "JsonValue: not an int32: -4294967295"},
    {R"({"family":"comb","arms":4294967304})",
     "JsonValue: not an int32: 4294967304"},
    {R"({"depth_cap":4294967295})",
     "JsonValue: not an int32: 4294967295"},
    {R"({"algo":"bfdn-ell","ell":4294967298})",
     "JsonValue: not an int32: 4294967298"},
    {R"({"async":"fixed-rate","async_slow":4294967297})",
     "JsonValue: not an int32: 4294967297"},
    {R"({"type":"campaign","ks":[4294967297]})",
     "k must be in [1, 65536]"},
    {R"({"type":"ship_segment","port":4294967376})",
     "JsonValue: not an int32: 4294967376"},
    {R"({"type":"ship_segment","peer":4294967296})",
     "JsonValue: not an int32: 4294967296"},
    {R"({"type":"ship_segment","port":80,"from":4294967296})",
     "JsonValue: not an int32: 4294967296"},
    {R"({"type":"ship_segment","to":4294967297})",
     "JsonValue: not an int32: 4294967297"},
    {R"({"family":"fixed-depth","nodes":5,"depth":40})",
     "fixed-depth needs nodes >= depth + 1"},
    {R"({"family":"fixed-depth","nodes":5,"depth":0})",
     "fixed-depth with depth 0 needs nodes == 1"},
    {R"({"family":"cte-hard","arms":1})",
     "cte-hard needs arms >= 2"},
    {R"({"family":"cte-hard","depth":0})",
     "cte-hard needs depth >= 1"},
    {R"({"family":"binary","depth":60})",
     "tree exceeds 1000000 nodes"},
    {R"({"family":"path","nodes":1000001})",
     "tree exceeds 1000000 nodes"},
    {R"({"family":"comb","arms":1000,"depth":1000})",
     "tree exceeds 1000000 nodes"},
    {R"({"family":"cte-hard","arms":2147483647,"depth":2147483647})",
     "tree exceeds 1000000 nodes"},
};

// clang-format on

TEST(ProtocolGolden, CanonicalFormAndFingerprintArePinned) {
  if (recording()) std::printf("const RunPin kRunPins[] = {\n");
  for (const RunPin& pin : kRunPins) {
    const ServiceRequest request = parse_or_fail(pin.line);
    const std::string canonical = canonical_request(request);
    const std::string fingerprint = hex(request_fingerprint(request));
    if (recording()) {
      std::printf("    {R\"(%s)\",\n     ", pin.line);
      print_literal(canonical);
      std::printf(",\n     \"%s\"},\n", fingerprint.c_str());
      continue;
    }
    EXPECT_EQ(canonical, pin.canonical) << pin.line;
    EXPECT_EQ(fingerprint, pin.fingerprint) << pin.line;
  }
  if (recording()) std::printf("};\n");
}

TEST(ProtocolGolden, CampaignMembersArePinned) {
  const std::vector<ServiceRequest> members =
      expand_campaign(parse_or_fail(kCampaignLine));
  if (recording()) {
    std::printf("const MemberPin kCampaignPins[] = {\n");
    for (const ServiceRequest& member : members) {
      std::printf("    {");
      print_literal(canonical_request(member));
      std::printf(",\n     \"%s\"},\n",
                  hex(request_fingerprint(member)).c_str());
    }
    std::printf("};\n");
    return;
  }
  ASSERT_EQ(members.size(), std::size(kCampaignPins));
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(canonical_request(members[i]), kCampaignPins[i].canonical);
    EXPECT_EQ(hex(request_fingerprint(members[i])),
              kCampaignPins[i].fingerprint);
  }
}

TEST(ProtocolGolden, RejectionTextIsPinned) {
  if (recording()) std::printf("const ErrorPin kErrorPins[] = {\n");
  for (const ErrorPin& pin : kErrorPins) {
    ServiceRequest request;
    std::string error;
    const bool ok = parse_request(pin.line, request, &error);
    if (recording()) {
      std::printf("    {R\"(%s)\",\n     ", pin.line);
      print_literal(message_of(error));
      std::printf("},\n");
      continue;
    }
    EXPECT_FALSE(ok) << pin.line;
    EXPECT_EQ(message_of(error), pin.error) << pin.line;
  }
  if (recording()) std::printf("};\n");
}

TEST(RecipeAdmission, EveryAcceptedRecipeBuildsWithinTheNodeCap) {
  // Whatever parse_request admits, TreeRecipe::build must build: a
  // refusal after admission would cost a queue slot and answer with
  // build-specific text. Over a small grid of every family.
  const std::int64_t node_counts[] = {1, 2, 3, 5, 8, 40};
  const std::int32_t depths[] = {0, 1, 2, 5, 12};
  const std::int32_t arm_counts[] = {1, 2, 3, 8};
  std::int64_t accepted = 0;
  for (const char* family :
       {"random", "path", "star", "binary", "spider", "caterpillar", "comb",
        "broom", "cte-hard", "fixed-depth"}) {
    for (const std::int64_t nodes : node_counts) {
      for (const std::int32_t depth : depths) {
        for (const std::int32_t arms : arm_counts) {
          const std::string line = str_format(
              R"({"family":"%s","nodes":%lld,"depth":%d,"arms":%d})", family,
              static_cast<long long>(nodes), depth, arms);
          ServiceRequest request;
          std::string error;
          if (!parse_request(line, request, &error)) continue;
          ++accepted;
          SCOPED_TRACE(line);
          std::int64_t built = 0;
          EXPECT_NO_THROW(built = request.recipe.build().num_nodes());
          EXPECT_LE(built, kMaxTreeNodes);
        }
      }
    }
  }
  EXPECT_GT(accepted, 900);  // most of the 1200 recipes are buildable
}

TEST(RecipeAdmission, NodeCapIsTheBuiltSize) {
  // The cap counts the nodes the family builds, not the nodes member.
  for (const char* line :
       {R"({"family":"binary","depth":18})",
        R"({"family":"comb","arms":1000,"depth":999})",
        R"({"family":"path","nodes":1000000})",
        R"({"family":"spider","nodes":999999,"arms":3})"}) {
    ServiceRequest request;
    std::string error;
    EXPECT_TRUE(parse_request(line, request, &error)) << line << error;
  }
  for (const char* line :
       {R"({"family":"binary","depth":19})",
        R"({"family":"comb","arms":1001,"depth":999})",
        R"({"family":"spider","nodes":5,"arms":1000000})",
        R"({"family":"caterpillar","nodes":5,"arms":1000000})",
        R"({"family":"broom","nodes":5,"depth":1000000})",
        R"({"family":"cte-hard","arms":65537,"depth":8})"}) {
    ServiceRequest request;
    std::string error;
    EXPECT_FALSE(parse_request(line, request, &error)) << line;
    EXPECT_EQ(error, "tree exceeds 1000000 nodes") << line;
  }
}

TEST(ProtocolGolden, WrongTypedIdOrTypeIsRejected) {
  // Rejected like any other wrong-typed member, not thrown.
  for (const char* line :
       {R"({"id":5})", R"({"type":null})", R"({"id":{},"type":"stats"})"}) {
    ServiceRequest request;
    std::string error;
    EXPECT_FALSE(parse_request(line, request, &error)) << line;
    EXPECT_EQ(error, "JsonValue: not a string") << line;
  }
}

TEST(ProtocolGolden, FirstDuplicateKeyWins) {
  EXPECT_EQ(parse_or_fail(R"({"k":3,"k":5})").algo.k, 3);
  EXPECT_EQ(parse_or_fail(R"({"family":"comb","family":"bogus"})")
                .recipe.family,
            "comb");
  EXPECT_EQ(parse_or_fail(R"({"type":"stats","type":"run"})").type,
            RequestType::kStats);
  ServiceRequest request;
  std::string error;
  EXPECT_FALSE(parse_request(R"({"family":"bogus","family":"comb"})",
                             request, &error));
  EXPECT_EQ(message_of(error), "unknown family: bogus");
}

TEST(ProtocolGolden, UnknownMembersAreIgnored) {
  const std::string plain =
      R"({"type":"run","family":"comb","nodes":300,"k":4})";
  const std::string noisy =
      R"({"zzz":{"a":[1,2,{"b":null}],"c":"A"},"type":"run","other":true,)"
      R"("family":"comb","list":[[],{}],"nodes":300,"nothing":null,"k":4,)"
      R"("num":-1.5e3})";
  EXPECT_EQ(canonical_request(parse_or_fail(noisy)),
            canonical_request(parse_or_fail(plain)));
  EXPECT_EQ(request_fingerprint(parse_or_fail(noisy)),
            request_fingerprint(parse_or_fail(plain)));
  // Member names are compared after unescaping.
  const ServiceRequest escaped =
      parse_or_fail(R"({"\u0069d":"esc","t\u0079pe":"stats"})");
  EXPECT_EQ(escaped.id, "esc");
  EXPECT_EQ(escaped.type, RequestType::kStats);
}

TEST(ProtocolGolden, EnvelopesArePinned) {
  const std::string id = "q\"\\\n\t\x01\xc3\xa9/";
  EXPECT_EQ(ok_response(id, true, 0x0123456789abcdefULL, R"({"r":1})"),
            R"({"id":"q\"\\\n\t\u0001)"
            "\xc3\xa9"
            R"(/","status":"ok","cached":true,"key":"0123456789abcdef","result":{"r":1}})");
  EXPECT_EQ(ok_response("", false, 7, "{}"),
            R"({"id":"","status":"ok","cached":false,"key":"0000000000000007","result":{}})");
  EXPECT_EQ(error_response("e", "bad \"x\""),
            R"({"id":"e","status":"error","error":"bad \"x\""})");
}

}  // namespace
}  // namespace bfdn
