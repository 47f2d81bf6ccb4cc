#include "plan.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "support/check.h"
#include "support/rng.h"
#include "support/strings.h"

namespace bfdn::bench {
namespace {

// Request streams: each kind of draw has its own, so changing how many
// draws one part of a plan takes never shifts another part.
constexpr std::uint64_t kVocabStream = 1;
constexpr std::uint64_t kFreshStream = 2;
constexpr std::uint64_t kChoiceStream = 3;
constexpr std::uint64_t kRankStream = 4;
constexpr std::uint64_t kWarmupStream = 5;
constexpr std::uint64_t kArrivalStream = 6;
constexpr std::uint64_t kAlgoSeedStream = 7;
constexpr std::uint64_t kWarmupChoiceStream = 8;
constexpr std::uint64_t kWarmupRankStream = 9;

constexpr std::int32_t kCampaignSeeds = 8;

std::uint64_t hash3(std::uint64_t seed, std::uint64_t stream,
                    std::int64_t index) {
  std::uint64_t state = seed;
  state = splitmix64(state) ^ stream;
  state = splitmix64(state) ^ static_cast<std::uint64_t>(index);
  return splitmix64(state);
}

/// Deterministic uniform draw in [0, 1) for (seed, stream, index).
double unit_draw(std::uint64_t seed, std::uint64_t stream,
                 std::int64_t index) {
  return static_cast<double>(hash3(seed, stream, index) >> 11) * 0x1.0p-53;
}

std::int64_t scaled(std::int64_t value, double scale, std::int64_t floor) {
  return std::max<std::int64_t>(
      floor, static_cast<std::int64_t>(std::llround(
                 static_cast<double>(value) * scale)));
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    // Small-tree mixes put the two families whose trees ignore the
    // recipe seed on the hottest ranks, so the served work per draw
    // stays the same from seed to seed.
    const std::vector<std::string> mix = {"caterpillar", "spider",
                                          "fixed-depth", "random"};
    std::vector<WorkloadSpec> list;

    WorkloadSpec hit;
    hit.name = "hit-storm";
    hit.topology = {1, 2, 1024, false, false, false};
    hit.slo_ms = 1.0;
    hit.expect = CacheExpect::kAllHits;
    hit.families = mix;
    hit.vocabulary = 64;
    hit.zipf_s = 1.1;
    hit.warmup = 10000;
    list.push_back(hit);

    WorkloadSpec miss;
    miss.name = "miss-deep";
    miss.topology = {1, 2, 4096, false, false, false};
    // A recipe's pair goes out on one connection, one after the other:
    // two same-recipe runs that reach the scheduler together are batched
    // into one pass, which would move the engine off its solo path
    // depending on arrival timing (campaign-sweep covers the batch path).
    miss.chunk = 2;
    miss.slo_ms = 100.0;
    miss.expect = CacheExpect::kAllMisses;
    miss.nodes = 3000;
    // Deep trees, where the engine's walk loops dominate.
    miss.families = {"caterpillar", "spider", "caterpillar", "fixed-depth"};
    miss.k_low = 16;
    miss.k_high = 64;
    list.push_back(miss);

    WorkloadSpec campaign;
    campaign.name = "campaign-sweep";
    // The cache fills within the first second and then evicts, so the
    // daemon's peak RSS stops growing with the number of campaigns a run
    // gets through (which would make it follow throughput).
    campaign.topology = {1, 2, 4096, false, false, false};
    campaign.slo_ms = 100.0;
    campaign.expect = CacheExpect::kAllMisses;
    campaign.nodes = 700;
    campaign.families = {"spider", "fixed-depth", "random"};
    campaign.k_low = 16;
    campaign.k_high = 64;
    campaign.campaigns = true;
    list.push_back(campaign);

    WorkloadSpec fleet;
    fleet.name = "fleet-zipf";
    // Per-shard cache below the vocabulary on purpose: evicted keys come
    // back from the store, so this workload is capacity-bound.
    fleet.topology = {2, 1, 64, true, true, true};
    fleet.connections = 4;
    fleet.rate_rps = 4000;
    fleet.slo_ms = 20.0;
    fleet.families = mix;
    fleet.vocabulary = 1024;
    fleet.zipf_s = 0.9;
    fleet.fresh_share = 0.15;
    // Fresh keys are the writes beside the reads. At the vocabulary's
    // n=2000 their engine runs (1-5 ms on one shard thread) made the
    // whole p99, and it swung 20% from run to run with machine speed.
    fleet.fresh_nodes = 250;
    fleet.warmup = 1000;
    list.push_back(fleet);
    return list;
  }();
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Plan::Plan(const WorkloadSpec& spec, std::uint64_t seed, double scale)
    : spec_(spec), seed_(seed), scale_(scale) {
  const std::int64_t size =
      spec_.vocabulary > 0 ? scaled(spec_.vocabulary, scale_, 8) : 0;
  for (std::int64_t v = 0; v < size; ++v) {
    ServiceRequest run = request(kVocabStream, v);
    run.id = str_format("v%lld", static_cast<long long>(v));
    vocab_keys_.push_back(request_fingerprint(run));
    vocab_lines_.push_back(serialize_request(run));
    vocab_.push_back(std::move(run));
  }
  BFDN_REQUIRE(std::unordered_set<std::uint64_t>(vocab_keys_.begin(),
                                                 vocab_keys_.end())
                       .size() == vocab_keys_.size(),
               "vocabulary fingerprints collide");
  double total = 0;
  for (std::int64_t r = 0; r < size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec_.zipf_s);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

ServiceRequest Plan::request(std::uint64_t stream, std::int64_t index) const {
  const auto family = [this](std::int64_t i) {
    return spec_.families[static_cast<std::size_t>(i) %
                          spec_.families.size()];
  };
  ServiceRequest request;
  request.algo.kind = AlgoKind::kBfdn;
  const bool outside_vocabulary =
      stream != kVocabStream && spec_.fresh_nodes > 0;
  request.recipe.nodes = scaled(
      outside_vocabulary ? spec_.fresh_nodes : spec_.nodes, scale_, 200);
  if (spec_.campaigns) {
    request.type = RequestType::kCampaign;
    request.recipe.family = family(index);
    request.recipe.depth = 40;
    request.recipe.arms = 8;
    request.recipe.seed = hash3(seed_, stream, index) >> 16;
    // Least-loaded members ignore their algorithm seed and coalesce into
    // one execution per k; random-policy members all execute. Five cheap
    // campaigns to three costly ones keep the median inside one mode of
    // the latency distribution instead of in the gap between the two.
    constexpr bool kRandomPolicy[8] = {false, false, true,  false,
                                       false, true,  false, true};
    request.algo.options.policy = kRandomPolicy[index % 8]
                                      ? ReanchorPolicy::kRandom
                                      : ReanchorPolicy::kLeastLoaded;
    request.campaign_ks = {spec_.k_low, spec_.k_high};
    for (std::int32_t j = 0; j < kCampaignSeeds; ++j) {
      request.campaign_seeds.push_back(
          hash3(seed_, kAlgoSeedStream, index * kCampaignSeeds + j) %
          1000000);
    }
    return request;
  }
  // Consecutive pairs share a recipe (same tree, different k): distinct
  // fingerprints for the cache, one shape for the scheduler's batcher.
  const std::int64_t pair = index / 2;
  request.recipe.family = family(pair);
  request.recipe.depth = static_cast<std::int32_t>(
      std::clamp<std::int64_t>(request.recipe.nodes / 16, 4, 40));
  request.recipe.arms = request.recipe.family == "spider" ? 8 : 3;
  request.recipe.seed = hash3(seed_, stream, pair) >> 16;
  request.algo.k = index % 2 == 0 ? spec_.k_low : spec_.k_high;
  // One request in four runs on per-robot clocks, spread over both k.
  if ((index + index / 8) % 4 == 3) {
    request.async.kind = AsyncKind::kFixedRate;
    request.async.period = 2;
    request.async.num_slow = 2;
  }
  return request;
}

Item Plan::pick(std::uint64_t choice_stream, std::uint64_t rank_stream,
                std::int64_t index) const {
  Item item;
  if (vocab_.empty() ||
      unit_draw(seed_, choice_stream, index) < spec_.fresh_share) {
    item.fresh = index;
    return item;
  }
  const double u = unit_draw(seed_, rank_stream, index);
  const auto rank = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
                    zipf_cdf_.begin();
  item.vocab = static_cast<std::int32_t>(std::min<std::ptrdiff_t>(
      rank, static_cast<std::ptrdiff_t>(vocab_.size()) - 1));
  return item;
}

Item Plan::item(std::int64_t index) const {
  return pick(kChoiceStream, kRankStream, index);
}

ServiceRequest Plan::fresh(std::int64_t index) const {
  return request(kFreshStream, index);
}

std::string Plan::line(const Item& item) const {
  if (item.vocab >= 0) {
    return vocab_lines_[static_cast<std::size_t>(item.vocab)];
  }
  ServiceRequest run = fresh(item.fresh);
  run.id = str_format("f%lld", static_cast<long long>(item.fresh));
  return serialize_request(run);
}

std::vector<std::string> Plan::warmup_lines() const {
  std::vector<std::string> lines;
  const std::int64_t count = scaled(spec_.warmup, scale_, 2);
  for (std::int64_t j = 0; j < count; ++j) {
    const Item item = pick(kWarmupChoiceStream, kWarmupRankStream, j);
    if (item.vocab >= 0) {
      lines.push_back(vocab_lines_[static_cast<std::size_t>(item.vocab)]);
      continue;
    }
    ServiceRequest run = request(kWarmupStream, j);
    run.id = str_format("w%lld", static_cast<long long>(j));
    lines.push_back(serialize_request(run));
  }
  return lines;
}

std::vector<double> Plan::due_times(double seconds) const {
  std::vector<double> due;
  if (spec_.rate_rps <= 0) return due;
  const double rate = std::max(100.0, spec_.rate_rps * scale_);
  const auto count = static_cast<std::int64_t>(std::ceil(rate * seconds));
  double t = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    due.push_back(t);
    t += -std::log1p(-unit_draw(seed_, kArrivalStream, i)) / rate;
  }
  return due;
}

}  // namespace bfdn::bench
