// Workload definitions of the served-system benchmark: fleet topology,
// load shape, and the request plan each workload sends.
//
// Every request is a pure function of (--seed, stream, index): the
// vocabulary filled during set-up, the measured items, the warm-up and
// the open-loop arrival gaps. Servers only ever see the generated
// request lines, and two runs with one seed send identical bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"

namespace bfdn::bench {

struct Topology {
  std::int32_t shards = 1;
  std::int32_t threads = 2;     // --threads of every shard (never 0)
  std::int32_t cache = 1024;    // --cache of every shard
  bool store = false;           // --store-dir per shard, fdatasync on
  bool router = false;          // bfdn_route in front of the shards
  bool restart_after_fill = false;  // boot recovery during set-up
};

/// What the measured phase must observe from the cache, checked on
/// every response.
enum class CacheExpect : std::uint8_t { kAllHits, kAllMisses, kAny };

/// The reason each workload exists lives beside its name in
/// BENCHMARK.json and benchmark/README.md.
struct WorkloadSpec {
  std::string name;
  Topology topology;
  std::int32_t connections = 2;
  /// Consecutive measured items one connection sends back to back.
  std::int32_t chunk = 1;
  /// 0 = closed loop; otherwise Poisson arrivals at this rate (1/s).
  double rate_rps = 0;
  /// Latency limit behind slo_attainment.
  double slo_ms = 0;
  CacheExpect expect = CacheExpect::kAny;

  /// Every generated request: `nodes`-node trees of `families` (cycled),
  /// algorithm BFDN with k alternating k_low, k_high. A campaign sweeps
  /// both k over its algorithm seeds instead.
  std::int64_t nodes = 2000;
  /// Tree size of every request outside the vocabulary (measured and
  /// warm-up); 0 = `nodes`.
  std::int64_t fresh_nodes = 0;
  std::vector<std::string> families;
  std::int32_t k_low = 8;
  std::int32_t k_high = 16;
  bool campaigns = false;
  /// Keys filled during set-up and drawn Zipf(zipf_s) when measured; a
  /// fresh_share of measured items are fresh instead. Without a
  /// vocabulary every measured item is fresh.
  std::int64_t vocabulary = 0;
  double zipf_s = 0;
  double fresh_share = 0;
  /// Requests sent at the end of every set-up.
  std::int64_t warmup = 64;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// One measured request: a vocabulary entry (filled in set-up) or a
/// fresh request that no earlier request named.
struct Item {
  std::int32_t vocab = -1;
  std::int64_t fresh = -1;
};

class Plan {
 public:
  /// `scale` < 1 shrinks tree sizes, vocabulary, warm-up and arrival
  /// rate (the smoke pass); 1 is the measured configuration.
  Plan(const WorkloadSpec& spec, std::uint64_t seed, double scale);

  const WorkloadSpec& spec() const { return spec_; }

  const std::vector<ServiceRequest>& vocabulary() const { return vocab_; }
  const std::vector<std::string>& vocabulary_lines() const {
    return vocab_lines_;
  }
  const std::vector<std::uint64_t>& vocabulary_keys() const {
    return vocab_keys_;
  }

  /// Measured item `index`.
  Item item(std::int64_t index) const;
  /// Fresh request `index` of the measured stream (a campaign on
  /// campaign-sweep, a run otherwise).
  ServiceRequest fresh(std::int64_t index) const;
  std::string line(const Item& item) const;

  /// Untimed warm-up lines, sent at the end of every set-up. They name
  /// no key the measured phase uses.
  std::vector<std::string> warmup_lines() const;

  /// Open-loop due times in seconds from the phase start (empty for a
  /// closed loop), sized to cover `seconds`.
  std::vector<double> due_times(double seconds) const;

 private:
  ServiceRequest request(std::uint64_t stream, std::int64_t index) const;
  Item pick(std::uint64_t choice_stream, std::uint64_t rank_stream,
            std::int64_t index) const;

  WorkloadSpec spec_;
  std::uint64_t seed_;
  double scale_;
  std::vector<ServiceRequest> vocab_;
  std::vector<std::string> vocab_lines_;
  std::vector<std::uint64_t> vocab_keys_;
  std::vector<double> zipf_cdf_;
};

}  // namespace bfdn::bench
