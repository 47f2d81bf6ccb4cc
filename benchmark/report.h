// Metric names, statistics helpers, provenance and the documents the
// benchmark prints: the one-line run result, the repeat ledger and the
// comparison of two ledgers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bfdn {
class JsonValue;
}  // namespace bfdn

namespace bfdn::bench {

enum class Better : std::uint8_t { kLower, kHigher };

struct MetricDef {
  std::string name;
  std::string unit;
  Better better = Better::kLower;
};

/// "lower" or "higher", as BENCHMARK.json spells it.
const char* better_name(Better better);

/// A timed layer call. Its per-layer metrics are `<span>_<unit>.p50`,
/// `.p99`, `.count` and `.busy_s`.
struct LayerTiming {
  const char* span;
  const char* unit;  // "us" or "ms"
};

const std::vector<LayerTiming>& layer_timings();
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};
using MetricSet = std::vector<Metric>;

/// The highest quantile, at most `want`, with at least ten samples
/// beyond it (the median when fewer than twenty samples exist).
double supported_quantile(std::size_t samples, double want);
/// percentile() at supported_quantile(); 0 for an empty sample.
double tail(const std::vector<double>& sample, double want);

/// Quartiles exactly as Python's statistics.quantiles(values, n=4)
/// (the default "exclusive" method); a single value is all three.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles quartiles(std::vector<double> values);

/// The regression bound a set of runs supports on its own, as a share
/// of their median: max(3%, 2 x IQR / median).
double spread_bound(const Quartiles& q);

/// One metric over repeated runs.
struct Summary {
  Quartiles quartiles;
  std::vector<double> values;
};

/// Verdict on `change` against `base` for a metric with regression
/// bound `bound` (a share of the base median). When either side's
/// spread (IQR / median) is wider than the bound, only the raw runs
/// decide: "improved" when every changed run beats every base run,
/// "regressed" when every one is worse than every base run by more than
/// the bound, "unresolved" otherwise. Else "regressed" when the median
/// is worse by more than the bound, "improved" when better by more than
/// the base's own IQR, and "within bound" otherwise.
std::string compare_verdict(const Summary& base, const Summary& change,
                            Better better, double bound);

/// Shortest decimal that reads back as the same double.
std::string format_number(double value);

struct Provenance {
  std::string commit;
  std::string source_digest;
  std::string compiler;
  std::string build_type;
  std::string flags;
  std::string cpu_model;
  std::int64_t nproc = 0;
  std::uint64_t seed = 0;
};
Provenance collect_provenance(const std::string& commit,
                              const std::string& source_digest,
                              std::uint64_t seed);
std::string provenance_json(const Provenance& provenance);

/// The last line of a single run:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics);

/// One workload's metrics over every repetition.
struct WorkloadLedger {
  std::string workload;
  std::vector<MetricSet> runs;
  bool correct = true;
};
/// The --repeat document: provenance plus, per workload and metric,
/// median, q1, q3, spread_bound, n and the raw values.
std::string ledger_json(const Provenance& provenance, std::int64_t repeat,
                        double seconds,
                        const std::vector<WorkloadLedger>& ledgers);

/// Prints the comparison table of two ledger files. A metric's bound on
/// a workload is the base ledger's spread_bound, capped by the metric's
/// bound in BENCHMARK.json. Returns false when any metric regressed or
/// either ledger recorded a wrong result.
bool compare_ledgers(const std::string& base_path,
                     const std::string& change_path,
                     const std::string& benchmark_json);
/// compare_ledgers on parsed documents: two ledgers and BENCHMARK.json.
bool compare_documents(const JsonValue& base, const JsonValue& change,
                       const JsonValue& spec);

/// Reads a whole file; throws CheckError when it cannot.
std::string read_file(const std::string& path);

}  // namespace bfdn::bench
