#include "report.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "support/check.h"
#include "support/json.h"
#include "support/stats.h"
#include "support/strings.h"

namespace bfdn::bench {

const char* better_name(Better better) {
  return better == Better::kLower ? "lower" : "higher";
}

const std::vector<LayerTiming>& layer_timings() {
  static const std::vector<LayerTiming> kTimings = {
      {"socket.rtt", "us"},        {"protocol.parse", "us"},
      {"protocol.fingerprint", "us"}, {"protocol.envelope", "us"},
      {"protocol.serialize", "us"}, {"cache.get", "us"},
      {"cache.get_many", "us"},    {"cache.put", "us"},
      {"store.get", "us"},         {"store.put", "us"},
      {"store.flush", "ms"},       {"store.boot", "ms"},
      {"scheduler.queue_wait", "ms"}, {"graph.build", "ms"},
      {"sim.run", "ms"},           {"sim.batch_run", "ms"},
      {"cluster.ring", "us"},      {"cluster.hop", "us"},
  };
  return kTimings;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"throughput_rps", "req/s", Better::kHigher},
      {"latency_p50_ms", "ms", Better::kLower},
      {"latency_p99_ms", "ms", Better::kLower},
      {"rounds_per_s", "rounds/s", Better::kHigher},
      {"slo_attainment", "fraction", Better::kHigher},
      {"cpu_us_per_req", "us", Better::kLower},
      {"ok_ratio", "fraction", Better::kHigher},
      {"setup_s", "s", Better::kLower},
      {"peak_rss_mb", "MiB", Better::kLower},
  };
  return kMetrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> list;
    for (const LayerTiming& t : layer_timings()) {
      const std::string base = std::string(t.span) + "_" + t.unit;
      list.push_back({base + ".p50", t.unit, Better::kLower});
      list.push_back({base + ".p99", t.unit, Better::kLower});
      list.push_back({base + ".count", "count", Better::kHigher});
      list.push_back({base + ".busy_s", "s", Better::kLower});
    }
    const std::vector<MetricDef> scalars = {
        {"sim.rounds_per_s", "rounds/s", Better::kHigher},
        {"sim.activations_per_s", "1/s", Better::kHigher},
        {"sim.batch_coalesced_ratio", "ratio", Better::kHigher},
        {"scheduler.tree_share_ratio", "ratio", Better::kHigher},
        {"scheduler.retry_ratio", "ratio", Better::kLower},
        {"store.hit_ratio", "ratio", Better::kHigher},
        {"cache.hit_ratio", "ratio", Better::kHigher},
        {"cache.evictions", "count", Better::kLower},
        {"cluster.balance", "ratio", Better::kLower},
        {"loadgen.late_p99_ms", "ms", Better::kLower},
        {"loadgen.backlog_growth", "ms", Better::kLower},
        {"trace.overhead_ratio", "ratio", Better::kLower},
        {"trace.coverage", "ratio", Better::kHigher},
    };
    list.insert(list.end(), scalars.begin(), scalars.end());
    for (const char* layer :
         {"protocol", "cache", "store", "graph", "sim", "cluster"}) {
      list.push_back(
          {std::string(layer) + ".self_share", "ratio", Better::kLower});
    }
    return list;
  }();
  return kMetrics;
}

double supported_quantile(std::size_t samples, double want) {
  if (samples < 20) return 0.5;
  return std::min(want, 1.0 - 10.0 / static_cast<double>(samples));
}

double tail(const std::vector<double>& sample, double want) {
  if (sample.empty()) return 0;
  return percentile(sample, supported_quantile(sample.size(), want));
}

Quartiles quartiles(std::vector<double> values) {
  BFDN_REQUIRE(!values.empty(), "quartiles of an empty sample");
  std::sort(values.begin(), values.end());
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive": m = n + 1 and cut i of 4
  // interpolates between data[j - 1] and data[j], j = i*m // 4 clamped
  // to [1, n - 1].
  const std::int64_t m = n + 1;
  double cut[3];
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double spread_bound(const Quartiles& q) {
  const double spread =
      q.median != 0 ? (q.q3 - q.q1) / std::abs(q.median) : 0.0;
  return std::max(0.03, 2 * spread);
}

std::string compare_verdict(const Summary& base, const Summary& change,
                            Better better, double bound) {
  const Quartiles& a = base.quartiles;
  const Quartiles& b = change.quartiles;
  const auto relative = [](double x, double median) {
    return median != 0 ? x / std::abs(median) : x;
  };
  const double sign = better == Better::kLower ? 1.0 : -1.0;
  const double worse = sign * relative(b.median - a.median, a.median);
  const double base_spread = relative(a.q3 - a.q1, a.median);
  const double spread =
      std::max(base_spread, relative(b.q3 - b.q1, b.median));
  // With a spread wider than the bound only a full separation of the
  // runs decides: every changed run better than every base run, or
  // every one worse by more than the bound.
  bool all_better = !base.values.empty() && !change.values.empty();
  bool all_worse = all_better;
  for (const double x : change.values) {
    for (const double y : base.values) {
      if (sign * (x - y) >= 0) all_better = false;
      if (sign * relative(x - y, y) <= bound) all_worse = false;
    }
  }
  if (spread > bound) {
    if (all_better) return "improved";
    return all_worse ? "regressed" : "unresolved";
  }
  if (worse > bound) return "regressed";
  if (-worse > base_spread && -worse > 0) return "improved";
  return "within bound";
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

Provenance collect_provenance(const std::string& commit,
                              const std::string& source_digest,
                              std::uint64_t seed) {
  Provenance p;
  p.commit = commit;
  p.source_digest = source_digest;
  p.compiler = BFDN_BENCH_COMPILER;
  p.build_type = BFDN_BENCH_BUILD_TYPE;
  p.flags = BFDN_BENCH_FLAGS;
  p.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  p.seed = seed;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      p.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  return p;
}

std::string provenance_json(const Provenance& p) {
  JsonWriter w;
  w.begin_object();
  w.kv("commit", p.commit);
  w.kv("source_digest", p.source_digest);
  w.kv("compiler", p.compiler);
  w.kv("build_type", p.build_type);
  w.kv("flags", p.flags);
  w.kv("cpu_model", p.cpu_model);
  w.kv("nproc", p.nproc);
  w.kv("seed", p.seed);
  w.end_object();
  return w.str();
}

std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics) {
  std::string out = str_format(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += json_quote(metrics[i].name) + ":{\"value\":" +
           format_number(metrics[i].value) +
           ",\"unit\":" + json_quote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::string ledger_json(const Provenance& provenance, std::int64_t repeat,
                        double seconds,
                        const std::vector<WorkloadLedger>& ledgers) {
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.key("provenance").raw(provenance_json(provenance));
  w.kv("repeat", repeat);
  w.key("seconds").raw(format_number(seconds));
  w.key("workloads").begin_object();
  for (const WorkloadLedger& ledger : ledgers) {
    w.key(ledger.workload).begin_object();
    w.kv("correct", ledger.correct);
    w.key("metrics").begin_object();
    if (!ledger.runs.empty()) {
      for (std::size_t m = 0; m < ledger.runs.front().size(); ++m) {
        std::vector<double> values;
        for (const MetricSet& run : ledger.runs) values.push_back(run[m].value);
        const Quartiles q = quartiles(values);
        w.key(ledger.runs.front()[m].name).begin_object();
        w.kv("unit", ledger.runs.front()[m].unit);
        w.key("median").raw(format_number(q.median));
        w.key("q1").raw(format_number(q.q1));
        w.key("q3").raw(format_number(q.q3));
        w.key("spread_bound").raw(format_number(spread_bound(q)));
        w.kv("n", static_cast<std::int64_t>(values.size()));
        w.key("values").begin_array();
        for (const double v : values) w.raw(format_number(v));
        w.end_array();
        w.end_object();
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  BFDN_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

namespace {

JsonValue parse_file(const std::string& path) {
  JsonValue doc;
  std::string error;
  BFDN_REQUIRE(json_parse(read_file(path), doc, &error),
               path + ": " + error);
  return doc;
}

Summary summary_of(const JsonValue& metric) {
  Summary s;
  s.quartiles = {metric.at("q1").as_double(), metric.at("median").as_double(),
                 metric.at("q3").as_double()};
  if (metric.has("values")) {
    const JsonValue& values = metric.at("values");
    for (std::size_t i = 0; i < values.size(); ++i) {
      s.values.push_back(values.at(i).as_double());
    }
  }
  return s;
}

/// False, with a line saying which, when the ledger or any of its
/// workloads recorded a wrong result.
bool ledger_correct(const char* label, const JsonValue& ledger) {
  bool correct = true;
  for (const auto& [workload, entry] : ledger.at("workloads").members()) {
    if (!entry.get_bool("correct", false)) {
      std::printf("FAIL %s ledger: %s served wrong results\n", label,
                  workload.c_str());
      correct = false;
    }
  }
  return correct;
}

}  // namespace

bool compare_ledgers(const std::string& base_path,
                     const std::string& change_path,
                     const std::string& benchmark_json) {
  const JsonValue base = parse_file(base_path);
  const JsonValue change = parse_file(change_path);
  for (const auto& [label, doc, path] :
       {std::tuple{"base", &base, &base_path},
        std::tuple{"change", &change, &change_path}}) {
    const JsonValue& provenance = doc->at("provenance");
    std::printf("%-6s  %s  commit=%s digest=%s %s %s\n", label,
                path->c_str(),
                provenance.get_string("commit", "?").c_str(),
                provenance.get_string("source_digest", "?").c_str(),
                provenance.get_string("compiler", "?").c_str(),
                provenance.get_string("build_type", "?").c_str());
  }
  return compare_documents(base, change, parse_file(benchmark_json));
}

bool compare_documents(const JsonValue& base, const JsonValue& change,
                       const JsonValue& spec) {
  std::map<std::string, std::pair<Better, double>> bounds;
  const JsonValue& e2e = spec.at("end_to_end");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const JsonValue& m = e2e.at(i);
    bounds[m.at("name").as_string()] = {
        m.at("better").as_string() == better_name(Better::kHigher)
            ? Better::kHigher
            : Better::kLower,
        m.at("bound").as_double()};
  }
  std::printf("%-15s %-16s %-9s %14s %9s %14s %9s %8s %6s  %s\n", "workload",
              "metric", "unit", "base median", "IQR", "change median", "IQR",
              "delta", "bound", "verdict");
  bool regressed = false;
  const JsonValue& base_workloads = base.at("workloads");
  const JsonValue& change_workloads = change.at("workloads");
  for (const auto& [workload, entry] : base_workloads.members()) {
    if (!change_workloads.has(workload)) continue;
    const JsonValue& changed = change_workloads.at(workload).at("metrics");
    for (const auto& [name, metric] : entry.at("metrics").members()) {
      if (!changed.has(name)) continue;
      const Summary a = summary_of(metric);
      const Summary b = summary_of(changed.at(name));
      std::string verdict = "no bound";
      double bound = 0;
      const auto declared = bounds.find(name);
      if (declared != bounds.end()) {
        // What the base's own runs resolve on this workload, never
        // looser than the declared bound.
        bound = std::min(declared->second.second, spread_bound(a.quartiles));
        verdict = compare_verdict(a, b, declared->second.first, bound);
      }
      regressed = regressed || verdict == "regressed";
      const double delta =
          a.quartiles.median != 0
              ? (b.quartiles.median - a.quartiles.median) /
                    std::abs(a.quartiles.median)
              : 0;
      std::printf(
          "%-15s %-16s %-9s %14.6g %9.3g %14.6g %9.3g %+7.2f%% %5.1f%%  %s\n",
          workload.c_str(), name.c_str(),
          metric.get_string("unit", "").c_str(), a.quartiles.median,
          a.quartiles.q3 - a.quartiles.q1, b.quartiles.median,
          b.quartiles.q3 - b.quartiles.q1, 100.0 * delta, 100.0 * bound,
          verdict.c_str());
    }
  }
  const bool base_correct = ledger_correct("base", base);
  const bool change_correct = ledger_correct("change", change);
  return base_correct && change_correct && !regressed;
}

}  // namespace bfdn::bench
