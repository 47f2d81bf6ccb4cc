// bfdn_bench — the served-system benchmark (see README.md).
//
//   bfdn_bench --workload hit-storm --seed 3 --seconds 10 --trace 0
//       one measured run; the last stdout line is the result object
//   bfdn_bench --workload fleet-zipf --trace 1       per-layer metrics
//   bfdn_bench --repeat=5 --out=ledger.json          every workload, 5x
//   bfdn_bench --compare=base.json,change.json       verdict per metric
//   bfdn_bench --list | --self-test | --smoke
//
// It is normally started through run.sh, which builds it and passes
// --bin-dir, --work-dir, --benchmark-json and the provenance flags.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>

#include "layers.h"
#include "live.h"
#include "support/check.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/strings.h"

namespace bfdn::bench {
namespace {

struct Settings {
  RunOptions options;
  Provenance provenance;
  std::string trace_dir;  // empty = measured runs
  std::string benchmark_json;
};

void print_notes(const RunOutcome& outcome) {
  for (const std::string& note : outcome.notes) {
    std::printf("#   %s\n", note.c_str());
  }
}

void print_metrics(const MetricSet& metrics) {
  for (const Metric& m : metrics) {
    std::printf("#   %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

RunOutcome run_one(const WorkloadSpec& spec, const Settings& settings) {
  std::printf("# %s: seed %llu, %.3g s, %s\n", spec.name.c_str(),
              static_cast<unsigned long long>(settings.options.seed),
              settings.options.seconds,
              settings.trace_dir.empty() ? "measured, tracing off"
                                         : "traced replay");
  std::fflush(stdout);
  RunOutcome outcome =
      settings.trace_dir.empty()
          ? run_live(spec, settings.options)
          : run_traced(spec, settings.options, settings.trace_dir);
  print_notes(outcome);
  print_metrics(outcome.metrics);
  std::fflush(stdout);
  return outcome;
}

/// Every workload `repeat` times, rotating the order each repetition and
/// moving the seed on by one, then a ledger of medians and quartiles.
int run_ledger(const std::vector<const WorkloadSpec*>& selected,
               std::int64_t repeat, const std::string& out_path,
               Settings settings) {
  std::vector<WorkloadLedger> ledgers;
  for (const WorkloadSpec* spec : selected) {
    ledgers.push_back({spec->name, {}, true});
  }
  const std::uint64_t base_seed = settings.options.seed;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (std::int64_t rep = 0; rep < repeat; ++rep) {
    settings.options.seed = base_seed + static_cast<std::uint64_t>(rep);
    for (std::size_t k = 0; k < selected.size(); ++k) {
      const std::size_t w = (k + static_cast<std::size_t>(rep)) % selected.size();
      const RunOutcome outcome = run_one(*selected[w], settings);
      ledgers[w].runs.push_back(outcome.metrics);
      ledgers[w].correct = ledgers[w].correct && outcome.correct;
      attempted += outcome.attempted;
      failed += outcome.failed;
    }
  }
  const std::string doc =
      ledger_json(settings.provenance, repeat, settings.options.seconds,
                  ledgers);
  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  std::ofstream(out_path) << doc << "\n";

  std::printf("# ledger (%lld repetitions) -> %s\n",
              static_cast<long long>(repeat), out_path.c_str());
  std::printf("# %-15s %-34s %-9s %14s %14s %14s\n", "workload", "metric",
              "unit", "median", "q1", "q3");
  MetricSet medians;
  bool correct = true;
  for (const WorkloadLedger& ledger : ledgers) {
    correct = correct && ledger.correct;
    for (std::size_t m = 0; m < ledger.runs.front().size(); ++m) {
      std::vector<double> values;
      for (const MetricSet& run : ledger.runs) values.push_back(run[m].value);
      const Quartiles q = quartiles(values);
      const Metric& metric = ledger.runs.front()[m];
      std::printf("# %-15s %-34s %-9s %14.6g %14.6g %14.6g\n",
                  ledger.workload.c_str(), metric.name.c_str(),
                  metric.unit.c_str(), q.median, q.q1, q.q3);
      medians.push_back(
          {ledger.workload + "." + metric.name, metric.unit, q.median});
    }
  }
  std::printf("%s\n", result_line(correct, attempted, failed, medians).c_str());
  return correct ? 0 : 1;
}

bool expect(bool condition, const std::string& what, std::int32_t* failures) {
  if (!condition) {
    std::printf("self-test FAIL: %s\n", what.c_str());
    ++*failures;
  }
  return condition;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

/// The helpers every reported number goes through.
void check_helpers(std::int32_t* failures) {
  const auto q = [](std::vector<double> v) { return quartiles(std::move(v)); };
  // Reference values from Python's statistics.quantiles(values, n=4).
  const Quartiles a = q({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(a.q1, 2.75) && near(a.median, 5.5) && near(a.q3, 8.25),
         "quartiles of 1..10", failures);
  const Quartiles b = q({1, 2});
  expect(near(b.q1, 0.75) && near(b.median, 1.5) && near(b.q3, 2.25),
         "quartiles of two values", failures);
  const Quartiles c = q({1.5, 2.5, 10, 4, 7});
  expect(near(c.q1, 2.0) && near(c.median, 4.0) && near(c.q3, 8.5),
         "quartiles of unsorted values", failures);
  const Quartiles d = q({5});
  expect(near(d.q1, 5) && near(d.median, 5) && near(d.q3, 5),
         "quartiles of one value", failures);

  expect(near(supported_quantile(1000, 0.99), 0.99), "p99 at n=1000",
         failures);
  expect(near(supported_quantile(500, 0.99), 0.98), "p99 capped at n=500",
         failures);
  expect(near(supported_quantile(10, 0.99), 0.5), "tiny samples",
         failures);
  std::vector<double> hundred;
  for (int i = 0; i < 100; ++i) hundred.push_back(i);
  expect(near(tail(hundred, 0.99), 89.1), "tail keeps ten beyond",
         failures);
  expect(near(tail(hundred, 0.5), 49.5), "median", failures);
  expect(tail({}, 0.99) == 0, "empty tail", failures);

  expect(near(spread_bound({90, 100, 110}), 0.4), "bound = 2 x IQR/median",
         failures);
  expect(near(spread_bound({99.5, 100, 100.5}), 0.03), "bound floor 3%",
         failures);

  const auto summary = [](double q1, double median, double q3) {
    return Summary{{q1, median, q3}, {q1, median, q3}};
  };
  const Summary base = summary(99, 100, 101);
  expect(compare_verdict(base, summary(119, 120, 121), Better::kLower,
                         0.1) == "regressed",
         "20% slower regresses at a 10% bound", failures);
  expect(compare_verdict(base, summary(94, 95, 96), Better::kLower, 0.1) ==
             "improved",
         "5% faster beyond a 2% spread improves", failures);
  expect(compare_verdict(base, summary(100, 101, 102), Better::kLower,
                         0.1) == "within bound",
         "1% slower is within bound", failures);
  expect(compare_verdict(summary(80, 100, 120), summary(95, 105, 115),
                         Better::kLower, 0.1) == "unresolved",
         "a spread wider than the bound is unresolved", failures);
  expect(compare_verdict(base, summary(79, 80, 81), Better::kHigher, 0.1) ==
             "regressed",
         "a higher-is-better drop regresses", failures);
  expect(compare_verdict(summary(80, 100, 120), summary(130, 140, 150),
                         Better::kHigher, 0.1) == "improved",
         "every run better resolves a wide spread", failures);
  expect(compare_verdict(summary(80, 100, 120), summary(200, 210, 220),
                         Better::kLower, 0.1) == "regressed",
         "every run worse by more than the bound resolves a wide spread",
         failures);
  expect(compare_verdict(summary(80, 100, 120), summary(125, 130, 135),
                         Better::kLower, 0.1) == "unresolved",
         "runs worse, but not all by the bound, stay unresolved", failures);

  // --compare on documents: a wrong result in either ledger fails it.
  std::printf("# --compare checks; the tables and FAIL lines they print "
              "are expected\n");
  const auto ledger = [](bool correct, double value) {
    JsonValue doc;
    BFDN_CHECK(
        json_parse(str_format("{\"workloads\":{\"w\":{\"correct\":%s,"
                              "\"metrics\":{\"x_ms\":{\"unit\":\"ms\","
                              "\"median\":%g,\"q1\":%g,\"q3\":%g,"
                              "\"values\":[%g,%g,%g]}}}}}",
                              correct ? "true" : "false", value, value,
                              value, value, value, value),
                   doc, nullptr),
        "test ledger");
    return doc;
  };
  JsonValue spec;
  BFDN_CHECK(json_parse("{\"end_to_end\":[{\"name\":\"x_ms\",\"unit\":\"ms\","
                        "\"better\":\"lower\",\"bound\":0.1}]}",
                        spec, nullptr),
             "test spec");
  expect(compare_documents(ledger(true, 10), ledger(true, 10.2), spec),
         "compare passes within bound", failures);
  expect(!compare_documents(ledger(true, 10), ledger(true, 10.5), spec),
         "a calm base resolves 5% under a declared bound of 10%", failures);
  expect(!compare_documents(ledger(true, 10), ledger(true, 12), spec),
         "compare fails on a regression", failures);
  expect(!compare_documents(ledger(true, 10), ledger(false, 10), spec),
         "compare fails on a wrong change ledger", failures);
  expect(!compare_documents(ledger(false, 10), ledger(true, 10), spec),
         "compare fails on a wrong base ledger", failures);

  expect(format_number(0.1) == "0.1", "shortest decimal", failures);
  expect(format_number(1234.5678) == "1234.5678", "all digits kept",
         failures);
  expect(result_line(true, 3, 0, {{"x_ms", "ms", 1.5}}) ==
             "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
             "{\"x_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}",
         "result line", failures);
}

/// BENCHMARK.json must name exactly the workloads and metrics this
/// binary reports, in the same order, with the same units and sense.
void check_benchmark_json(const std::string& path, std::int32_t* failures) {
  JsonValue doc;
  std::string error;
  if (!expect(json_parse(read_file(path), doc, &error), path + ": " + error,
              failures)) {
    return;
  }
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const JsonValue& listed = doc.at("workloads");
  expect(listed.size() == workloads().size(), "workload count", failures);
  for (std::size_t i = 0; i < listed.size() && i < workloads().size(); ++i) {
    expect(listed.at(i).at("name").as_string() == workloads()[i].name,
           "workload " + workloads()[i].name, failures);
  }
  const auto check_metrics = [&](const char* key,
                                 const std::vector<MetricDef>& defs) {
    const JsonValue& metrics = doc.at(key);
    expect(metrics.size() == defs.size(),
           str_format("%s: %zu metrics listed, %zu reported", key,
                      metrics.size(), defs.size()),
           failures);
    for (std::size_t i = 0; i < metrics.size() && i < defs.size(); ++i) {
      const JsonValue& m = metrics.at(i);
      expect(m.at("name").as_string() == defs[i].name &&
                 m.at("unit").as_string() == defs[i].unit &&
                 m.at("better").as_string() == better_name(defs[i].better),
             std::string(key) + " " + defs[i].name, failures);
      expect(std::regex_match(defs[i].name, name_re),
             "name syntax " + defs[i].name, failures);
    }
  };
  check_metrics("end_to_end", end_to_end_metrics());
  check_metrics("per_layer", per_layer_metrics());
}

void print_list() {
  for (const WorkloadSpec& spec : workloads()) {
    std::printf("workload %s\n", spec.name.c_str());
  }
  for (const MetricDef& m : end_to_end_metrics()) {
    std::printf("end_to_end %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                better_name(m.better));
  }
  for (const MetricDef& m : per_layer_metrics()) {
    std::printf("per_layer %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                better_name(m.better));
  }
}

/// Every workload at about 1/20 size, measured and traced.
bool run_smoke(Settings settings) {
  settings.options.scale = 0.05;
  settings.options.seconds = 0.5;
  settings.options.setup_repeats = 1;
  bool correct = true;
  for (const WorkloadSpec& spec : workloads()) {
    settings.trace_dir.clear();
    correct = run_one(spec, settings).correct && correct;
    settings.trace_dir = settings.options.work_dir + "/smoke-traces";
    correct = run_one(spec, settings).correct && correct;
  }
  std::printf("# smoke %s\n", correct ? "passed" : "FAILED");
  return correct;
}

int run(int argc, const char* const* argv) {
  CliParser cli("bfdn_bench", "benchmark the served bfdn fleet");
  cli.add_string("workload", "",
                 "run one workload (empty: all of them, as a ledger)");
  cli.add_int("seed", 1, "generates every request, draw and arrival gap");
  cli.add_double("seconds", 20, "length of a measured phase");
  cli.add_string("trace", "0",
                 "0 = measured run; 1 = traced run, traces under "
                 "--work-dir; anything else = traced run, traces there");
  cli.add_int("repeat", 0, "repetitions for a ledger (0: one run)");
  cli.add_string("out", "", "ledger path (default <work-dir>/ledger.json)");
  cli.add_string("compare", "", "A.json,B.json: compare two ledgers");
  cli.add_bool("list", false, "print the workloads and metrics");
  cli.add_bool("self-test", false,
               "check the helpers and BENCHMARK.json, then --smoke");
  cli.add_bool("smoke", false, "every workload at 1/20 size");
  cli.add_string("bin-dir", "", "directory of bfdn_serve and bfdn_route");
  cli.add_string("work-dir", "", "directory for run files and traces");
  cli.add_string("benchmark-json", "BENCHMARK.json",
                 "the benchmark's declaration");
  cli.add_string("commit", "unknown", "source commit, for provenance");
  cli.add_string("source-digest", "unknown",
                 "digest of the source tree, for provenance");
  if (!cli.parse(argc, argv)) return 0;

  Settings settings;
  settings.benchmark_json = cli.get_string("benchmark-json");
  if (cli.get_bool("list")) {
    print_list();
    return 0;
  }
  const std::string compare = cli.get_string("compare");
  if (!compare.empty()) {
    const std::vector<std::string> paths = split(compare, ',');
    BFDN_REQUIRE(paths.size() == 2, "--compare takes A.json,B.json");
    return compare_ledgers(paths[0], paths[1], settings.benchmark_json) ? 0
                                                                        : 1;
  }

  settings.options.bin_dir = cli.get_string("bin-dir");
  settings.options.work_dir = cli.get_string("work-dir");
  BFDN_REQUIRE(!settings.options.bin_dir.empty() &&
                   !settings.options.work_dir.empty(),
               "--bin-dir and --work-dir are required");
  settings.options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  settings.options.seconds = cli.get_double("seconds");
  BFDN_REQUIRE(settings.options.seconds > 0, "--seconds must be positive");
  const std::string trace = cli.get_string("trace");
  if (trace == "1") {
    settings.trace_dir = settings.options.work_dir + "/traces";
  } else if (trace != "0") {
    settings.trace_dir = trace;
  }
  settings.provenance =
      collect_provenance(cli.get_string("commit"),
                         cli.get_string("source-digest"),
                         settings.options.seed);
  std::printf("# provenance %s\n",
              provenance_json(settings.provenance).c_str());

  if (cli.get_bool("self-test")) {
    std::int32_t failures = 0;
    check_helpers(&failures);
    check_benchmark_json(settings.benchmark_json, &failures);
    std::printf("# self-test: %d failures\n", failures);
    const bool smoke = run_smoke(settings);
    return failures == 0 && smoke ? 0 : 1;
  }
  if (cli.get_bool("smoke")) return run_smoke(settings) ? 0 : 1;

  std::vector<const WorkloadSpec*> selected;
  const std::string workload = cli.get_string("workload");
  if (workload.empty()) {
    for (const WorkloadSpec& spec : workloads()) selected.push_back(&spec);
  } else {
    const WorkloadSpec* spec = find_workload(workload);
    BFDN_REQUIRE(spec != nullptr, "unknown --workload " + workload);
    selected.push_back(spec);
  }
  const std::int64_t repeat = cli.get_int("repeat");
  if (selected.size() == 1 && repeat == 0) {
    const RunOutcome outcome = run_one(*selected.front(), settings);
    std::printf("%s\n", result_line(outcome.correct, outcome.attempted,
                                    outcome.failed, outcome.metrics)
                            .c_str());
    return outcome.correct ? 0 : 1;
  }
  std::string out_path = cli.get_string("out");
  if (out_path.empty()) out_path = settings.options.work_dir + "/ledger.json";
  return run_ledger(selected, std::max<std::int64_t>(1, repeat), out_path,
                    settings);
}

}  // namespace
}  // namespace bfdn::bench

int main(int argc, char** argv) {
  try {
    return bfdn::bench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bfdn_bench: %s\n", error.what());
    return 2;
  }
}
