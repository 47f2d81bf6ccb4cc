#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "cluster/ring.h"
#include "loadgen.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/scheduler.h"
#include "sim/batch_executor.h"
#include "store/result_store.h"
#include "support/check.h"
#include "support/stats.h"
#include "support/strings.h"

namespace bfdn::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Shares of --seconds each part of a traced run may take.
constexpr double kReplayShare = 0.25;
constexpr double kSchedulerShare = 0.15;
constexpr double kOpenLoopShare = 0.2;
constexpr double kOpenLoopMaxS = 2.0;
// Spans stay in memory, so the replay is capped in requests too.
constexpr std::int64_t kMaxReplayRequests = 20000;
constexpr std::int32_t kProbeCalls = 2000;
// Requests a shard has in flight: the closed loops' 2 connections, and
// fleet-zipf's 4 spread over 2 shards.
constexpr std::int32_t kShardConcurrency = 2;
// The store's own group-commit age trigger (bfdn_serve --store-flush-ms).
constexpr std::int64_t kFlushEveryNs = 25'000'000;

constexpr const char* kRequestSpan = "request";
// Derived timings: live calls minus the replayed work they contain.
constexpr const char* kSocketRtt = "socket.rtt";
constexpr const char* kRouterHop = "cluster.hop";
constexpr const char* kQueueWait = "scheduler.queue_wait";

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // index of the enclosing span
  std::int64_t request = -1;   // replayed item, -1 outside requests
  std::int32_t tid = 0;
};

/// In-memory span recorder. A disabled tracer records nothing: that is
/// the untraced replay trace.overhead_ratio compares against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }
  Span& at(std::int32_t index) {
    return spans_[static_cast<std::size_t>(index)];
  }

  std::int32_t add(const Span& span) {
    if (!enabled_) return -1;
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void append(const std::vector<Span>& spans) {
    if (enabled_) spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  /// Milliseconds spent in spans named `names` recorded at or after
  /// index `first`.
  double ms_since(std::size_t first,
                  std::initializer_list<std::string_view> names) const {
    std::int64_t total = 0;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      for (const std::string_view name : names) {
        if (name == spans_[i].name) {
          total += spans_[i].end_ns - spans_[i].start_ns;
        }
      }
    }
    return static_cast<double>(total) / 1e6;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Runs `work()` inside a span that starts just before the call and ends
/// just after it, and returns its result.
template <typename F>
decltype(auto) timed(Tracer& tracer, const char* name, std::int32_t parent,
                     std::int64_t request, F&& work) {
  if (!tracer.enabled()) return work();
  const std::int64_t start = now_ns();
  if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
    work();
    tracer.add({name, start, now_ns(), parent, request, 0});
  } else {
    auto result = work();
    tracer.add({name, start, now_ns(), parent, request, 0});
    return result;
  }
}

/// A span around one call outside any replayed request.
template <typename F>
decltype(auto) timed(Tracer& tracer, const char* name, F&& work) {
  return timed(tracer, name, -1, -1, std::forward<F>(work));
}

/// One replayed request: a root span from construction to finish(), and
/// a child span around each layer call made through call(). Work between
/// the calls (bookkeeping, copies, the tracer itself) lies outside every
/// child, so trace.coverage says how much of a request the layer calls
/// account for.
class RequestTrace {
 public:
  RequestTrace(Tracer& tracer, std::int64_t request)
      : tracer_(tracer), request_(request) {
    if (tracer_.enabled()) {
      root_ = tracer_.add({kRequestSpan, now_ns(), 0, -1, request_, 0});
    }
  }

  template <typename F>
  decltype(auto) call(const char* name, F&& work) {
    return timed(tracer_, name, root_, request_, std::forward<F>(work));
  }

  void finish() {
    if (tracer_.enabled()) tracer_.at(root_).end_ns = now_ns();
  }

 private:
  Tracer& tracer_;
  std::int64_t request_;
  std::int32_t root_ = -1;
};

/// One shard's in-process tiers. The cache has no store attached, so
/// the memory and disk lookups are separate calls with their own spans,
/// made in the order ResultCache's read-through makes them.
struct Node {
  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<ResultStore> store;
};

struct ReplayState {
  std::vector<Node> nodes;
  std::unique_ptr<ConsistentRing> ring;
  std::vector<std::int64_t> owner_counts;
  std::int64_t store_gets = 0;
  std::int64_t store_hits = 0;
  // Executed runs only (a coalesced batch member is a copy).
  std::int64_t rounds = 0;
  std::int64_t activations = 0;
  std::int64_t batch_members = 0;
  std::int64_t batch_coalesced = 0;
  std::int64_t envelope_bytes = 0;
};

StoreOptions store_options(const std::string& dir) {
  StoreOptions options;  // bfdn_serve's defaults: 25 ms, fdatasync on
  options.dir = dir;
  return options;
}

/// The state set-up leaves a shard in: the vocabulary resident, and on
/// a restarting topology, flushed to disk and booted back from it.
ReplayState make_state(const Plan& plan, const std::vector<std::string>& fill,
                       const std::vector<std::string>& ring_labels,
                       const std::string& dir, Tracer& tracer) {
  const Topology& topology = plan.spec().topology;
  ReplayState state;
  remove_tree(dir);
  for (std::int32_t s = 0; s < topology.shards; ++s) {
    Node node;
    node.cache = std::make_unique<ResultCache>(
        static_cast<std::size_t>(topology.cache));
    if (topology.store) {
      node.store = std::make_unique<ResultStore>(
          store_options(str_format("%s/node%d", dir.c_str(), s)));
    }
    state.nodes.push_back(std::move(node));
  }
  if (topology.router) {
    state.ring = std::make_unique<ConsistentRing>(ring_labels);
  }
  state.owner_counts.assign(state.nodes.size(), 0);
  for (std::size_t v = 0; v < fill.size(); ++v) {
    const std::uint64_t key = plan.vocabulary_keys()[v];
    Node& node = state.nodes[state.ring ? static_cast<std::size_t>(
                                              state.ring->owner(key))
                                        : 0];
    node.cache->put(key, fill[v]);
    if (node.store) node.store->put(key, fill[v]);
  }
  if (topology.restart_after_fill) {
    for (std::int32_t s = 0; s < topology.shards; ++s) {
      Node& node = state.nodes[static_cast<std::size_t>(s)];
      timed(tracer, "store.flush", [&] { node.store->flush(); });
      node.store.reset();
      node.store = timed(tracer, "store.boot", [&] {
        return std::make_unique<ResultStore>(
            store_options(str_format("%s/node%d", dir.c_str(), s)));
      });
      node.cache = std::make_unique<ResultCache>(
          static_cast<std::size_t>(topology.cache));
    }
  }
  return state;
}

/// A copy of the engine half of execute_run in src/service/protocol.cpp,
/// everything before its serialize_run_result call, kept apart so the
/// sim and protocol layers are timed separately. The scheduler pass
/// compares the resulting bytes with execute_run's, which catches output
/// drift but not a change to execute_run's set-up that only alters its
/// cost; keep the two in step until protocol.cpp exposes this half.
RunResult run_request(const ServiceRequest& request, const Tree& tree) {
  const std::unique_ptr<Algorithm> algorithm =
      make_algorithm(request.algo, tree);
  RunConfig config;
  config.num_robots = request.algo.k;
  config.max_rounds = request.max_rounds;
  config.check_invariants = request.check_invariants;
  config.fast_forward = request.fast_forward;
  const std::unique_ptr<FiniteSchedule> schedule =
      request.schedule.make(request.algo.k);
  config.schedule = schedule.get();
  const std::unique_ptr<AsyncScheduler> async =
      request.async.make(request.algo.k);
  config.async = async.get();
  if (config.max_rounds == 0 && request.async.slowdown() > 1) {
    config.max_rounds = default_round_limit(tree) * request.async.slowdown();
  }
  return run_exploration(tree, *algorithm, config);
}

RunConfig batch_config(const ServiceRequest& run) {
  RunConfig config;
  config.num_robots = run.algo.k;
  config.max_rounds = run.max_rounds;
  config.check_invariants = run.check_invariants;
  config.fast_forward = run.fast_forward;
  return config;
}

struct Replayed {
  std::int64_t index = 0;
  /// Result objects: one for a run, one per member for a campaign.
  std::vector<std::string> results;
  bool executed = false;
  /// Build + run + serialize time, subtracted from the scheduler's
  /// submit-to-done latency to leave the queue wait.
  double exec_ms = 0;
};

ServiceRequest parse_or_throw(const std::string& line) {
  ServiceRequest request;
  std::string error;
  BFDN_REQUIRE(parse_request(line, request, &error), error);
  return request;
}

/// ServiceServer::handle_run, one layer call at a time.
Replayed replay_run(const std::string& line, std::int64_t index,
                    ReplayState& state, Tracer& tracer) {
  const std::size_t first = tracer.size();
  RequestTrace trace(tracer, index);
  const ServiceRequest request =
      trace.call("protocol.parse", [&] { return parse_or_throw(line); });
  const std::uint64_t key = trace.call(
      "protocol.fingerprint", [&] { return request_fingerprint(request); });
  std::size_t owner = 0;
  if (state.ring) {
    owner = static_cast<std::size_t>(
        trace.call("cluster.ring", [&] { return state.ring->owner(key); }));
  }
  ++state.owner_counts[owner];
  Node& node = state.nodes[owner];
  std::optional<std::string> bytes =
      trace.call("cache.get", [&] { return node.cache->get(key); });
  if (!bytes && node.store) {
    bytes = trace.call("store.get", [&] { return node.store->get(key); });
    ++state.store_gets;
    if (bytes) {
      ++state.store_hits;
      trace.call("cache.put", [&] { node.cache->put(key, *bytes); });
    }
  }
  const bool cached = bytes.has_value();
  Replayed out;
  out.index = index;
  if (!cached) {
    const Tree tree =
        trace.call("graph.build", [&] { return request.recipe.build(); });
    const RunResult result =
        trace.call("sim.run", [&] { return run_request(request, tree); });
    bytes = trace.call("protocol.serialize", [&] {
      return serialize_run_result(request, tree, result);
    });
    trace.call("cache.put", [&] { node.cache->put(key, *bytes); });
    if (node.store) {
      trace.call("store.put", [&] { node.store->put(key, *bytes); });
    }
    state.rounds += result.rounds;
    state.activations += result.total_activations;
    out.executed = true;
  }
  state.envelope_bytes +=
      static_cast<std::int64_t>(trace.call("protocol.envelope", [&] {
        return ok_response(request.id, cached, key, *bytes).size();
      }));
  trace.finish();
  out.exec_ms = tracer.ms_since(
      first, {"graph.build", "sim.run", "protocol.serialize"});
  out.results.push_back(std::move(*bytes));
  return out;
}

/// ServiceServer::handle_campaign plus the scheduler's batch pass.
Replayed replay_campaign(const std::string& line, std::int64_t index,
                         ReplayState& state, Tracer& tracer) {
  const std::size_t first = tracer.size();
  RequestTrace trace(tracer, index);
  const ServiceRequest request =
      trace.call("protocol.parse", [&] { return parse_or_throw(line); });
  const std::vector<ServiceRequest> members = trace.call(
      "protocol.expand_campaign", [&] { return expand_campaign(request); });
  std::vector<std::uint64_t> keys;
  for (const ServiceRequest& member : members) {
    keys.push_back(trace.call("protocol.fingerprint",
                              [&] { return request_fingerprint(member); }));
  }
  ++state.owner_counts[0];
  Node& node = state.nodes[0];
  std::vector<std::optional<std::string>> found;
  trace.call("cache.get_many", [&] { node.cache->get_many(keys, &found); });
  std::vector<CampaignMemberResponse> responses(members.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < members.size(); ++i) {
    responses[i].key = keys[i];
    if (found[i].has_value()) {
      responses[i].cached = true;
      responses[i].result_json = std::move(*found[i]);
    } else {
      misses.push_back(i);
    }
  }
  Replayed out;
  out.index = index;
  if (!misses.empty()) {
    const Tree tree =
        trace.call("graph.build", [&] { return request.recipe.build(); });
    BatchExecutor batch(tree);
    trace.call("sim.batch_add", [&] {
      for (const std::size_t i : misses) {
        batch.add_member(make_algorithm(members[i].algo, tree),
                         batch_config(members[i]),
                         batch_coalesce_key(members[i]));
      }
    });
    const std::vector<RunResult> results =
        trace.call("sim.batch_run", [&] { return batch.run(); });
    std::unordered_set<std::string> executed;
    for (std::size_t j = 0; j < misses.size(); ++j) {
      const std::string coalesce = batch_coalesce_key(members[misses[j]]);
      if (coalesce.empty() || executed.insert(coalesce).second) {
        state.rounds += results[j].rounds;
        state.activations += results[j].total_activations;
      }
    }
    state.batch_members += batch.stats().members;
    state.batch_coalesced += batch.stats().coalesced;
    for (std::size_t j = 0; j < misses.size(); ++j) {
      const std::size_t i = misses[j];
      responses[i].result_json = trace.call("protocol.serialize", [&] {
        return serialize_run_result(members[i], tree, results[j]);
      });
      trace.call("cache.put",
                 [&] { node.cache->put(keys[i], responses[i].result_json); });
    }
    out.executed = true;
  }
  state.envelope_bytes +=
      static_cast<std::int64_t>(trace.call("protocol.envelope", [&] {
        return campaign_response(request.id, responses).size();
      }));
  trace.finish();
  out.exec_ms =
      tracer.ms_since(first, {"graph.build", "sim.batch_add",
                              "sim.batch_run", "protocol.serialize"});
  for (CampaignMemberResponse& response : responses) {
    out.results.push_back(std::move(response.result_json));
  }
  return out;
}

/// One replay of the plan: its state, its tracer and what it returned.
struct ReplayPass {
  ReplayState state;
  Tracer* tracer = nullptr;
  std::vector<Replayed> replayed;
  std::int64_t busy_ns = 0;
  std::int64_t last_flush_ns = 0;
};

/// Replays measured item `index` into `pass`, flushing its stores on
/// the group-commit age trigger. A shard flushes on the store's own
/// thread, off the request path, so busy_ns leaves the flush out.
void replay_item(const Plan& plan, std::int64_t index, ReplayPass& pass) {
  const std::int64_t start = now_ns();
  const std::string line = plan.line(plan.item(index));
  pass.replayed.push_back(
      plan.spec().campaigns
          ? replay_campaign(line, index, pass.state, *pass.tracer)
          : replay_run(line, index, pass.state, *pass.tracer));
  const std::int64_t end = now_ns();
  pass.busy_ns += end - start;
  if (end - pass.last_flush_ns >= kFlushEveryNs) {
    for (Node& node : pass.state.nodes) {
      if (node.store) {
        timed(*pass.tracer, "store.flush", [&] { node.store->flush(); });
      }
    }
    pass.last_flush_ns = now_ns();
  }
}

/// Replays items 0.. into a traced and an untraced pass in lockstep,
/// alternating which goes first, until `budget_s` or the request cap.
/// Interleaving keeps warm-up and machine drift out of the overhead.
void replay_pair(const Plan& plan, ReplayPass& traced, ReplayPass& quiet,
                 double budget_s) {
  const std::int64_t start = now_ns();
  traced.last_flush_ns = quiet.last_flush_ns = start;
  for (std::int64_t i = 0; i < kMaxReplayRequests; ++i) {
    if (static_cast<double>(now_ns() - start) / 1e9 >= budget_s) break;
    ReplayPass& first = i % 2 == 0 ? traced : quiet;
    ReplayPass& second = i % 2 == 0 ? quiet : traced;
    replay_item(plan, i, first);
    replay_item(plan, i, second);
  }
}

struct SchedulerPass {
  std::vector<double> queue_wait_ms;
  std::vector<Span> spans;
  Scheduler::Stats stats;
  std::int64_t jobs = 0;
  std::int64_t mismatches = 0;
};

/// Sends the replay's executed requests through a real Scheduler at the
/// workload's shard threads and concurrency: submit (submit_all for a
/// campaign) until admitted, then wait. The queue wait is that latency
/// minus the request's replayed build + run + serialize time.
SchedulerPass run_scheduler_pass(const Plan& plan,
                                 const std::vector<Replayed>& replayed,
                                 double budget_s) {
  const WorkloadSpec& spec = plan.spec();
  std::vector<const Replayed*> work;
  for (const Replayed& r : replayed) {
    if (r.executed) work.push_back(&r);
  }
  SchedulerPass pass;
  Scheduler scheduler({spec.topology.threads, 64});
  std::atomic<std::size_t> next{0};
  std::vector<SchedulerPass> per_thread(
      static_cast<std::size_t>(kShardConcurrency));
  const std::int64_t start = now_ns();
  std::vector<std::thread> submitters;
  for (std::int32_t t = 0; t < kShardConcurrency; ++t) {
    submitters.emplace_back([&, t] {
      SchedulerPass& mine = per_thread[static_cast<std::size_t>(t)];
      try {
        for (std::size_t j = next++; j < work.size(); j = next++) {
          if (static_cast<double>(now_ns() - start) / 1e9 >= budget_s) break;
          const Replayed& r = *work[j];
          const ServiceRequest request =
              parse_or_throw(plan.line(plan.item(r.index)));
          const std::vector<ServiceRequest> runs =
              spec.campaigns ? expand_campaign(request)
                             : std::vector<ServiceRequest>{request};
          const std::int64_t t0 = now_ns();
          // A shard submits a run alone and a campaign's members at once.
          std::vector<std::shared_ptr<Scheduler::Job>> jobs(1);
          while ((spec.campaigns ? scheduler.submit_all(runs, &jobs)
                                 : scheduler.submit(runs[0], &jobs[0])) !=
                 Scheduler::Admit::kAdmitted) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          for (std::size_t m = 0; m < jobs.size(); ++m) {
            const JobOutcome& outcome = jobs[m]->wait();
            if (!outcome.ok || outcome.payload != r.results[m]) {
              ++mine.mismatches;
            }
          }
          const std::int64_t t1 = now_ns();
          ++mine.jobs;
          mine.queue_wait_ms.push_back(std::max(
              0.0, static_cast<double>(t1 - t0) / 1e6 - r.exec_ms));
          mine.spans.push_back(
              {"scheduler.submit_wait", t0, t1, -1, r.index, 1 + t});
        }
      } catch (const std::exception&) {
        ++mine.mismatches;
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  scheduler.drain();
  pass.stats = scheduler.stats();
  for (const SchedulerPass& mine : per_thread) {
    pass.jobs += mine.jobs;
    pass.mismatches += mine.mismatches;
    pass.queue_wait_ms.insert(pass.queue_wait_ms.end(),
                              mine.queue_wait_ms.begin(),
                              mine.queue_wait_ms.end());
    pass.spans.insert(pass.spans.end(), mine.spans.begin(), mine.spans.end());
  }
  return pass;
}

/// A run line whose result the live fleet holds after set-up.
std::string resident_line(const Plan& plan) {
  if (!plan.vocabulary_lines().empty()) return plan.vocabulary_lines()[0];
  const ServiceRequest warm = parse_or_throw(plan.warmup_lines()[0]);
  if (warm.type != RequestType::kCampaign) return plan.warmup_lines()[0];
  return serialize_request(expand_campaign(warm)[0]);
}

/// ServiceClient::call round trips on a resident key, in microseconds.
std::vector<double> probe_calls(std::uint16_t port, const std::string& line,
                                std::int32_t calls, const char* span_name,
                                std::int32_t tid, Tracer& tracer,
                                std::int64_t* failed) {
  std::vector<double> us;
  ServiceClient client(port);
  for (std::int32_t i = 0; i < calls; ++i) {
    const std::int64_t t0 = now_ns();
    const JsonValue response = client.call(line);
    const std::int64_t t1 = now_ns();
    if (response.get_string("status", "") != "ok" ||
        !response.get_bool("cached", false)) {
      ++*failed;
      continue;
    }
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
    tracer.add({span_name, t0, t1, -1, -1, tid});
  }
  return us;
}

/// Median in-process hit path (parse, fingerprint, cache.get, envelope)
/// for `line`, in microseconds: what a shard does inside a socket round
/// trip on a resident key.
double hit_path_us(const std::string& line, const std::string& result,
                   std::int32_t calls) {
  ResultCache cache(16);
  cache.put(request_fingerprint(parse_or_throw(line)), result);
  std::vector<double> us;
  std::int64_t bytes = 0;
  for (std::int32_t i = 0; i < calls; ++i) {
    const std::int64_t t0 = now_ns();
    const ServiceRequest request = parse_or_throw(line);
    const std::uint64_t key = request_fingerprint(request);
    const std::optional<std::string> hit = cache.get(key);
    bytes += static_cast<std::int64_t>(
        ok_response(request.id, true, key, hit.value_or("")).size());
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  BFDN_CHECK(bytes > 0, "hit path produced nothing");
  return percentile(us, 0.5);
}

std::vector<double> minus(const std::vector<double>& samples, double offset) {
  std::vector<double> out;
  for (const double x : samples) out.push_back(std::max(0.0, x - offset));
  return out;
}

std::string_view layer_of(const char* span) {
  const std::string_view name(span);
  return name.substr(0, name.find('.'));
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::string& workload) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  BFDN_REQUIRE(out != nullptr, "cannot write " + path);
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"workload\":\"%s\"},\"traceEvents\":[\n",
               workload.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view layer = layer_of(s.name);
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"request\":%lld,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<int>(layer.size()),
                 layer.data(), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<long long>(s.request), s.parent);
  }
  std::fprintf(out, "]}\n");
  BFDN_REQUIRE(std::fclose(out) == 0, "cannot write " + path);
}

}  // namespace

RunOutcome run_traced(const WorkloadSpec& spec, const RunOptions& options,
                      const std::string& trace_dir) {
  RunOutcome out;
  const Plan plan(spec, options.seed, options.scale);
  const std::string dir = options.work_dir + "/" + spec.name;
  Tracer tracer(true);
  std::map<std::string, std::vector<double>> derived;
  std::vector<double> late_ms;
  const std::int32_t probe_calls_n = static_cast<std::int32_t>(
      std::max(100.0, kProbeCalls * options.scale));

  // Live part: one set-up, socket and router-hop probes on a resident
  // key, and on an open-loop workload a short stretch of its schedule.
  remove_tree(dir);
  std::vector<std::string> fill;
  std::unique_ptr<Fleet> fleet = set_up(plan, options, dir + "/live", &fill,
                                        &out);
  std::vector<std::string> ring_labels;
  for (std::size_t s = 0; s < fleet->num_shards(); ++s) {
    ring_labels.push_back(str_format("%u", fleet->shard_port(s)));
  }
  const std::string probe = resident_line(plan);
  const ServiceRequest probe_request = parse_or_throw(probe);
  std::uint16_t owner_port = fleet->shard_port(0);
  if (fleet->has_router()) {
    const ConsistentRing ring(ring_labels);
    owner_port = fleet->shard_port(static_cast<std::size_t>(
        ring.owner(request_fingerprint(probe_request))));
    // The router replicates hot keys, so make the key resident on every
    // shard before timing.
    for (std::size_t s = 0; s < fleet->num_shards(); ++s) {
      ServiceClient(fleet->shard_port(s)).call(probe);
    }
  }
  std::int64_t probe_failures = 0;
  const std::vector<double> shard_us =
      probe_calls(owner_port, probe, probe_calls_n, "socket.call", 2, tracer,
                  &probe_failures);
  std::string probe_result;
  {
    Socket raw = connect_local(owner_port, 30000);
    BFDN_REQUIRE(raw.send_all(probe + "\n"), "probe send failed");
    std::vector<ResultView> results;
    const std::optional<std::string> line = raw.recv_line();
    if (line && response_results(*line, &results) && results.size() == 1) {
      probe_result = std::string(results[0].bytes);
    } else {
      ++probe_failures;
    }
  }
  if (fleet->has_router()) {
    const std::vector<double> router_us =
        probe_calls(fleet->entry_port(), probe, probe_calls_n, "cluster.call",
                    3, tracer, &probe_failures);
    derived[kRouterHop] =
        minus(router_us, shard_us.empty() ? 0 : percentile(shard_us, 0.5));
  }
  if (spec.rate_rps > 0) {
    const PhaseResult open = run_open(
        fleet->entry_port(), spec.connections,
        plan.due_times(std::min(kOpenLoopMaxS, kOpenLoopShare * options.seconds)),
        spec.slo_ms, [&](std::int64_t i) { return plan.line(plan.item(i)); },
        [&](std::int64_t, const std::string& response) -> Verdict {
          std::vector<ResultView> results;
          return {response_results(response, &results), 0, 0, 0};
        });
    out.attempted += open.attempted;
    if (open.failed > 0) out.fail("open-loop stretch: " + open.first_error);
    late_ms = open.late_ms;
  }
  out.attempted += (fleet->has_router() ? 2 : 1) * probe_calls_n;
  if (probe_failures > 0) {
    out.fail(str_format("%lld probe calls were not ok cache hits",
                        static_cast<long long>(probe_failures)));
  }
  if (!fleet->stop()) out.fail("a daemon did not exit cleanly");
  fleet.reset();
  derived[kSocketRtt] =
      minus(shard_us, hit_path_us(probe, probe_result, probe_calls_n));

  // In-process replay: a traced and an untraced pass over the same
  // requests, each from the state set-up leaves behind.
  Tracer off(false);
  ReplayPass traced;
  traced.state = make_state(plan, fill, ring_labels, dir + "/r1", tracer);
  traced.tracer = &tracer;
  ReplayPass quiet;
  quiet.state = make_state(plan, fill, ring_labels, dir + "/r2", off);
  quiet.tracer = &off;
  replay_pair(plan, traced, quiet, 2 * kReplayShare * options.seconds);
  const ReplayState& state = traced.state;
  const std::int64_t replayed_n =
      static_cast<std::int64_t>(traced.replayed.size());
  out.attempted += 2 * replayed_n;
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < traced.replayed.size(); ++i) {
    const Replayed& r = traced.replayed[i];
    if (quiet.replayed[i].results != r.results) ++mismatches;
    const Item item = plan.item(r.index);
    if (item.vocab >= 0 &&
        r.results[0] != fill[static_cast<std::size_t>(item.vocab)]) {
      ++mismatches;
    }
  }

  // Queue wait behind a real Scheduler; its bytes must equal the
  // replay's, which also pins run_request to execute_run.
  SchedulerPass scheduler = run_scheduler_pass(
      plan, traced.replayed, kSchedulerShare * options.seconds);
  tracer.append(scheduler.spans);
  derived[kQueueWait] = scheduler.queue_wait_ms;
  out.attempted += scheduler.jobs;
  mismatches += scheduler.mismatches;
  if (mismatches > 0) {
    out.fail(str_format("%lld replayed results differ from the served, "
                        "untraced or scheduled bytes",
                        static_cast<long long>(mismatches)));
  }

  // Per-layer timings from the spans; derived ones replace theirs.
  std::map<std::string, std::vector<double>> samples = derived;
  std::map<std::string, double> busy_s;
  std::map<std::string_view, double> layer_ns;
  double request_ns = 0;
  double covered_ns = 0;
  for (const Span& span : tracer.spans()) {
    const auto ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.name == std::string_view(kRequestSpan)) {
      request_ns += ns;
      continue;
    }
    if (span.parent >= 0) {
      covered_ns += ns;
      layer_ns[layer_of(span.name)] += ns;
    }
    for (const LayerTiming& timing : layer_timings()) {
      if (span.name == std::string_view(timing.span)) {
        samples[timing.span].push_back(
            ns / (std::string_view(timing.unit) == "ms" ? 1e6 : 1e3));
        busy_s[timing.span] += ns / 1e9;
      }
    }
  }
  for (const auto& [name, values] : derived) {
    double total = 0;
    for (const double v : values) total += v;
    const bool ms = name == kQueueWait;
    busy_s[name] = total / (ms ? 1e3 : 1e6);
  }

  std::map<std::string, double> values;
  for (const LayerTiming& timing : layer_timings()) {
    const std::string base = std::string(timing.span) + "_" + timing.unit;
    const std::vector<double>& s = samples[timing.span];
    values[base + ".p50"] = tail(s, 0.5);
    values[base + ".p99"] = tail(s, 0.99);
    values[base + ".count"] = static_cast<double>(s.size());
    values[base + ".busy_s"] = busy_s[timing.span];
  }
  const auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const double sim_s = busy_s["sim.run"] + busy_s["sim.batch_run"];
  values["sim.rounds_per_s"] = ratio(static_cast<double>(state.rounds), sim_s);
  values["sim.activations_per_s"] =
      ratio(static_cast<double>(state.activations), sim_s);
  values["sim.batch_coalesced_ratio"] =
      ratio(static_cast<double>(state.batch_coalesced),
            static_cast<double>(state.batch_members));
  const Scheduler::Stats& jobs = scheduler.stats;
  values["scheduler.tree_share_ratio"] =
      jobs.admitted > 0
          ? 1.0 - ratio(static_cast<double>(jobs.trees_built),
                        static_cast<double>(jobs.admitted))
          : 0.0;
  values["scheduler.retry_ratio"] =
      ratio(static_cast<double>(jobs.rejected_full),
            static_cast<double>(jobs.admitted + jobs.rejected_full));
  values["store.hit_ratio"] = ratio(static_cast<double>(state.store_hits),
                                    static_cast<double>(state.store_gets));
  std::int64_t hits = 0;
  std::int64_t lookups = 0;
  std::int64_t evictions = 0;
  for (const Node& node : state.nodes) {
    const ResultCache::Stats stats = node.cache->stats();
    hits += stats.hits;
    lookups += stats.hits + stats.misses;
    evictions += stats.evictions;
  }
  values["cache.hit_ratio"] =
      ratio(static_cast<double>(hits), static_cast<double>(lookups));
  values["cache.evictions"] = static_cast<double>(evictions);
  std::int64_t owned = 0;
  std::int64_t busiest = 0;
  for (const std::int64_t count : state.owner_counts) {
    owned += count;
    busiest = std::max(busiest, count);
  }
  // Busiest shard's share against the ideal 1/N; 0 without a ring.
  values["cluster.balance"] =
      state.ring ? ratio(static_cast<double>(busiest) *
                             static_cast<double>(state.owner_counts.size()),
                         static_cast<double>(owned))
                 : 0.0;
  values["loadgen.late_p99_ms"] = tail(late_ms, 0.99);
  values["loadgen.backlog_growth"] = backlog_growth_ms(late_ms);
  values["trace.overhead_ratio"] =
      ratio(static_cast<double>(traced.busy_ns - quiet.busy_ns),
            static_cast<double>(quiet.busy_ns));
  values["trace.coverage"] = ratio(covered_ns, request_ns);
  for (const char* layer :
       {"protocol", "cache", "store", "graph", "sim", "cluster"}) {
    values[std::string(layer) + ".self_share"] =
        ratio(layer_ns[layer], request_ns);
  }
  for (const MetricDef& def : per_layer_metrics()) {
    const auto it = values.find(def.name);
    BFDN_CHECK(it != values.end(), "no value for " + def.name);
    out.metrics.push_back({def.name, def.unit, it->second});
  }

  std::filesystem::create_directories(trace_dir);
  const std::string path = trace_dir + "/" + spec.name + ".trace.json";
  write_chrome_trace(path, tracer.spans(), spec.name);
  remove_tree(dir);
  out.notes.push_back(str_format(
      "replayed %lld requests in %.3f s traced, %.3f s untraced; "
      "%lld through the scheduler; %zu spans -> %s",
      static_cast<long long>(replayed_n),
      static_cast<double>(traced.busy_ns) / 1e9,
      static_cast<double>(quiet.busy_ns) / 1e9,
      static_cast<long long>(scheduler.jobs), tracer.size(), path.c_str()));
  return out;
}

}  // namespace bfdn::bench
