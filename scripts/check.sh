#!/usr/bin/env sh
# Tier-1 verify plus the correctness gates. Stages run in order and the
# script fails fast (set -eu):
#
#   lint      bfdn_lint over src/ and tools/ — layering back-edges,
#             determinism bans, unordered-container iteration in hashed
#             paths, trace-format drift, lock discipline (acquisition
#             order, annotation coverage, cv misuse) (rules:
#             scripts/lint_rules.json, rationale: docs/LINT.md)
#   tier-1    Release build + full ctest
#   tidy      clang-tidy baseline (skipped with a notice when the binary
#             is not installed — CI installs it)
#   tsa       clang -Werror=thread-safety compile of the whole tree,
#             proving the BFDN_GUARDED_BY/BFDN_REQUIRES contracts
#             (skipped with a notice when clang++ is not installed)
#   asan      ASan/UBSan rebuild + full ctest
#   tsan      ThreadSanitizer build of the concurrent service tier;
#             scheduler_stress_test, service_test, store_test,
#             cluster_test, line_server_test (the connection core
#             both daemons share) and support_test must report zero
#             races
#   fuzz      differential-oracle fuzzer, short fixed-seed burst
#   bench     the five bench_* --smoke gates (hotpath, campaign, async,
#             store, cluster); each JSON document is kept in
#             build/bench-smoke/<bench>.json
#   benchmark served-system benchmark self-test: BENCHMARK.json must
#             name exactly the workloads and metrics bfdn_bench --list
#             reports, then every workload at smoke size
#   service   serve + load mix + SIGTERM drain
#   store     durable-store round trip: serve over a store dir, fill,
#             SIGTERM, restart, require the rewarm first pass to hit
#             the recovered segments
#   fleet     sharded fleet round trip: two shards behind bfdn_route,
#             routed load with a balance gate, shard-ownership probe,
#             kill one shard, require the survivor's keys to keep
#             answering ok (hot key reroutes) and the dead shard's to
#             answer retry
#
# Fast paths: `check.sh --lint-only` runs just lint + tidy (seconds, for
# pre-commit); `check.sh --tsan-only` runs just the tsan stage;
# `check.sh --locks-only` runs just the lock-discipline rules plus the
# clang thread-safety compile. `--require-tools` turns the
# skip-with-notice stages (tidy, tsa) into hard failures when their
# toolchain is missing — CI sets it so a broken clang install cannot
# silently green the gates.
set -eu
cd "$(dirname "$0")/.."

REQUIRE_TOOLS=0

lint_stage() {
  echo "== lint: layering, determinism, trace-format, locks (bfdn_lint) =="
  cmake --preset release > /dev/null
  cmake --build build -j --target bfdn_lint > /dev/null
  ./build/tools/bfdn_lint --root=.
}

locks_lint_stage() {
  echo "== lint: lock discipline only (bfdn_lint --only=locks) =="
  cmake --preset release > /dev/null
  cmake --build build -j --target bfdn_lint > /dev/null
  ./build/tools/bfdn_lint --root=. --only=locks
}

tidy_stage() {
  if command -v clang-tidy > /dev/null 2>&1; then
    echo "== tidy: clang-tidy baseline over src/ and tools/ =="
    find src tools -name '*.cpp' -print0 | xargs -0 -n 8 -P "$(nproc)" \
      clang-tidy -p build --quiet --warnings-as-errors='*'
  elif [ "$REQUIRE_TOOLS" -eq 1 ]; then
    echo "== tidy: clang-tidy not installed and --require-tools set ==" >&2
    exit 1
  else
    echo "== tidy: clang-tidy not installed; skipping (CI runs it) =="
  fi
}

tsa_stage() {
  if command -v clang++ > /dev/null 2>&1; then
    echo "== tsa: clang -Werror=thread-safety compile of the tree =="
    cmake --preset tsa > /dev/null
    cmake --build --preset tsa -j > /dev/null
    echo "tsa: thread-safety contracts hold."
  elif [ "$REQUIRE_TOOLS" -eq 1 ]; then
    echo "== tsa: clang++ not installed and --require-tools set ==" >&2
    exit 1
  else
    echo "== tsa: clang++ not installed; skipping (CI runs it) =="
  fi
}

tsan_stage() {
  echo "== tsan: race detection over the service tier =="
  cmake --preset tsan > /dev/null
  cmake --build --preset tsan -j > /dev/null
  ./build-tsan/tests/scheduler_stress_test
  ./build-tsan/tests/service_test
  ./build-tsan/tests/store_test
  ./build-tsan/tests/cluster_test
  ./build-tsan/tests/line_server_test
  ./build-tsan/tests/support_test
}

MODE=all
for arg in "$@"; do
  case "$arg" in
    --require-tools) REQUIRE_TOOLS=1 ;;
    --lint-only) MODE=lint ;;
    --tsan-only) MODE=tsan ;;
    --locks-only) MODE=locks ;;
    *)
      echo "usage: scripts/check.sh [--lint-only | --tsan-only | --locks-only] [--require-tools]" >&2
      exit 2
      ;;
  esac
done

case "$MODE" in
  lint)
    lint_stage
    tidy_stage
    echo "check.sh: lint gates passed."
    exit 0
    ;;
  tsan)
    tsan_stage
    echo "check.sh: tsan gate passed."
    exit 0
    ;;
  locks)
    locks_lint_stage
    tsa_stage
    echo "check.sh: lock-discipline gates passed."
    exit 0
    ;;
esac

lint_stage

echo "== tier-1: Release build + full ctest =="
cmake --preset release
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

tidy_stage

tsa_stage

echo "== sanitized: ASan/UBSan build + full ctest =="
cmake --preset asan
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

tsan_stage

echo "== fuzz smoke: differential oracle, fixed seed, all cores =="
./build/tools/bfdn_fuzz --budget-s=10 --seed=1 --jobs="$(nproc)"

echo "== async fuzz smoke: every case under an exotic scheduler =="
./build/tools/bfdn_fuzz --budget-s=10 --seed=2 --jobs="$(nproc)" \
  --async-p=1.0 --schedule-p=0.0

echo "== batch fuzz smoke: every case batch-equivalence checked =="
./build/tools/bfdn_fuzz --budget-s=10 --seed=3 --jobs="$(nproc)" \
  --batch-p=1.0

echo "== break-down fuzz smoke: every case under a break-down schedule =="
./build/tools/bfdn_fuzz --budget-s=10 --seed=4 --jobs="$(nproc)" \
  --schedule-p=1.0

# Each smoke's JSON document is kept in build/bench-smoke/<bench>.json.
mkdir -p build/bench-smoke

echo "== bench smoke: fast-forward vs stepped, one Release cell =="
./build/bench/bench_hotpath --smoke > build/bench-smoke/bench_hotpath.json

echo "== bench smoke: campaign coalescing >= 3x solo loop, one cell =="
./build/bench/bench_campaign --smoke > build/bench-smoke/bench_campaign.json

echo "== bench smoke: async scheduler zoo vs lockstep, one cell =="
./build/bench/bench_async --smoke > build/bench-smoke/bench_async.json

echo "== bench smoke: store warm-start, recovery, write-behind =="
./build/bench/bench_store --smoke > build/bench-smoke/bench_store.json

echo "== bench smoke: fleet scaling, hot-key tail, segment ship =="
./build/bench/bench_cluster --smoke > build/bench-smoke/bench_cluster.json

echo "== benchmark self-test: BENCHMARK.json <=> --list, then --smoke =="
./benchmark/run.sh --self-test > /dev/null

echo "== service smoke: serve + load mix + SIGTERM drain =="
rm -f build/serve.port
./build/tools/bfdn_serve --port=0 --port-file=build/serve.port \
  --queue=32 --cache=256 > build/serve.out 2>&1 &
SERVE_PID=$!
tries=0
while [ ! -s build/serve.port ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "bfdn_serve never bound"; exit 1; }
  sleep 0.1
done
# Zero protocol errors and a real hit rate, or bfdn_load exits non-zero.
./build/tools/bfdn_load --port="$(cat build/serve.port)" \
  --connections=4 --cold=32 --requests=200 --hot-set=8 --nodes=1500 \
  --require-hit-rate=0.5 > /dev/null
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"   # graceful drain must exit 0

echo "== store smoke: fill, SIGTERM, restart, rewarm must hit =="
rm -rf build/store-smoke
rm -f build/serve.port build/serve2.port
./build/tools/bfdn_serve --port=0 --port-file=build/serve.port \
  --queue=32 --cache=256 --store-dir=build/store-smoke \
  > build/serve.out 2>&1 &
SERVE_PID=$!
tries=0
while [ ! -s build/serve.port ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "bfdn_serve never bound"; exit 1; }
  sleep 0.1
done
echo "$SERVE_PID" > build/serve.pid
# The restart command drains the first server (flushing its store) and
# boots a second one over the same directory; bfdn_load then replays
# the warm Zipf mix and requires the recovered store to serve it.
cat > build/store-restart.sh << 'RESTART'
#!/usr/bin/env sh
set -eu
kill -TERM "$(cat build/serve.pid)"
while kill -0 "$(cat build/serve.pid)" 2> /dev/null; do sleep 0.1; done
./build/tools/bfdn_serve --port=0 --port-file=build/serve2.port \
  --queue=32 --cache=256 --store-dir=build/store-smoke \
  > build/serve2.out 2>&1 &
echo $! > build/serve.pid
RESTART
chmod +x build/store-restart.sh
./build/tools/bfdn_load --port="$(cat build/serve.port)" \
  --connections=4 --cold=32 --requests=200 --hot-set=8 --nodes=1500 \
  --restart-phase --restart-port-file=build/serve2.port \
  --restart-cmd='./build/store-restart.sh' \
  --require-hit-rate=0.8 > /dev/null
SERVE2_PID="$(cat build/serve.pid)"
kill -TERM "$SERVE2_PID"
# serve2 is the restart script's child, not ours: poll instead of wait.
while kill -0 "$SERVE2_PID" 2> /dev/null; do sleep 0.1; done
rm -rf build/store-smoke

echo "== fleet smoke: route -> load -> kill shard -> reroute =="
SHARD0_PORT=7461
SHARD1_PORT=7462
rm -f build/route.port
./build/tools/bfdn_serve --port="$SHARD0_PORT" --peer-id=0 \
  --peers="$SHARD0_PORT,$SHARD1_PORT" --queue=32 --cache=256 \
  > build/shard0.out 2>&1 &
SHARD0_PID=$!
./build/tools/bfdn_serve --port="$SHARD1_PORT" --peer-id=1 \
  --peers="$SHARD0_PORT,$SHARD1_PORT" --queue=32 --cache=256 \
  > build/shard1.out 2>&1 &
SHARD1_PID=$!
./build/tools/bfdn_route --port=0 --port-file=build/route.port \
  --peers="$SHARD0_PORT,$SHARD1_PORT" --hot-threshold=4 \
  > build/route.out 2>&1 &
ROUTE_PID=$!
for port in "$SHARD0_PORT" "$SHARD1_PORT"; do
  tries=0
  until ./build/tools/bfdn_load --port="$port" \
    --probe='{"type":"stats"}' > /dev/null 2>&1; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "shard $port never bound"; exit 1; }
    sleep 0.1
  done
done
tries=0
while [ ! -s build/route.port ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "bfdn_route never bound"; exit 1; }
  sleep 0.1
done
ROUTE_PORT="$(cat build/route.port)"
# Routed load: zero protocol errors and a balanced forward split across
# the two shards, or bfdn_load exits non-zero.
./build/tools/bfdn_load --port="$ROUTE_PORT" --router \
  --connections=4 --cold=32 --requests=200 --hot-set=8 --nodes=1500 \
  --require-balance=1.6 > /dev/null
# Routing introspection: the router must answer a shard probe with the
# owning peer list.
./build/tools/bfdn_load --port="$ROUTE_PORT" --probe='{"id":"own","type":"shard","family":"comb","nodes":300,"arms":8,"depth":5,"k":4,"seed":1}' \
  | grep -q '"owners":\[' || { echo "shard probe missing owners"; exit 1; }
# Heat one key past the hot threshold so it is replicated to both
# shards, then kill shard 0. The hot key must keep answering ok from
# the surviving replica; cold keys split into ok (survivor-owned) and
# retry (dead-shard-owned) — never a wrong byte, never a hang.
HOT_LINE='{"id":"hot","type":"run","family":"comb","nodes":300,"arms":8,"depth":5,"k":4,"seed":77}'
i=0
while [ "$i" -lt 6 ]; do
  ./build/tools/bfdn_load --port="$ROUTE_PORT" --probe="$HOT_LINE" \
    > /dev/null
  i=$((i + 1))
done
kill -TERM "$SHARD0_PID"
wait "$SHARD0_PID"   # graceful shard drain must exit 0
./build/tools/bfdn_load --port="$ROUTE_PORT" --probe="$HOT_LINE" \
  | grep -q '"status":"ok"' \
  || { echo "hot key did not reroute to the surviving replica"; exit 1; }
saw_ok=0
saw_retry=0
for seed in 1 2 3 4 5 6 7 8; do
  response="$(./build/tools/bfdn_load --port="$ROUTE_PORT" \
    --probe="{\"id\":\"c$seed\",\"type\":\"run\",\"family\":\"comb\",\"nodes\":300,\"arms\":8,\"depth\":5,\"k\":4,\"seed\":$seed}")"
  case "$response" in
    *'"status":"ok"'*) saw_ok=1 ;;
    *'"status":"retry"'*) saw_retry=1 ;;
    *) echo "unexpected fleet response: $response"; exit 1 ;;
  esac
done
[ "$saw_ok" -eq 1 ] && [ "$saw_retry" -eq 1 ] \
  || { echo "fleet kill: expected an ok + retry mix, got ok=$saw_ok retry=$saw_retry"; exit 1; }
kill -TERM "$SHARD1_PID" "$ROUTE_PID"
wait "$SHARD1_PID"   # graceful drains must exit 0
wait "$ROUTE_PID"

echo "check.sh: all gates passed."
