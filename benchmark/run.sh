#!/usr/bin/env bash
# Builds bfdn_bench, bfdn_serve and bfdn_route into build/benchmark and
# runs the benchmark. With no arguments: every workload once, then a
# ledger. See benchmark/README.md for the other modes.
#
#   benchmark/run.sh
#   benchmark/run.sh --workload hit-storm --seed 3 --seconds 10 --trace 0
#   benchmark/run.sh --trace=traces/            per-layer metrics
#   benchmark/run.sh --repeat=5 --out=a.json
#   benchmark/run.sh --compare=a.json,b.json
#   benchmark/run.sh --self-test | --smoke
#
# Build output goes to stderr; the last line on stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/build/benchmark"
mkdir -p "$build/tmp"
# Keep the compiler's temporary files inside the checkout.
export TMPDIR="$build/tmp"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" -j "$(nproc)" \
  --target bfdn_bench bfdn_serve bfdn_route >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
digest="$(cd "$root" && find src tools benchmark CMakeLists.txt -type f \
  \( -name '*.cpp' -o -name '*.h' -o -name 'CMakeLists.txt' \) \
  | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"

exec "$build/bfdn_bench" \
  --bin-dir="$build/bfdn/tools" \
  --work-dir="$build/work" \
  --benchmark-json="$root/BENCHMARK.json" \
  --commit="$commit" --source-digest="$digest" "$@"
