#!/usr/bin/env bash
# End-to-end benchmark entry point.  Builds bench_e2e (RelWithDebInfo,
# from ../../src, into .bench_build/e2e at the repository root) when
# needed; build output goes to stderr.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is its summary JSON.
#   bash bench/e2e/run.sh [--seed N] [--seconds S]
#       every workload of BENCHMARK.json untraced, then every one traced.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/e2e"

jobs=$(nproc)
if ((jobs > 4)); then jobs=4; fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_e2e -j "$jobs" >&2

rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$build/bench_e2e" "$@" --git-rev "$rev"
  fi
done

workloads=$(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$root/BENCHMARK.json")
status=0
for trace in 0 1; do
  for w in $workloads; do
    "$build/bench_e2e" --workload "$w" --trace "$trace" "$@" --git-rev "$rev" || status=1
  done
done
exit "$status"
