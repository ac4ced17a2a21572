#!/usr/bin/env bash
# Outside-in simulator benchmark. Builds a Release tree of src/ plus this
# directory into build-perf/ at the repository root, then either
#
#   measures once (any --trace flag given; the form BENCHMARK.json names):
#     bench/perf/run.sh --workload <name> --seed <n> --seconds <s> --trace 0|1
#   or runs the suite (no --trace flag): every workload (or --workload) in
#   its own process --repeats times untraced, then once traced:
#     bench/perf/run.sh [--seed N] [--repeats R] [--workload W] [--smoke]
#                       [--out results.json]
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-perf"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
cmake --build "$build" --target stark_perf -j "$jobs" >&2

for arg in "$@"; do
  if [[ "$arg" == "--trace" ]]; then
    exec "$build/stark_perf" "$@"
  fi
done
exec python3 "$here/suite.py" --binary "$build/stark_perf" "$@"
