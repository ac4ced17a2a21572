#!/usr/bin/env bash
# Builds everything, runs the full test suite, every figure bench, the
# ablations, and the examples; tees the outputs the repo's docs reference.
set -uo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  [ -x "$b" ] || continue
  echo "### $b" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
done

for e in build/examples/*; do
  [ -x "$e" ] || continue
  echo "=== $e ==="
  "$e"
done

# Determinism gate: same-seed runs must be byte-identical.
scripts/bit_identity.sh
