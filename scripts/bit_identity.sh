#!/usr/bin/env bash
# Same-seed bit-identity harness: determinism is the repo's core invariant,
# so any change to the event queue or schedulers must leave simulated-time
# outputs byte-for-byte identical across runs of the same binary.
#
# With no argument, runs each seeded scenario twice and diffs the JSON
# byte-for-byte. To gate a *code change* rather than run-to-run
# nondeterminism, compare against the committed sha256 digests of each
# scenario's output (tests/golden/bit_identity.sha256):
#   scripts/bit_identity.sh --check   # fails if any output digest differs
#   scripts/bit_identity.sh --save    # re-records the digests (re-blessing)
# The digests come from a Release build; the header records the compiler
# and build type they were taken with.
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
GOLDEN="tests/golden/bit_identity.sha256"
MODE="twice"
case "${1:-}" in
  --save) MODE="save" ;;
  --check) MODE="check" ;;
  "") ;;
  *) echo "usage: $0 [--save|--check]" >&2; exit 2 ;;
esac

# Scenario name, then the bench binary and its flags, in golden-file order
# (stdout is the artifact under test).
SCENARIOS=(
  "chaos               bench_chaos_resilience"
  "chaos_corruption    bench_chaos_resilience --corruption"
  "fig19_starkh20      bench_fig19_throughput --slice stark-h 20"
  "fig19_sparkh30      bench_fig19_throughput --slice spark-h 30"
  "overload            bench_overload --pinned"
  "tail_tolerance      bench_tail_tolerance --pinned"
  "remote_memory       bench_remote_memory --pinned"
  "auto_cache          bench_auto_cache --pinned"
  "backlog_storm       bench_overload --backlog"
  "chaos_soak          bench_chaos_resilience --soak"
  "multitenant_fanout  bench_multitenant --pinned"
  "cache_policy        bench_ablation_cache_policy --smoke"
)

for entry in "${SCENARIOS[@]}"; do
  read -r _ bin _ <<< "$entry"
  if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
    echo "bit_identity: missing $BUILD_DIR/bench/$bin (build the bench targets first)" >&2
    exit 2
  fi
done

# "# compiler: ... ; build: ..." — what the digests are only valid for.
toolchain() {
  local cxx type
  cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")
  type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")
  echo "# compiler: $("${cxx:-c++}" --version | head -1); build: ${type:-unknown}"
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fail=0

if [ "$MODE" = "save" ]; then
  toolchain > "$tmp/golden"
fi

names=()
for entry in "${SCENARIOS[@]}"; do
  read -r name bin args <<< "$entry"
  names+=("$name")
  cmd="$BUILD_DIR/bench/$bin $args"
  out="$tmp/$name.json"
  $cmd > "$out" 2>/dev/null
  digest=$(sha256sum "$out" | cut -d' ' -f1)
  case "$MODE" in
    save)
      echo "$digest  $name" >> "$tmp/golden"
      echo "bit_identity: recorded $name ($(wc -c < "$out") bytes)"
      ;;
    check)
      want=$(awk -v n="$name" '$2 == n { print $1 }' "$GOLDEN")
      if [ -z "$want" ]; then
        echo "bit_identity: FAIL $name has no digest in $GOLDEN" >&2
        fail=1
      elif [ "$digest" = "$want" ]; then
        echo "bit_identity: $name matches its golden digest"
      else
        echo "bit_identity: FAIL $name digest $digest != golden $want" >&2
        fail=1
      fi
      ;;
    twice)
      $cmd > "$tmp/$name.2.json" 2>/dev/null
      if cmp -s "$out" "$tmp/$name.2.json"; then
        echo "bit_identity: $name identical across two same-seed runs"
      else
        echo "bit_identity: FAIL $name differs between two same-seed runs" >&2
        fail=1
      fi
      ;;
  esac
done

if [ "$MODE" = "check" ]; then
  # A digest nothing produces any more is lost coverage, not a pass.
  for pinned in $(awk '!/^#/ { print $2 }' "$GOLDEN"); do
    if [[ " ${names[*]} " != *" $pinned "* ]]; then
      echo "bit_identity: FAIL $GOLDEN pins $pinned, which this script no longer runs" >&2
      fail=1
    fi
  done
fi

if [ "$MODE" = "save" ]; then
  mkdir -p "$(dirname "$GOLDEN")"
  cp "$tmp/golden" "$GOLDEN"
  echo "bit_identity: wrote $GOLDEN"
elif [ "$MODE" = "check" ] && [ "$fail" -ne 0 ]; then
  echo "bit_identity: goldens $(head -1 "$GOLDEN" | sed 's/^# //')" >&2
  echo "bit_identity: this    $(toolchain | sed 's/^# //')" >&2
fi

exit $fail
