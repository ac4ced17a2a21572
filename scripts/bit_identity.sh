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

# name -> command line (stdout is the artifact under test)
declare -A SCENARIOS=(
  [chaos]="$BUILD_DIR/bench/bench_chaos_resilience"
  [chaos_corruption]="$BUILD_DIR/bench/bench_chaos_resilience --corruption"
  [fig19_starkh20]="$BUILD_DIR/bench/bench_fig19_throughput --slice stark-h 20"
  [fig19_sparkh30]="$BUILD_DIR/bench/bench_fig19_throughput --slice spark-h 30"
  [overload]="$BUILD_DIR/bench/bench_overload --pinned"
  [tail_tolerance]="$BUILD_DIR/bench/bench_tail_tolerance --pinned"
  [remote_memory]="$BUILD_DIR/bench/bench_remote_memory --pinned"
  [auto_cache]="$BUILD_DIR/bench/bench_auto_cache --pinned"
)
NAMES="chaos chaos_corruption fig19_starkh20 fig19_sparkh30 overload tail_tolerance remote_memory auto_cache"

for name in $NAMES; do
  bin=${SCENARIOS[$name]%% *}
  if [ ! -x "$bin" ]; then
    echo "bit_identity: missing $bin (build the bench targets first)" >&2
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

for name in $NAMES; do
  cmd=${SCENARIOS[$name]}
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

if [ "$MODE" = "save" ]; then
  mkdir -p "$(dirname "$GOLDEN")"
  cp "$tmp/golden" "$GOLDEN"
  echo "bit_identity: wrote $GOLDEN"
elif [ "$MODE" = "check" ] && [ "$fail" -ne 0 ]; then
  echo "bit_identity: goldens $(head -1 "$GOLDEN" | sed 's/^# //')" >&2
  echo "bit_identity: this    $(toolchain | sed 's/^# //')" >&2
fi

exit $fail
