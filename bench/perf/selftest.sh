#!/usr/bin/env bash
# Self-test of the benchmark: runs the suite twice at 1/20 scale and checks
# that
#   1. each run reports exactly the BENCHMARK.json metrics (end-to-end ones
#      untraced, per-layer ones traced) for every workload,
#   2. the two suites' simulated digests are equal, and
#   3. compare.py finds no regression between them (A-vs-A).
# Takes about half a minute; writes to build-perf/selftest/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/build-perf/selftest"
mkdir -p "$out"

for side in a b; do
  "$here/run.sh" --smoke --repeats 5 --out "$out/$side.json" >"$out/$side.txt"
done

python3 - "$root/BENCHMARK.json" "$out/a.json" "$out/b.json" <<'EOF'
import json
import sys

bench = json.load(open(sys.argv[1]))
end_to_end = {m["name"] for m in bench["end_to_end"]}
per_layer = {m["name"] for m in bench["per_layer"]}
for path in sys.argv[2:]:
    results = json.load(open(path))["workloads"]
    for w in (w["name"] for w in bench["workloads"]):
        r = results[w]
        for got, want, kind in ((set(r["runs"][0]), end_to_end, "untraced"),
                                (set(r["traced"]), per_layer, "traced")):
            if got != want:
                sys.exit(f"{path}: {w} {kind} metrics differ from "
                         f"BENCHMARK.json: missing {sorted(want - got)}, "
                         f"extra {sorted(got - want)}")
print("selftest: metric names match BENCHMARK.json")
EOF

python3 "$here/compare.py" --same-commit "$out/a.json" "$out/b.json"
echo "selftest: ok"
