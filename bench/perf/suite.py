#!/usr/bin/env python3
"""Runs the benchmark suite: each workload in its own process --repeats
times untraced, then once traced, one after another.

Prints every metric as `workload metric value unit` (end-to-end metrics as
the median over the untraced runs), checks that every run passed its own
checks and that all runs of a workload share one simulated digest, and
writes one results JSON that compare.py reads. Invoked by run.sh, which
builds the binary first; exits non-zero when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig19_steady", "full_stack", "tenant_backlog", "chaos_recovery"]


def run_once(binary, workload, seed, trace, smoke):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload}: {' '.join(cmd)} exited {proc.returncode}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return info, result


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 scale: both windows shrink twenty-fold")
    ap.add_argument("--out", default=os.path.join(
        HERE, "..", "..", "build-perf", "perf-results.json"))
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    ok = True
    results = {"schema": 1, "seed": args.seed, "smoke": args.smoke,
               "repeats": args.repeats, "workloads": {}}
    for w in args.workload or WORKLOADS:
        runs, digests, units = [], set(), {}
        samples = 0
        for _ in range(args.repeats + 1):
            traced = len(runs) == args.repeats
            info, r = run_once(args.binary, w, args.seed, int(traced),
                               args.smoke)
            if not r["correct"]:
                print(f"{w}: {'traced' if traced else 'untraced'} run "
                      "failed its checks", file=sys.stderr)
                ok = False
            digests.add(info["digest"])
            samples = info["job_samples"]
            values = {k: v["value"] for k, v in r["metrics"].items()}
            units.update({k: v["unit"] for k, v in r["metrics"].items()})
            if traced:
                traced_metrics = values
            else:
                runs.append(values)
        if len(digests) != 1:
            print(f"{w}: simulated digests differ across runs: "
                  f"{sorted(digests)}", file=sys.stderr)
            ok = False
        for name in runs[0]:
            med = statistics.median(run[name] for run in runs)
            extra = f" (n={samples})" if name.startswith("job_p") else ""
            print(f"{w} {name} {med!r} {units[name]}{extra}")
        for name, value in traced_metrics.items():
            print(f"{w} {name} {value!r} {units[name]}")
        results["workloads"][w] = {
            "digest": digests.pop() if len(digests) == 1 else None,
            "job_samples": samples, "units": units, "runs": runs,
            "traced": traced_metrics}

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results: {os.path.abspath(args.out)}", file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
