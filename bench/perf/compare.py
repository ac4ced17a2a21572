#!/usr/bin/env python3
"""Compares two suite results (run.sh --out A.json, then B.json).

For every (workload, end-to-end metric) pair it prints each side's median
and quartiles over its untraced runs and judges B against A with the bounds
in BENCHMARK.json:

  ok          B's median is no worse than A's by more than the bound
  REGRESSION  B's median is worse by more than the bound and both sides'
              spreads (quartile distance / median) are within the bound
  unresolved  a side's spread exceeds the bound, so the runs cannot tell a
              change from noise (unless every B run beats every A run)

The BENCHMARK.json bounds also have to cover the spread between seeds,
because a benchmark run compares medians over several seeds. When both
suites ran the same inputs (seed and scale), the simulated metrics repeat
exactly, so any difference in them is real and they are judged against
EXACT_BOUND instead, when that is tighter.

Exits 1 on any regression. Comparing two result files of the same commit
is the self-agreement check: with --same-commit, differing simulated
digests fail too.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# End-to-end metrics computed from simulated time, and their bound when
# both suites ran the same inputs.
SIMULATED = {"job_p50_s", "job_p99_s", "jobs_ok_frac"}
EXACT_BOUND = 0.005


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def judge(a, b, bound, lower_is_better):
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    worse = change if lower_is_better else -change
    if lower_is_better:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    noisy = max(spread(a), spread(b)) > bound
    if noisy and not all_better:
        return "unresolved", change
    if worse > bound:
        return "REGRESSION", change
    return "ok", change


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    ap.add_argument("--same-commit", action="store_true",
                    help="also require identical simulated digests")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bounds = json.load(f)["end_to_end"]
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)

    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    failed = False
    print(f"{'workload':15} {'metric':13} {'A q1/median/q3':>33} "
          f"{'B q1/median/q3':>33} {'change':>8} {'bound':>6}  verdict")
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            print(f"{w}: missing from {args.b}")
            failed = True
            continue
        for m in bounds:
            name = m["name"]
            va = [run[name] for run in wa["runs"]]
            vb = [run[name] for run in wb["runs"]]
            bound = m["bound"]
            if same_inputs and name in SIMULATED:
                bound = min(bound, EXACT_BOUND)
            verdict, change = judge(va, vb, bound, m["better"] == "lower")
            failed |= verdict == "REGRESSION"
            qa = "/".join(f"{x:.4g}" for x in quartiles(va))
            qb = "/".join(f"{x:.4g}" for x in quartiles(vb))
            print(f"{w:15} {name:13} {qa:>33} {qb:>33} {change:+8.2%} "
                  f"{bound:6.1%}  {verdict}")
        same = wa["digest"] == wb["digest"]
        print(f"{w:15} digest        {wa['digest']} "
              f"{'==' if same else '!='} {wb['digest']}")
        if args.same_commit and not same:
            failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
