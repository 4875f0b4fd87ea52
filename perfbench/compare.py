#!/usr/bin/env python3
"""Compare benchmark result sets from two commits.

Each result set is a directory of run outputs, one file per run, as
written by perfbench/pairs.sh or by hand:

    bash perfbench/run.sh --workload fit-binary --seed 3 --seconds 30 \
        --trace 0 > base/fit-binary-3.out

The last line of a file is the run's result; the line before it carries
the provenance, including the workload name and seed.

    python3 perfbench/compare.py base/ new/

For every workload (one block each) and every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, how often
the new side beat the base side (pairs matched by seed, else every
cross pair), and a verdict:

  regression   the new median is worse than the base median by more
               than the metric's bound
  gain         the new side wins at least 9 in 10 pairs and the medians
               differ by more than the base side's own quartile spread
  unresolved   the base side's quartile spread exceeds the bound and the
               new side neither wins every pair nor regresses
  within bound otherwise

Exit status is 1 when any metric regresses or any run is incorrect.
"""

import json
import os
import statistics
import sys


def load(dirname):
    runs = {}
    for name in sorted(os.listdir(dirname)):
        path = os.path.join(dirname, name)
        if not name.endswith(".out") or not os.path.isfile(path):
            continue
        lines = [l for l in open(path).read().splitlines() if l.strip()]
        if len(lines) < 2:
            print(f"skip {path}: no result line", file=sys.stderr)
            continue
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skip {path}: not a result", file=sys.stderr)
            continue
        prov = detail.get("provenance", {})
        if prov.get("traced"):
            continue
        runs.setdefault(prov["workload"], []).append((prov["seed"], result))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    bench = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
    base, new = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for w in bench["workloads"]:
        name = w["name"]
        b, n = base.get(name, []), new.get(name, [])
        print(f"\n== {name}: {len(b)} base runs, {len(n)} new runs")
        if not b or not n:
            print("   missing runs on one side")
            continue
        for side, runs in (("base", b), ("new", n)):
            wrong = [seed for seed, r in runs if not r["correct"] or r["failed"]]
            if wrong:
                bad = True
                print(f"   {side}: incorrect or failed runs for seeds {wrong}")
        bseeds = {seed: r for seed, r in b}
        pairs = [(bseeds[seed], r) for seed, r in n if seed in bseeds]
        if not pairs:
            pairs = [(rb, rn) for _, rb in b for _, rn in n]
        print(f"   {'metric':18s} {'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} {'change':>8s} {'new wins':>9s}  verdict")
        for m in bench["end_to_end"]:
            key, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            bv = [r["metrics"][key]["value"] for _, r in b]
            nv = [r["metrics"][key]["value"] for _, r in n]
            bq1, bmed, bq3 = quartiles(bv)
            nq1, nmed, nq3 = quartiles(nv)
            better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
            wins = sum(better(rn["metrics"][key]["value"], rb["metrics"][key]["value"]) for rb, rn in pairs)
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse = -change if higher else change
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            if worse > bound:
                verdict, bad = "regression", True
            elif worse < 0 and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > (bq3 - bq1):
                verdict = "gain"
            elif spread > bound and wins < len(pairs):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"   {key:18s} {bmed:12.5g} [{bq1:.4g}, {bq3:.4g}]".ljust(52)
                  + f" {nmed:12.5g} [{nq1:.4g}, {nq3:.4g}]".ljust(33)
                  + f" {change:+8.1%} {wins:4d}/{len(pairs):<4d}  {verdict} (bound {bound:.0%}, {m['unit']})")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
