#!/usr/bin/env python3
"""Compare two sets of zss_bench runs: parent (A) against change (B).

Inputs are JSON-lines files of run records, as `zss_bench --out=FILE` (or
`run.py --out FILE`) appends them. For every workload and end-to-end metric
of BENCHMARK.json it applies this rule:

  * runs are paired by seed (by order when the seeds differ);
  * unresolved  - A's or B's spread (quartile distance over median) is wider
                  than the metric's bound, unless every B run reads better
                  than every A run;
  * improved    - B wins at least 9/10 of the pairs (ties count for neither)
                  and the medians differ by more than A's quartile distance;
  * regressed   - B's median is worse than A's by more than the bound;
  * unchanged   - otherwise.

Traced records' per-layer metrics are listed as medians, without a verdict.
Warns when the two sets ran on hosts whose measured effective cores differ
by more than 25%. Exits 1 when any metric regressed.

  python3 bench/zss_bench/compare.py parent.jsonl change.jsonl
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a, b, direction):
    """True when b reads better than a."""
    return b < a if direction == "lower" else b > a


def verdict(a_runs, b_runs, direction, bound):
    a = [v for _, v in a_runs]
    b = [v for _, v in b_runs]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread_a = (a_q3 - a_q1) / abs(a_med) if a_med else float("inf")
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    a_by_seed = dict(a_runs)
    pairs = [(a_by_seed[s], v) for s, v in b_runs if s in a_by_seed]
    if not pairs:
        pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(x, y, direction))
    all_better = all(better(x, y, direction) for x in a for y in b)
    worse_by = ((b_med - a_med) if direction == "lower" else (a_med - b_med))
    worse_frac = worse_by / abs(a_med) if a_med else 0.0
    if max(spread_a, spread_b) > bound and not all_better:
        v = "unresolved"
    elif (wins >= 0.9 * len(pairs) and better(a_med, b_med, direction)
          and abs(b_med - a_med) > (a_q3 - a_q1)):
        v = "improved"
    elif worse_frac > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, a_med, b_med, spread_a, spread_b, wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    runs = {"A": load(args.parent), "B": load(args.change)}

    cores = {k: statistics.median([r["host"]["effective_cores"] for r in v])
             for k, v in runs.items() if v}
    if len(cores) == 2 and abs(cores["B"] - cores["A"]) > 0.25 * cores["A"]:
        print(f"WARNING: effective cores differ: parent {cores['A']:.2f}, "
              f"change {cores['B']:.2f} — the two sets are not comparable")

    series = defaultdict(lambda: {"A": [], "B": []})
    for side, recs in runs.items():
        for r in recs:
            for name, m in r["metrics"].items():
                series[(r["workload"], r["traced"], name)][side].append(
                    (r["seed"], m["value"]))

    regressed = False
    print(f"{'workload':<22} {'metric':<18} {'verdict':<11} {'parent':>11} "
          f"{'change':>11} {'spreadA':>8} {'spreadB':>8} {'bound':>6} wins")
    for metric in bench["end_to_end"]:
        for (workload, traced, name), s in sorted(series.items()):
            if traced or name != metric["name"] or not s["A"] or not s["B"]:
                continue
            v, a_med, b_med, sa, sb, wins, n = verdict(
                s["A"], s["B"], metric["better"], metric["bound"])
            regressed |= v == "regressed"
            print(f"{workload:<22} {name:<18} {v:<11} {a_med:>11.5g} "
                  f"{b_med:>11.5g} {sa:>8.3f} {sb:>8.3f} "
                  f"{metric['bound']:>6.2f} {wins}/{n}")

    layer_names = [m["name"] for m in bench["per_layer"]]
    traced = [(k, s) for k, s in sorted(series.items())
              if k[1] and k[2] in layer_names and s["A"] and s["B"]]
    if traced:
        print("\nper-layer medians (traced runs, no verdict):")
        for (workload, _, name), s in traced:
            a_med = statistics.median([v for _, v in s["A"]])
            b_med = statistics.median([v for _, v in s["B"]])
            print(f"{workload:<22} {name:<28} {a_med:>12.5g} {b_med:>12.5g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
