#!/usr/bin/env python3
"""Compares two sets of spitzbench results (standard library only).

    python3 spitzbench/compare.py BASE_DIR NEW_DIR
    python3 spitzbench/compare.py BASE_DIR          # one set: spreads only

Each directory holds result files written by `run.py --out FILE` (or by
spitz_bench --out): JSON holding one result object or a list of them.
For every workload x metric the table shows each set's median and first
and third quartiles (statistics.quantiles(values, n=4)) and the spread,
(Q3 - Q1) / median. With the bounds of BENCHMARK.json's end_to_end
metrics it flags

  SPREAD  a set whose spread is wider than the metric's bound, and
  WORSE   a NEW median worse than BASE's by more than the bound
  BETTER  a NEW median better than BASE's by more than the bound.

Exits 1 when anything is flagged.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory):
    """{(workload, metric): [values]} plus units, over every result file."""
    values, units = {}, {}
    files = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not files:
        sys.exit(f"compare.py: no *.json results in {directory}")
    for path in files:
        with open(path) as f:
            data = json.load(f)
        for result in data if isinstance(data, list) else [data]:
            for name, metric in result["metrics"].items():
                key = (result["workload"], name)
                values.setdefault(key, []).append(metric["value"])
                units[name] = metric["unit"]
    return values, units


def summarize(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0], 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_set(d) for d in sys.argv[1:]]
    units = {}
    for _, u in sets:
        units.update(u)
    keys = sorted(set().union(*(s[0].keys() for s in sets)))

    flagged = 0
    header = f"{'workload':<20} {'metric':<32} {'unit':<6}"
    for i in range(len(sets)):
        header += f" | {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
    print(header + " | bound  flags")
    for workload, name in keys:
        row = f"{workload:<20} {name:<32} {units[name]:<6}"
        medians, flags = [], []
        for values, _ in sets:
            samples = values.get((workload, name))
            if not samples:
                row += " | " + " " * 44
                medians.append(None)
                continue
            median, q1, q3, spread = summarize(samples)
            medians.append(median)
            row += f" | {median:11.4g} {q1:11.4g} {q3:11.4g} {spread:7.3f}"
            metric = bounds.get(name)
            if metric and spread > metric["bound"]:
                flags.append("SPREAD")
        metric = bounds.get(name)
        if metric:
            row += f" | {metric['bound']:<5}"
            if len(sets) == 2 and None not in medians and medians[0]:
                change = (medians[1] - medians[0]) / abs(medians[0])
                if metric["better"] == "higher":
                    change = -change
                if change > metric["bound"]:
                    flags.append("WORSE")
                elif change < -metric["bound"]:
                    flags.append("BETTER")
        else:
            row += " |      "
        flagged += bool(flags)
        print(row + "  " + " ".join(flags))
    print(f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
