#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change (README.md).

  benchmark/compare.py BASE.json... -- NEW.json...

Each file is a results file written by `run.sh --out FILE`. Runs pair up
in the order given (BASE[i] with NEW[i]); alternate which side runs first
when making them. For every workload and end-to-end metric it prints each
side's median and quartiles and one verdict, using the metric's direction
and bound from BENCHMARK.json:

  better      at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), and the medians differ by
              more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every run of the change beats every run of
              the parent;
  unchanged   otherwise.

Exits 1 when any verdict is `worse` or a side has an incorrect run.
"""
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load(paths):
    """workload -> metric -> [value per file]; and whether all were correct."""
    values, correct = {}, True
    for path in paths:
        with open(path) as f:
            results = json.load(f)
        for name, w in results["workloads"].items():
            correct = correct and w["correct"]
            for metric, m in w["end_to_end"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(
                    m["value"])
    return values, correct


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    gain = lambda b, n: sign * (n - b)  # > 0: the change is better
    wins = sum(gain(b, n) > 0 for b, n in zip(base, new))
    pairs = min(len(base), len(new))
    b_med, n_med = statistics.median(base), statistics.median(new)
    b_q1, b_q3 = quartiles(base)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and gain(b_med, n_med) > b_q3 - b_q1):
        return "better"
    if -gain(b_med, n_med) > bound * abs(b_med):
        return "worse"
    all_better = all(gain(b, n) > 0 for b in base for n in new)
    if b_q3 - b_q1 > bound * abs(b_med) and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base_paths, new_paths = argv[:split], argv[split + 1:]
    if not base_paths or not new_paths:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, base_ok = load(base_paths)
    new, new_ok = load(new_paths)

    worse = False
    print("%-20s %-18s %-36s %-36s %s" % ("workload", "metric",
                                          "base median [q1, q3]",
                                          "new median [q1, q3]", "verdict"))
    for workload in base:
        for name, m in metrics.items():
            b = base[workload].get(name)
            n = new.get(workload, {}).get(name)
            if not b or not n:
                print("%-20s %-18s missing on one side" % (workload, name))
                continue
            v = verdict(b, n, m["better"], m["bound"])
            worse = worse or v == "worse"
            side = lambda xs: "%.6g [%.6g, %.6g]" % (statistics.median(xs),
                                                     *quartiles(xs))
            print("%-20s %-18s %-36s %-36s %s" % (workload, name, side(b),
                                                  side(n), v))
    if not (base_ok and new_ok):
        print("an input run was not correct (see its `errors`)")
    return 1 if worse or not (base_ok and new_ok) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
