#!/usr/bin/env python3
"""Compare two directories of end-to-end benchmark results.

    python3 bench/e2e/bench_diff.py PARENT_DIR CHANGE_DIR [--benchmark PATH]

Each directory holds the result files the benchmark writes
(<workload>-s<seed>-t<trace>.json, e.g. .bench_build/e2e/results/),
one per run, for the parent commit and for the change. Runs are paired
by seed, so produce them alternating the commits seed by seed: the host
drifts over minutes, and only a pair run back to back compares like
with like. Each header records when its run started; unless the two
runs of every pair started next to each other, better and worse read as
unresolved. Runs whose headers differ in run length, build type or
kernel arch are refused. For every workload x end-to-end metric the
tool prints both sides' medians and quartiles, the pairs the change
wins and a verdict, using BENCHMARK.json's bounds:

  better      the change wins >= 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              own interquartile range;
  unresolved  the parent's spread (IQR / median) is wider than the
              bound and not every change run beats every parent run, or
              the change's median is worse by more than the bound but it
              loses fewer than 9/10 of the pairs;
  worse       the change's median is worse than the parent's by more
              than the metric's bound and it loses >= 9/10 of the pairs;
  unchanged   otherwise.

Per-layer metrics (traced runs) have no bound; they are listed with
their medians and the share of pairs the change wins. The "quality"
section (final accuracy, rounds to target, simulated time and energy to
target) is deterministic per seed and reported as identical or not.

Exits 1 when any end-to-end metric is worse, or when a change run is
incorrect or fails more operations than the parent run of its seed.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

NAME = re.compile(r"^(?P<workload>.+)-s(?P<seed>\d+)-t(?P<trace>[01])\.json$")
# Header fields that must agree for two runs to be compared.
SAME_SETUP = ("seconds", "build_type", "kernel_arch")


def load(directory):
    """{(workload, trace): {seed: result}} for every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        m = NAME.match(os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            result = json.load(f)
        key = (m["workload"], m["trace"] == "1")
        runs.setdefault(key, {})[int(m["seed"])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, better_is_higher, bound):
    """One of better / worse / unresolved / unchanged (see module doc)."""
    sign = 1.0 if better_is_higher else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(pairs) and gain > p_hi - p_lo:
        return "better", wins
    if bound is None:
        return "unchanged", wins
    if p_med and (p_hi - p_lo) / abs(p_med) > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return ("worse" if losses >= 0.9 * len(pairs) else "unresolved"), wins
    return "unchanged", wins


def alternated(p_runs, c_runs, seeds):
    """True when the two runs of every pair started next to each other:
    no other run of the workload started between them."""
    pairs = []
    for s in seeds:
        starts = [r["header"].get("started_unix_s")
                  for r in (p_runs[s], c_runs[s])]
        if None in starts:
            return False
        pairs.append(sorted(float(t) for t in starts))
    every = [t for pair in pairs for t in pair]
    return not any(lo < t < hi for lo, hi in pairs for t in every)


def fmt(v):
    return "%.4g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    parent = load(args.parent)
    change = load(args.change)
    if not parent or not change:
        sys.exit("bench_diff: no result files in %s or %s"
                 % (args.parent, args.change))

    regressed = False
    for key in sorted(set(parent) | set(change)):
        workload, traced = key
        p_runs, c_runs = parent.get(key, {}), change.get(key, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        label = "%s (%s)" % (workload, "per-layer" if traced else "end-to-end")
        print("\n== %s: %d parent runs, %d change runs, %d pairs"
              % (label, len(p_runs), len(c_runs), len(seeds)))
        if not seeds:
            print("   no runs with a common seed; nothing to compare")
            continue
        for s in seeds:
            p, c = p_runs[s], c_runs[s]
            differ = [f for f in SAME_SETUP
                      if p["header"].get(f) != c["header"].get(f)]
            if differ:
                sys.exit("bench_diff: %s seed %d: the runs differ in %s; "
                         "refusing to compare" % (label, s, ", ".join(differ)))
            if not c["correct"] or c["failed"] > p["failed"]:
                regressed = True
                print("   seed %d: change correct=%s failed=%d (parent %d)"
                      % (s, c["correct"], c["failed"], p["failed"]))
            if not traced and p.get("quality") != c.get("quality"):
                print("   seed %d: quality differs: parent %s change %s"
                      % (s, p.get("quality"), c.get("quality")))
        if not traced:
            same = all(p_runs[s].get("quality") == c_runs[s].get("quality")
                       for s in seeds)
            print("   quality: %s" % ("identical" if same else "CHANGED"))
        paired = alternated(p_runs, c_runs, seeds)
        if not paired:
            print("   the pairs did not run one after the other, so host "
                  "drift cannot be told from a change: better and worse "
                  "read as unresolved")

        specs = layers if traced else e2e
        print("   %-28s %-21s %-21s %-6s %s"
              % ("metric", "parent med [q1,q3]", "change med [q1,q3]",
                 "wins", "verdict"))
        for name, spec in specs.items():
            pairs = [(p_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"])
                     for s in seeds
                     if name in p_runs[s]["metrics"]
                     and name in c_runs[s]["metrics"]]
            if not pairs:
                continue
            pv = [p for p, _ in pairs]
            cv = [c for _, c in pairs]
            result, wins = verdict(pv, cv, pairs, spec["better"] == "higher",
                                   spec.get("bound"))
            if not paired and result in ("better", "worse"):
                result = "unresolved"
            if result == "worse" and not traced:
                regressed = True
            p_lo, p_hi = quartiles(pv)
            c_lo, c_hi = quartiles(cv)
            print("   %-28s %-21s %-21s %-6s %s"
                  % (name,
                     "%s [%s,%s]" % (fmt(statistics.median(pv)), fmt(p_lo),
                                     fmt(p_hi)),
                     "%s [%s,%s]" % (fmt(statistics.median(cv)), fmt(c_lo),
                                     fmt(c_hi)),
                     "%d/%d" % (wins, len(pairs)),
                     result if not traced or result == "better" else "-"))
    print("\nbench_diff: %s" % ("REGRESSION" if regressed else "no regression"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
