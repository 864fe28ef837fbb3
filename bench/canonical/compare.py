#!/usr/bin/env python3
"""A/B comparison of canonical benchmark runs (python3 standard library only).

    python3 bench/canonical/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records `run.sh --out DIR` saved, one JSON
record per file. For every workload x metric the script prints each side's
median and quartiles, the share of pairs the change wins, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ, in the better direction,
              by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) is wider than the bound,
              and not every change run beats every parent run;
  no worse    otherwise;
  same        every pair reads exactly equal (simulated metrics of a change
              that leaves simulation results alone).

Pairs are formed per workload from runs with the same seed, in file-name
order. Per-layer metrics have no bound and get no verdict. Simulation
outputs must not change, so the script also compares the digests of each
seed pair and the canonical-input digests of all runs, and exits non-zero
when any differ or any metric is worse.
"""

import argparse
import json
import os
import statistics
import sys


def load_records(directory):
    """Returns {(workload, trace): [record, ...]} in file-name order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if record.get("bench") != "canonical":
                    continue
                key = (record["workload"], record["trace"])
                runs.setdefault(key, []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change):
    """Pairs runs of equal seed, in order; unmatched runs are dropped."""
    by_seed = {}
    for record in change:
        by_seed.setdefault(record["seed"], []).append(record)
    out = []
    for record in parent:
        matches = by_seed.get(record["seed"])
        if matches:
            out.append((record, matches.pop(0)))
    return out


def verdict(parent_vals, change_vals, pair_vals, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent_vals)
    _, c_med, _ = quartiles(change_vals)
    wins = sum(1 for p, c in pair_vals if sign * (c - p) > 0)
    win_share = wins / len(pair_vals) if pair_vals else 0.0
    if bound is None:
        return win_share, "-"
    if pair_vals and all(p == c for p, c in pair_vals):
        return win_share, "same"
    gain = sign * (c_med - p_med)
    if pair_vals and win_share >= 0.9 and gain > p_q3 - p_q1:
        return win_share, "improved"
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    if spread > bound:
        if all(sign * (c - p) > 0 for c in change_vals for p in parent_vals):
            return win_share, "no worse"
        return win_share, "unresolved"
    worse_by = -gain / abs(p_med) if p_med else 0.0
    return win_share, "worse" if worse_by > bound else "no worse"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(here, "..", "..", "BENCHMARK.json"),
        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs.update({m["name"]: m for m in benchmark["per_layer"]})

    parent_runs = load_records(args.parent)
    change_runs = load_records(args.change)
    failed = False
    header = (f"{'workload':20s} {'metric':30s} {'parent median [q1, q3]':36s} "
              f"{'change median [q1, q3]':36s} {'wins':>5s}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        parent, change = parent_runs[key], change_runs[key]
        matched = pairs(parent, change)
        same = sum(1 for p, c in matched if p["digest"] == c["digest"])
        for record in parent + change:
            if not record.get("correct", False):
                failed = True
                print(f"{workload}: run with seed {record['seed']} failed its "
                      "output checks")
        for name in parent[0]["metrics"]:
            spec = specs.get(name, {})
            better = spec.get("better", "higher")
            bound = spec.get("bound")
            p_vals = [r["metrics"][name]["value"] for r in parent]
            c_vals = [r["metrics"][name]["value"] for r in change
                      if name in r["metrics"]]
            if not c_vals:
                continue
            pair_vals = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                         for p, c in matched if name in c["metrics"]]
            win_share, result = verdict(p_vals, c_vals, pair_vals, better, bound)
            failed = failed or result == "worse"
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            print(f"{workload:20s} {name:30s} "
                  f"{f'{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]':36s} "
                  f"{f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]':36s} "
                  f"{win_share:5.2f}  {result}")
        label = f"digest (trace {trace})"
        print(f"{workload:20s} {label:30s} {same}/{len(matched)} seed pairs "
              "identical" + ("" if same == len(matched) else "  CHANGED"))
        canonical = {r["canonical_digest"] for r in parent + change}
        label = f"canonical digest (trace {trace})"
        print(f"{workload:20s} {label:30s} " +
              ("identical" if len(canonical) == 1 else "CHANGED"))
        failed = failed or same != len(matched) or len(canonical) != 1
    for key in sorted(set(parent_runs) ^ set(change_runs)):
        print(f"{key[0]} (trace {key[1]}): runs on one side only")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
