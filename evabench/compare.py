#!/usr/bin/env python3
"""Compare untraced evabench runs of a parent commit and a change.

    python3 evabench/compare.py --parent P1 P2 ... --change C1 C2 ...

Each argument is one run's --out directory (it holds <workload>.json). The
runs pair up in the order given, P1 with C1 and so on; alternate which side
runs first. For every workload and end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles and one verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread is wider than the bound (and not every
              change run beats every parent run), or fewer than 10 pairs
  unchanged   within the bound

failed_frac (failed / attempted, summed over runs) regresses on any
increase. Exits 1 when anything regressed.
"""

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def summary(values):
    return (f"{nearest_rank(values, 50):.6g} [{nearest_rank(values, 25):.6g}, "
            f"{nearest_rank(values, 75):.6g}]")


def load(run_dir):
    results = {}
    for path in Path(run_dir).glob("*.json"):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "result" in doc and not doc["trace"]:
            results[doc["workload"]] = doc["result"]
    return results


def verdict(parent, change, better, bound):
    lower = better == "lower"
    p_med, c_med = nearest_rank(parent, 50), nearest_rank(change, 50)
    p_iqr = nearest_rank(parent, 75) - nearest_rank(parent, 25)
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    change_better = c_med < p_med if lower else c_med > p_med
    worse_by = (c_med - p_med) / p_med * (1 if lower else -1)
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if len(parent) < MIN_PAIRS:
        return "unresolved (fewer than 10 pairs)"
    if (wins >= 0.9 * len(parent) and change_better
            and abs(c_med - p_med) > p_iqr):
        return f"improved ({wins}/{len(parent)} pairs)"
    if p_iqr / abs(p_med) > bound and not all_better:
        return f"unresolved (parent spread {p_iqr / abs(p_med):.3f} > {bound})"
    if worse_by > bound:
        return f"regressed ({worse_by:+.3f} > {bound})"
    return f"unchanged within bound ({worse_by:+.3f})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare: give as many --change runs as --parent runs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parents = [load(d) for d in args.parent]
    changes = [load(d) for d in args.change]

    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if not all(workload in r for r in parents + changes):
            print(f"{workload}: missing from some runs, skipped")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r[workload]["metrics"][name]["value"] for r in parents]
            c = [r[workload]["metrics"][name]["value"] for r in changes]
            v = verdict(p, c, metric["better"], metric["bound"])
            regressed |= v.startswith("regressed")
            print(f"{workload:14s} {name:16s} parent {summary(p)}  "
                  f"change {summary(c)}  {v}")
        frac = [sum(r[workload]["failed"] for r in runs) /
                sum(r[workload]["attempted"] for r in runs)
                for runs in (parents, changes)]
        failed_worse = frac[1] > frac[0]
        regressed |= failed_worse
        print(f"{workload:14s} {'failed_frac':16s} parent {frac[0]:.6g}  "
              f"change {frac[1]:.6g}  "
              f"{'regressed' if failed_worse else 'unchanged or better'}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
