#!/usr/bin/env python3
"""Summarize or compare sets of benchmark results.

    benchmark/compare.py A/          # spread of one set
    benchmark/compare.py A/ B/       # B (the change) against A (the parent)

A set is a directory of result files written by `run.sh --out DIR`, one
per (workload, seed, traced) run. For each workload and metric the tool
prints the median and quartiles of every set.

With two sets it pairs runs by seed and counts the pairs B wins, then gives
a verdict by the rule of the choosing-metrics method:

  better      B wins at least 9/10 of the pairs and the medians differ by
              more than A's interquartile range
  worse       B's median is worse than A's by more than the bound
  within      neither of the above
  unresolved  A's spread exceeds the bound, unless every B run beats every
              A run

sim_* metrics are deterministic per seed, so they compare for exact
equality per seed instead ("same" or "CHANGED"). Per-layer metrics (traced
runs) have no bound; they get medians and the relative change only.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec():
    """Metric units, directions and bounds from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return metrics


def load_set(directory):
    """{(workload, traced): {metric: {seed: value}}} of one result set."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.startswith("trace_"):
            continue
        data = json.loads(path.read_text())
        if "metrics" not in data or data.get("smoke"):
            continue
        key = (data["workload"], data["trace"])
        per_metric = runs.setdefault(key, {})
        for name, m in data["metrics"].items():
            per_metric.setdefault(name, {})[data["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile range as a share of the median."""
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def fmt(v):
    return f"{v:.6g}"


def summarize(runs, spec):
    print(f"{'workload':<11} {'metric':<34} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  note")
    worst = 0.0
    for (workload, traced), metrics in sorted(runs.items()):
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            s = spread(values)
            bound = spec.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                if s > bound:
                    note = "SPREAD > BOUND"
                elif s > bound / 3:
                    note = "spread > bound/3"
                if name != "setup_s":
                    worst = max(worst, s / bound)
            print(f"{workload:<11} {name:<34} {len(values):>3} {fmt(med):>12} "
                  f"{fmt(q1):>12} {fmt(q3):>12} {s:>8.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}  {note}")
    if worst:
        print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


def verdict(name, a, b, spec):
    """Verdict of B against A for one (workload, metric)."""
    seeds = sorted(set(a) & set(b))
    if name.startswith("sim_"):
        if not seeds:
            return "no common seeds", 0, 0
        changed = [s for s in seeds if a[s] != b[s]]
        return "CHANGED" if changed else "same", len(seeds), 0
    meta = spec.get(name, {})
    lower = meta.get("better", "lower") == "lower"
    bound = meta.get("bound")

    def better(x, y):
        return x < y if lower else x > y

    wins = sum(1 for s in seeds if better(b[s], a[s]))
    va, vb = list(a.values()), list(b.values())
    med_a, med_b = statistics.median(va), statistics.median(vb)
    if bound is None:
        return "-", len(seeds), wins
    q1, q3 = quartiles(va)
    worse_by = (med_b - med_a) / abs(med_a) * (1 if lower else -1)
    if spread(va) > bound and not all(better(x, y) for x in vb for y in va):
        return "unresolved", len(seeds), wins
    if seeds and wins >= 0.9 * len(seeds) and abs(med_b - med_a) > q3 - q1 \
            and better(med_b, med_a):
        return "better", len(seeds), wins
    if worse_by > bound:
        return "worse", len(seeds), wins
    return "within", len(seeds), wins


def compare(runs_a, runs_b, spec):
    print(f"{'workload':<11} {'metric':<34} {'median A':>12} {'q1-q3 A':>25} "
          f"{'median B':>12} {'q1-q3 B':>25} {'change':>8} {'wins':>6}  "
          "verdict")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, traced = key
        for name in runs_a[key]:
            if name not in runs_b[key]:
                continue
            a, b = runs_a[key][name], runs_b[key][name]
            med_a = statistics.median(list(a.values()))
            med_b = statistics.median(list(b.values()))
            qa = quartiles(list(a.values()))
            qb = quartiles(list(b.values()))
            change = (med_b - med_a) / abs(med_a) if med_a else float("nan")
            v, pairs, wins = verdict(name, a, b, spec)
            print(f"{workload:<11} {name:<34} {fmt(med_a):>12} "
                  f"{fmt(qa[0]) + '-' + fmt(qa[1]):>25} {fmt(med_b):>12} "
                  f"{fmt(qb[0]) + '-' + fmt(qb[1]):>25} {change:>8.2%} "
                  f"{f'{wins}/{pairs}':>6}  {v}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    runs_a = load_set(argv[1])
    if not runs_a:
        print(f"no results in {argv[1]}", file=sys.stderr)
        return 1
    if len(argv) == 2:
        summarize(runs_a, spec)
    else:
        compare(runs_a, load_set(argv[2]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
