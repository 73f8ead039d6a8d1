#!/usr/bin/env python3
"""ctest smoke test of the benchmark driver.

    smoke_test.py INFLESS_BENCH BENCHMARK.json

Runs every workload shortened (--smoke) and checks that

  - each run exits 0, reports correct and prints its result as the last
    line of stdout;
  - two untraced runs of one seed give the same digest of the simulated
    outputs, and the traced run gives that digest too;
  - cells-100k gives the same digest on 1 thread and on every hardware
    thread;
  - an untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json and a traced run exactly its per-layer metrics, each
    with the unit BENCHMARK.json gives.
"""

import json
import os
import subprocess
import sys

SEED = "7"


def run(bench, *args):
    proc = subprocess.run([bench, "--seed", SEED, "--smoke", *args],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {args}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next(line.split()[2] for line in lines if " digest " in line)
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {args}: run reported incorrect\n{proc.stderr}")
    return digest, result["metrics"]


def check_metrics(where, printed, expected):
    names = {m["name"]: m["unit"] for m in expected}
    if set(printed) != set(names):
        sys.exit(f"FAIL {where}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(names) - set(printed))}, "
                 f"extra {sorted(set(printed) - set(names))}")
    for name, m in printed.items():
        if m["unit"] != names[name]:
            sys.exit(f"FAIL {where}: {name} unit {m['unit']} != "
                     f"{names[name]}")


def main():
    bench, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = subprocess.run([bench, "--list"], capture_output=True,
                               text=True, check=True).stdout.split()
    if sorted(workloads) != sorted(w["name"] for w in spec["workloads"]):
        sys.exit(f"FAIL: driver workloads {workloads} differ from "
                 "BENCHMARK.json")
    for w in workloads:
        first, e2e = run(bench, "--workload", w, "--trace", "0")
        second, _ = run(bench, "--workload", w, "--trace", "0")
        traced, layers = run(bench, "--workload", w, "--trace", "1")
        if not first == second == traced:
            sys.exit(f"FAIL {w}: digests differ: untraced {first} and "
                     f"{second}, traced {traced}")
        check_metrics(f"{w} untraced", e2e, spec["end_to_end"])
        check_metrics(f"{w} traced", layers, spec["per_layer"])
        if w == "cells-100k":
            serial, _ = run(bench, "--workload", w, "--threads", "1")
            parallel, _ = run(bench, "--workload", w, "--threads",
                              str(os.cpu_count() or 1))
            if not serial == parallel == first:
                sys.exit(f"FAIL {w}: digest depends on thread count: "
                         f"1 thread {serial}, all {parallel}")
        print(f"{w}: digest {first} stable, traced equal, metrics complete")
    print("smoke_test: ok")


if __name__ == "__main__":
    main()
