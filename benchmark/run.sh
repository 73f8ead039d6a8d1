#!/usr/bin/env bash
# Build the benchmark driver from source and run workloads, each in its
# own process (so peak_rss_mb is per workload).
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke] [--threads N] [--out DIR]
#
# Without --workload every workload runs in turn. Build output goes to
# stderr; each run prints `workload metric value unit` lines and, last,
# one JSON object. Result files land in --out (default
# benchmark/build/results).
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="$here/build"
out="$build/results"
workload=""
forward=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --out) out="${2:?--out needs a directory}"; shift 2 ;;
        *) forward+=("$1"); shift ;;
    esac
done

{
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$build" -j "$(nproc)" --target infless_bench
} 1>&2

mkdir -p "$out"
bench="$build/infless_bench"
if [ -n "$workload" ]; then
    exec "$bench" --workload "$workload" --out "$out" ${forward[@]+"${forward[@]}"}
fi
status=0
for w in $("$bench" --list); do
    "$bench" --workload "$w" --out "$out" ${forward[@]+"${forward[@]}"} || status=1
done
exit "$status"
