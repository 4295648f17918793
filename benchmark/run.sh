#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it).
#
#   benchmark/run.sh --workload <name|all> [--seed S] [--seconds T]
#                    [--trace 0|1] [--runs K] [--smoke]
#
# Builds once, then runs each workload in a fresh process, K times.
# Every run prints an info line and then, last, its result line:
# {"correct":…, "attempted":…, "failed":…, "metrics":{…}} — the
# end-to-end metrics with --trace 0, the per-layer metrics with
# --trace 1 (which also writes <target-dir>/trace-<workload>.jsonl).
# The workload may also be given as the first positional argument.
#
# --smoke is the CI mode: tiny inputs, every check on, each workload
# traced and untraced, every output held to BENCHMARK.json; under 30 s.
set -euo pipefail

workload=""
runs=1
smoke=0
trace=()
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        --trace)
            # `--trace 0|1` (the driver's form) or a bare `--trace`.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
                trace=(--trace "$2"); shift 2
            else
                trace=(--trace 1); shift
            fi ;;
        --seed | --seconds) pass+=("$1" "$2"); shift 2 ;;
        -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        *) workload="$1"; shift ;;
    esac
done
if [ -z "$workload" ]; then
    echo "run.sh: --workload <sym-kron|cluster-wiki|sweep-wiki|serve-mix|all> is required" >&2
    exit 2
fi

source "$(dirname "${BASH_SOURCE[0]}")/env.sh"
if [ "$workload" != all ]; then
    workloads=("$workload")
fi

if [ "$smoke" = 1 ]; then
    out="$CARGO_TARGET_DIR/smoke"
    rm -rf "$out"
    mkdir -p "$out"
    for w in "${workloads[@]}"; do
        for t in 0 1; do
            "$bin" --workload "$w" --smoke --trace "$t" ${pass[@]+"${pass[@]}"} | tee "$out/$w.$t.txt"
        done
    done
    "$bin" validate BENCHMARK.json "$out"/*.txt >&2
    exit 0
fi

for w in "${workloads[@]}"; do
    for _ in $(seq "$runs"); do
        "$bin" --workload "$w" ${trace[@]+"${trace[@]}"} ${pass[@]+"${pass[@]}"}
    done
done
