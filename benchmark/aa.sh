#!/usr/bin/env bash
# A/A check: do two sets of runs of the *same* build agree within the
# benchmark's own bounds on this host?
#
#   benchmark/aa.sh [--runs K] [--seed S] [--seconds T]
#
# Runs sets A and B of K >= 5 untraced runs per workload (K = 10 is what
# the driver does), run i on seed S+i in both sets. The sets are
# interleaved — A and B back to back, alternating which goes first, and
# round-robin over the workloads — because this host drifts by more
# over ten minutes than the program varies; run in two blocks, the sets
# would measure the drift. Then two traced runs per workload on seed S.
#
# Prints, per (workload, end-to-end metric), both sets' quartiles and
# spreads (IQR / median, the driver's measure), how much worse B's median
# is than A's, and the bound. Exits non-zero when a spread or a
# difference exceeds its bound, when any run failed a check, or when a
# `#` count differs between the two traced runs of a workload.
set -euo pipefail

runs=5
seed=20110325
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "aa.sh: unknown option $1" >&2; exit 2 ;;
    esac
done

source "$(dirname "${BASH_SOURCE[0]}")/env.sh"
out="$CARGO_TARGET_DIR/aa"
rm -rf "$out"
mkdir -p "$out"

for i in $(seq "$runs"); do
    if [ $((i % 2)) = 1 ]; then order=(A B); else order=(B A); fi
    for w in "${workloads[@]}"; do
        for set in "${order[@]}"; do
            echo "aa.sh: run $i/$runs, $w, set $set" >&2
            "$bin" --workload "$w" --seed $((seed + i)) ${pass[@]+"${pass[@]}"} > "$out/$set.$w.$i.json" || true
        done
    done
done
for j in 1 2; do
    for w in "${workloads[@]}"; do
        echo "aa.sh: traced run $j/2, $w" >&2
        "$bin" --workload "$w" --seed "$seed" --trace 1 ${pass[@]+"${pass[@]}"} > "$out/T$j.$w.json" || true
    done
done
"$bin" compare BENCHMARK.json "$out"
