#!/usr/bin/env bash
# Bench regression smoke gate: run the full pipeline sweep on the bundled
# example graph, emit BENCH_pipeline.json from its --metrics-out file, and
# compare against the checked-in baseline. Fails on any deterministic
# counter mismatch (nnz, flops, cache, MCL iterations). Clock-free: every
# check below compares counts or bytes; time is measured by benchmark/.
#
# To refresh the baseline after an intentional kernel change:
#   ./scripts/bench_gate.sh || true
#   cp target/bench_gate/BENCH_pipeline.json bench_results/baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="bench_results/baseline.json"
OUT_DIR="target/bench_gate"
mkdir -p "$OUT_DIR"

cargo build --release -q -p symclust-cli -p symclust-bench

./target/release/symclust pipeline \
  --input examples/data/dsbm_small.txt \
  --truth examples/data/dsbm_small.truth.txt \
  --clusterers mlrmcl,metis --k 8 --prune 0.001 \
  --quiet \
  --metrics-out "$OUT_DIR/metrics.json"

./target/release/bench_gate emit "$OUT_DIR/metrics.json" "$OUT_DIR/BENCH_pipeline.json"
./target/release/bench_gate check "$BASELINE" "$OUT_DIR/BENCH_pipeline.json"

# SYRK work lock: the symmetric kernel must do strictly fewer
# multiply-adds than the general kernel on the bundled example, for a
# bit-identical product.
./target/release/bench_gate syrk-check examples/data/dsbm_small.txt

# Artifact-store lock: replaying a symmetrization through a fresh memory
# tier over the on-disk store (a simulated daemon restart) must be a disk
# hit — zero SpGEMM calls, bit-identical matrix.
./target/release/bench_gate serve-check examples/data/dsbm_small.txt

# Out-of-core panel lock: a forced tiny-panel, 1-byte-budget run must
# execute multiple tiles, spill at least once, and stay byte-identical to
# the in-memory product (serial and parallel), while the default in-memory
# run reports zero panel activity.
./target/release/bench_gate panel-check examples/data/dsbm_small.txt

# Out-of-core end-to-end lock: stream a DSBM graph to disk, then run the
# full symmetrize→cluster pipeline with a spill budget at most a quarter
# of the file size — it must spill, finish, and recover the planted
# clusters.
./target/release/bench_gate oom-check
