#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test pass, the
# determinism matrices and the benchmark smoke run. Run from the
# repository root:
#
#   ./scripts/ci.sh              # every stage, in order
#   ./scripts/ci.sh clippy test  # just the named stages
#
# `.github/workflows/ci.yml` invokes the same stages one job each, so the
# stage list below is the single source of truth for what CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(loc fmt clippy check build test fault debug-assertions threads-matrix oom-matrix serve chaos bench-smoke sanitize miri)

# The size watermark ROADMAP judges simplicity PRs by: every line of
# .rs/.sh/.toml under the source roots, then the non-test count (.rs
# lines before a file's first `#[cfg(test)]`, outside `tests/`
# directories) in total and per crate source directory, and the count of
# non-test `pub fn|struct|enum|trait` lines in the crates' sources (the
# public surface every item must earn a consumer for). Reports only.
LOC_ROOTS=(crates src tests scripts vendor)
# Non-test .rs lines under the given roots that match the awk regex $1.
loc_non_test_matching() {
  local pattern="$1"
  shift
  find "$@" -type f -name '*.rs' -not -path '*/tests/*' -not -path 'tests/*' -print0 |
    xargs -0 -r awk -v pat="$pattern" 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
      !t && $0 ~ pat { n++ } END { print n + 0 }' |
    awk '{ s += $1 } END { print s + 0 }'
}
loc_non_test() { loc_non_test_matching '' "$@"; }
stage_loc() {
  local all
  all="$(find "${LOC_ROOTS[@]}" -type f \( -name '*.rs' -o -name '*.sh' -o -name '*.toml' \) -print0 |
    xargs -0 cat | wc -l)"
  echo "loc: all lines (.rs/.sh/.toml under ${LOC_ROOTS[*]}): $all"
  echo "loc: non-test .rs lines: $(loc_non_test "${LOC_ROOTS[@]}")"
  local dir
  for dir in crates/*/src src; do
    printf 'loc:   %-24s %6d\n' "$dir" "$(loc_non_test "$dir")"
  done
  echo "loc: non-test pub fn|struct|enum|trait lines (crates/*/src src):" \
    "$(loc_non_test_matching '^[[:space:]]*pub (fn|struct|enum|trait) ' crates/*/src src)"
}
stage_fmt() { cargo fmt --all -- --check; }
stage_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }
# Repo-invariant lint rules + the exhaustive scheduler and serve-lifecycle
# model checks (DESIGN.md §13, §18). Runs first among the heavy stages: it
# needs only the dependency-free symclust-check crate, so contract
# violations fail fast.
stage_check() {
  cargo run -q -p symclust-check -- lint
  cargo run -q -p symclust-check -- sched-model
  # The sweep must include the read-lane scenarios, not just pass.
  local sweep
  sweep="$(cargo run -q -p symclust-check -- serve-model)"
  echo "$sweep"
  for scenario in read-lane-passes-stuck-worker read-lane-refused-by-drain; do
    grep -q "$scenario" <<<"$sweep" || {
      echo "check: serve-model did not sweep $scenario" >&2
      return 1
    }
  done
}
stage_build() { cargo build --release; }
# One workspace pass covers the tier-1 crates too; the old separate
# `cargo test -q` stage was a strict subset of this one.
stage_test() { cargo test -q --workspace; }
stage_fault() { cargo test -q -p symclust-engine --features fault-injection; }
# Chaos-hardening gate (DESIGN.md §15): the store + cli test suites under
# the deterministic I/O fault injector, then the full scripted
# kill-and-restart sweep against a real daemon over a real socket. The
# sweep fails on any crash-consistency violation: a corrupt blob served,
# a torn stats.json, a replay that is not byte-identical, or an LRU
# budget overrun after recovery.
stage_chaos() {
  # One test thread: the armed fault schedule is process-global, and the
  # store's ordinary filesystem tests (which hold no FAULT_TEST_LOCK)
  # would otherwise consume the operations an armed test is counting.
  cargo test -q -p symclust-store --features fault-injection -- --test-threads=1
  cargo test -q -p symclust-cli --features fault-injection
  cargo build --release -q -p symclust-cli --features fault-injection
  ./target/release/symclust chaos --seed 42 --cycles 25
}
# Release arithmetic with the debug_assert!s and overflow checks left in:
# the engine suite; the cluster suite so that the row runner's "epilogue
# leaves ascending columns" assertion and the R-MCL epilogue's
# bit-equality property tests run against optimised floating point; and
# the sparse suite, so the kernels' bit-identity property tests and the
# SYRK scatter's touched-list length run under overflow checks.
stage_debug_assertions() {
  RUSTFLAGS="${RUSTFLAGS:-} -C debug-assertions=on" \
    cargo test -q --release -p symclust-engine -p symclust-cluster -p symclust-sparse
}
# The repo's benchmark (BENCHMARK.json, benchmark/README.md) is a package
# of its own that compiles against the library's public names. Its unit
# tests plus its smoke mode — every workload, traced and untraced, on tiny
# inputs with every check on — catch a refactor that breaks that compile
# surface or a fingerprint check before the benchmark pipeline does.
stage_bench_smoke() {
  cargo test -q --offline --manifest-path benchmark/Cargo.toml
  benchmark/run.sh all --smoke
}
# Daemon smoke over a real unix socket: upload the bundled graph, cold-
# compute one symmetrization and one clustering, restart the daemon over
# the same store, and require the identical requests to come back
# byte-identical — twice each: the first from the disk tier (a store
# hit, no recompute), the second from L1 (no further store hit).
SERVE_PID=""
serve_cleanup() { [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; }
serve_wait_ready() {
  local sock="$1" log="$2"
  for _ in $(seq 1 200); do
    [ -S "$sock" ] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || {
      echo "serve: daemon exited before binding:" >&2
      cat "$log" >&2
      return 1
    }
    sleep 0.05
  done
  echo "serve: daemon never became ready:" >&2
  cat "$log" >&2
  return 1
}
stage_serve() {
  cargo build --release -q -p symclust-cli
  trap serve_cleanup EXIT
  local dir=target/serve_ci
  rm -rf "$dir"
  mkdir -p "$dir"
  local sock="$dir/serve.sock" store="$dir/store" log="$dir/serve.log"
  local client=(./target/release/symclust client --socket "$sock")

  ./target/release/symclust serve --socket "$sock" --store "$store" >"$log" 2>&1 &
  SERVE_PID=$!
  serve_wait_ready "$sock" "$log"
  local upload graph r1
  upload="$("${client[@]}" --op upload-graph --edges-file examples/data/dsbm_small.txt)"
  graph="$(sed -n 's/.*"graph":"\([0-9a-f]*\)".*/\1/p' <<<"$upload")"
  [ -n "$graph" ] || {
    echo "serve: no graph key in: $upload" >&2
    return 1
  }
  local sym=(--op symmetrize --graph "$graph" --method bib)
  local cluster=(--op cluster --graph "$graph" --method bib --algo metis --k 4)
  local r1 c1
  r1="$("${client[@]}" "${sym[@]}")"
  c1="$("${client[@]}" "${cluster[@]}")"
  "${client[@]}" --op shutdown >/dev/null
  wait "$SERVE_PID"

  ./target/release/symclust serve --socket "$sock" --store "$store" >"$log" 2>&1 &
  SERVE_PID=$!
  serve_wait_ready "$sock" "$log"
  # store-hits after each of: symmetrize x2, cluster x2.
  store_hits() {
    sed -n 's/.*"store-hits":\([0-9]*\).*/\1/p' <<<"$("${client[@]}" --op stats)"
  }
  local r2 r3 c2 c3 h0 h1 h2 h3 h4
  h0="$(store_hits)"
  r2="$("${client[@]}" "${sym[@]}")"
  h1="$(store_hits)"
  r3="$("${client[@]}" "${sym[@]}")"
  h2="$(store_hits)"
  c2="$("${client[@]}" "${cluster[@]}")"
  h3="$(store_hits)"
  c3="$("${client[@]}" "${cluster[@]}")"
  h4="$(store_hits)"
  "${client[@]}" --op shutdown >/dev/null
  wait "$SERVE_PID"
  SERVE_PID=""
  [ "$r1" = "$r2" ] && [ "$r1" = "$r3" ] && [ "$c1" = "$c2" ] && [ "$c1" = "$c3" ] || {
    echo "serve: responses differ across restart:" >&2
    printf '  %s\n' "$r1" "$r2" "$r3" "$c1" "$c2" "$c3" >&2
    return 1
  }
  [ "$h1" -gt "$h0" ] && [ "$h3" -gt "$h2" ] || {
    echo "serve: expected store hits after restart, got $h0 $h1 $h2 $h3 $h4" >&2
    return 1
  }
  [ "$h2" = "$h1" ] && [ "$h4" = "$h3" ] || {
    echo "serve: a repeated request went back to the store: $h0 $h1 $h2 $h3 $h4" >&2
    return 1
  }
}
# Scheduling-determinism matrix: the kernel/symmetrizer tests and the
# root golden-bytes and golden-counts tests must pass with the SpGEMM
# thread default forced serial and forced 4-way, since output (and every
# deterministic counter) is spec'd bit-identical for any thread count.
stage_threads_matrix() {
  for n in 1 4; do
    echo "--- SYMCLUST_THREADS=$n"
    SYMCLUST_THREADS="$n" cargo test -q -p symclust-sparse -p symclust-core
    SYMCLUST_THREADS="$n" cargo test -q -p symclust --test golden_bytes --test golden_counts
  done
}
# Out-of-core determinism matrix: the same kernel/symmetrizer suites and
# the root golden-bytes test must pass with the panel path engaged through
# the environment — small panels, with and without a starvation-level
# spill byte budget — because the out-of-core path is spec'd bit-identical
# to the in-memory one for any panel size and any budget (DESIGN.md §17).
# Then, once, the ignored end-to-end out-of-core lock (a streamed DSBM
# under a spill budget a quarter of its file size), which needs --release.
stage_oom_matrix() {
  for budget in "" 1; do
    for rows in 7 64; do
      echo "--- SYMCLUST_PANEL_ROWS=$rows SYMCLUST_MEMORY_BUDGET=${budget:-unset}"
      SYMCLUST_PANEL_ROWS="$rows" SYMCLUST_MEMORY_BUDGET="$budget" \
        cargo test -q -p symclust-sparse -p symclust-core
      SYMCLUST_PANEL_ROWS="$rows" SYMCLUST_MEMORY_BUDGET="$budget" \
        cargo test -q -p symclust --test golden_bytes
    done
  done
  echo "--- out-of-core pipeline lock"
  cargo test --release -q -p symclust --test locks -- --ignored
}

# Sanitizer pass (DESIGN.md §18): ThreadSanitizer, then AddressSanitizer,
# over the concurrency-heavy suites — the sparse scheduler / accumulator /
# cancellation lib tests, the store crate, and the daemon end-to-end
# suites (the daemon binary itself runs instrumented). Requires a nightly
# toolchain (-Zsanitizer is unstable); skips cleanly when none is
# installed — the GitHub job installs one, so CI always runs it.
#
# TSan runs under scripts/tsan.supp: against a prebuilt (uninstrumented)
# standard library, std-internal synchronization — scoped-thread joins,
# mpsc channels, condvars — is invisible to TSan, which then reports
# false races whose every frame sits in std or test-harness code. The
# suppressions are anchored on those frames; a real race in library code
# carries symclust_* frames and still reports. When rust-src is
# available, std is rebuilt instrumented (-Zbuild-std) and the
# suppression file is inert belt-and-braces.
SANITIZE_SUITES=(-p symclust-sparse -p symclust-store -p symclust-cli)
sanitize_run() {
  local name="$1" zflag="$2" tdir="$3"
  shift 3
  echo "--- $name"
  # --tests: doctests are compiled by rustdoc, which does not see
  # RUSTFLAGS and so cannot link the sanitized rlibs.
  RUSTFLAGS="${RUSTFLAGS:-} -Z sanitizer=$zflag -C unsafe-allow-abi-mismatch=sanitizer" \
    rustup run nightly cargo test -q --tests \
    --target x86_64-unknown-linux-gnu --target-dir "target/$tdir" \
    "$@" "${SANITIZE_SUITES[@]}"
}
stage_sanitize() {
  if ! rustup run nightly cargo --version >/dev/null 2>&1; then
    echo "sanitize: no nightly toolchain installed; stage skipped"
    return 0
  fi
  local build_std=()
  if [ -d "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library" ]; then
    build_std=(-Zbuild-std)
  fi
  TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp" \
    sanitize_run tsan thread tsan "${build_std[@]}"
  sanitize_run asan address asan "${build_std[@]}"
}
# Miri gate (DESIGN.md §18): the curated concurrency-core subset — the
# work-stealing scheduler, cancellation tokens, and SpGEMM accumulators —
# runs as a *gating* check (it is minutes, not hours). The full-workspace
# miri sweep stays a nightly allow-failure job in ci.yml. Skips cleanly
# when the miri component is not installed locally.
stage_miri() {
  if ! rustup run nightly cargo miri --version >/dev/null 2>&1; then
    echo "miri: component not installed; stage skipped"
    return 0
  fi
  MIRIFLAGS="-Zmiri-strict-provenance" \
    rustup run nightly cargo miri test -p symclust-sparse --lib \
    sched:: cancel:: accum::
}

run_stage() {
  local name="$1"
  local fn="stage_${name//-/_}"
  if ! declare -F "$fn" >/dev/null; then
    echo "ci.sh: unknown stage '$name' (stages: ${ALL_STAGES[*]})" >&2
    exit 2
  fi
  echo "==> $name"
  local start=$SECONDS
  "$fn"
  echo "==> $name passed in $((SECONDS - start))s"
}

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=("${ALL_STAGES[@]}")
fi

total_start=$SECONDS
for stage in "${stages[@]}"; do
  run_stage "$stage"
done
echo "CI gate passed in $((SECONDS - total_start))s (${stages[*]})."
