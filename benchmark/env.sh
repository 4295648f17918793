# Sourced by run.sh and aa.sh: finds the repo, builds the benchmark once,
# offline, and sets `bin` to the executable. Build time is never part of
# a measurement: every run starts from the finished binary.
#
# The build goes to CARGO_TARGET_DIR when the caller (the driver) sets
# it, to target/benchmark otherwise; scratch files, the daemon's socket
# and store, and traces all live under that directory, inside the repo.
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/symclust-benchmark"
workloads=(sym-kron cluster-wiki sweep-wiki serve-mix)
