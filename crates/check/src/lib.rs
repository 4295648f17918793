#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Correctness tooling for the `symclust` workspace (DESIGN.md §13, §18).
//!
//! Four pillars live here; a fifth (CSR structural validators) lives in
//! `symclust-sparse` next to the data structure it validates:
//!
//! * [`lint`] — a dependency-free lint driver for the three contracts no
//!   compiler lint can state: cancellation plumbing on public kernels,
//!   purity of the engine's and store's cache-key / fingerprint code, and
//!   a reason-carrying audit of every `Ordering::Relaxed` atomic site.
//!   The rest is left to the compiler: clippy denies `unwrap`/`expect` in
//!   library code and raw `std::fs` in the store and sparse crates, and
//!   the tier-1 test `tests/taxonomy.rs` holds the metric names and error
//!   codes to DESIGN.md §11 and §14.
//! * [`lexer`] — the token-stream lexer behind the lint rules: a small
//!   Rust tokenizer handling line/nested-block comments, strings, raw
//!   strings, char literals, and lifetimes, replacing the old byte-scan.
//! * [`schedmodel`] — an exhaustive interleaving model checker for the
//!   work-stealing `(lo, hi)` CAS protocol in `symclust-sparse::sched`,
//!   proving exactly-once block execution and clean termination for every
//!   schedule of up to 3 workers × 6 blocks.
//! * [`servemodel`] — the same proof strength for the serve daemon's
//!   request lifecycle: admission vs shutdown races, worker drain,
//!   drain-deadline watchdog, out-of-band health, and client-disconnect
//!   cancellation.
//!
//! All run in CI via `scripts/ci.sh check` and are exposed through the
//! `symclust-check` binary (`lint`, `sched-model`, `serve-model`,
//! `list-rules`).

pub mod lexer;
pub mod lint;
pub mod schedmodel;
pub mod servemodel;
