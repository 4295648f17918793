#![warn(missing_docs)]

//! Correctness tooling for the `symclust` workspace (DESIGN.md §13, §18).
//!
//! Four pillars live here; a fifth (CSR structural validators) lives in
//! `symclust-sparse` next to the data structure it validates:
//!
//! * [`lint`] — a dependency-free lint driver enforcing repo-specific
//!   contracts that `clippy` cannot know: cancellation plumbing on public
//!   kernels, the DESIGN.md §11 metric-name taxonomy (cross-checked
//!   against the golden-counts test's `EXACT_KEYS`), no panicking `unwrap`/
//!   `expect` in library code, purity of the engine's cache-key /
//!   fingerprint code, the DESIGN.md §14 error-code taxonomy, and a
//!   reason-carrying audit of every `Ordering::Relaxed` atomic site.
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
