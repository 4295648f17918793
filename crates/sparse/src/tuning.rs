//! How a kernel runs, as opposed to what it computes.
//!
//! [`Tuning`] holds the values that select a code path — worker threads,
//! per-row accumulator, out-of-core panel plan — and that, by the
//! determinism contract, never change an output byte or a deterministic
//! work counter. Option structs ([`crate::SpgemmOptions`], the symmetrizer
//! options in `symclust-core`, the engine's `EngineOptions`) carry one
//! `tuning` field; nothing that derives a cache key holds a `Tuning`, so a
//! key cannot depend on it (DESIGN.md §12, "Tuning").

use crate::accum::{AccumStrategy, DEFAULT_ACCUM_CROSSOVER};
use crate::panel::PanelPlan;

/// How the SpGEMM kernels run. Output is bit-identical for every value.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuning {
    /// Worker threads: `1` runs on the calling thread, `0` uses all
    /// available cores, `n` uses exactly `n`.
    pub threads: usize,
    /// Per-row accumulator strategy (see [`crate::accum`]). Only the
    /// `spgemm.rows_dense` / `spgemm.rows_sparse` split depends on it.
    pub accum: AccumStrategy,
    /// Adaptive crossover in estimated multiply-adds per row: rows at or
    /// above it accumulate densely, rows below it sparsely. `None` uses
    /// [`DEFAULT_ACCUM_CROSSOVER`].
    pub accum_crossover: Option<usize>,
    /// Out-of-core panel plan (see [`crate::panel`]); disengaged runs in
    /// memory.
    pub panel: PanelPlan,
}

impl Tuning {
    /// The tuning the environment asks for — the one place the
    /// `SYMCLUST_*` variables are read:
    ///
    /// * `SYMCLUST_THREADS` — worker threads (`0` = all cores); default 1;
    /// * `SYMCLUST_ACCUM` — `adaptive` | `dense` | `sparse`; default adaptive;
    /// * `SYMCLUST_PANEL_ROWS` — panel size, engages the panel path;
    /// * `SYMCLUST_MEMORY_BUDGET` — spill byte budget, engages the panel path.
    ///
    /// An unset, empty or unparsable value means "no preference", as does
    /// `0` for the two panel variables. Read afresh on every call: callers
    /// (the benchmark's replay, the CI matrices) change the variables
    /// between constructions inside one process.
    pub fn from_env() -> Tuning {
        fn env<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        let positive = |name| env::<usize>(name).filter(|&v| v > 0);
        Tuning {
            threads: env("SYMCLUST_THREADS").unwrap_or(1),
            accum: env("SYMCLUST_ACCUM").unwrap_or_default(),
            accum_crossover: None,
            panel: PanelPlan {
                panel_rows: positive("SYMCLUST_PANEL_ROWS"),
                spill_dir: None,
                budget_bytes: positive("SYMCLUST_MEMORY_BUDGET"),
            },
        }
    }

    /// Resolves the per-row strategy from the estimated multiply-add
    /// count (= estimated intermediate width upper bound) for the row.
    #[inline]
    pub(crate) fn row_is_dense(&self, estimated_width: usize) -> bool {
        match self.accum {
            AccumStrategy::Dense => true,
            AccumStrategy::Sparse => false,
            AccumStrategy::Adaptive => {
                estimated_width >= self.accum_crossover.unwrap_or(DEFAULT_ACCUM_CROSSOVER)
            }
        }
    }
}

/// [`Tuning::from_env`], evaluated at every construction.
impl Default for Tuning {
    fn default() -> Self {
        Tuning::from_env()
    }
}
