//! How a kernel runs, as opposed to what it computes.
//!
//! [`Tuning`] holds the values that select a code path — worker threads
//! and the out-of-core panel plan — and that, by the determinism
//! contract, never change an output byte or a deterministic work counter.
//! Option structs ([`crate::SpgemmOptions`], the symmetrizer options in
//! `symclust-core`, the engine's `EngineOptions`) carry one `tuning`
//! field; nothing that derives a cache key holds a `Tuning`, so a key
//! cannot depend on it (DESIGN.md §12, "Tuning").

use crate::panel::PanelPlan;

/// How the SpGEMM kernels run. Output is bit-identical for every value.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuning {
    /// Worker threads: `1` runs on the calling thread, `0` uses all
    /// available cores, `n` uses exactly `n`.
    pub threads: usize,
    /// Out-of-core panel plan (see [`crate::panel`]); disengaged runs in
    /// memory.
    pub panel: PanelPlan,
}

impl Tuning {
    /// The tuning the environment asks for — the one place the
    /// `SYMCLUST_*` variables are read:
    ///
    /// * `SYMCLUST_THREADS` — worker threads (`0` = all cores); default 1;
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
            panel: PanelPlan {
                panel_rows: positive("SYMCLUST_PANEL_ROWS"),
                spill_dir: None,
                budget_bytes: positive("SYMCLUST_MEMORY_BUDGET"),
            },
        }
    }
}

/// [`Tuning::from_env`], evaluated at every construction.
impl Default for Tuning {
    fn default() -> Self {
        Tuning::from_env()
    }
}
