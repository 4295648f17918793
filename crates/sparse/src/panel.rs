//! Out-of-core 2D panel-partitioned SpGEMM.
//!
//! The in-memory driver in [`crate::spgemm`] holds the whole intermediate
//! product in RAM. This module is the second driver: it splits the output
//! into a 2D grid of **tiles** — row panels × column panels of
//! `panel_rows` rows and columns each — and streams the tiles through the
//! same worker pool ([`crate::sched`]), one tile per scheduling block. A
//! tile runs the *same row bodies* as the in-memory path, handed the
//! tile's column range instead of the whole row: each computes the
//! *complete* restriction of its output rows to that range (the inner `k`
//! loop is never split), so thresholding, `drop_diagonal` and per-entry
//! emission all work per tile exactly as they do in memory.
//!
//! ## Bit-identity with the in-memory path
//!
//! Restricting a row's scatter to the sorted column subrange
//! `[c_lo, c_hi)` ([`ColRange::clip`]) preserves, for every
//! output column `j`, the exact sequence of `f64` adds the in-memory kernel
//! performs for `j`: products are generated in the same ascending-`k`
//! (and, for SYRK sums, term-major) order and accumulate from the same
//! `0.0` first touch. Tiles are concatenated in ascending column-panel order
//! per row, so each merged row is the in-memory row, bit for bit — at any
//! panel size, thread count, or spill budget.
//!
//! Every deterministic work counter also matches: tile column ranges
//! partition the full column range, so per-tile FLOP / touched / emitted
//! counts sum to the in-memory totals, and `rows` is counted once, on the
//! row panel's *owner* tile.
//!
//! ## Spilling
//!
//! When a [`PanelPlan::budget_bytes`] is set, tiles whose cumulative
//! estimated intermediate size exceeds the budget write their partial
//! products to scratch files through [`crate::spill`] (the only module
//! allowed to touch the filesystem) and are streamed back, row by row,
//! during the deterministic merge. The spill decision is made from a
//! structure-only estimate *before* execution, so `spgemm.panel_spills`
//! and `spgemm.spill_bytes` never depend on scheduling. Scratch files live
//! in a process-unique RAII directory that is removed on success, error,
//! cancellation, and panic.

use std::path::PathBuf;

use crate::cancel::CancelToken;
use crate::error::SparseError;
use crate::sched::{run_blocks, worker_count};
use crate::spgemm::{fill_block, ColRange, RowBlock, RowKernelOutput, SpgemmCounts};
use crate::spill::{self, SpillDir, TileReader};
use crate::Result;

/// Default rows (and columns) per panel when a [`PanelPlan`] is engaged
/// without an explicit size. Large enough that one tile's intermediate
/// fits comfortably in RAM at paper scale; the price of tiling at this
/// size is measured, not assumed: the benchmark's `sparse.panel_overhead`
/// is 1.24 on `sym-kron` (36 panels of 4 096 against the in-memory run of
/// the same product) and is accepted as the cost of the out-of-core path.
/// The number to beat lives in `bench_results/history.jsonl`.
pub const DEFAULT_PANEL_ROWS: usize = 4096;

/// Out-of-core execution plan for SpGEMM, the `panel` field of
/// [`crate::Tuning`]. The plan changes *where* the multiply runs — never
/// its output bytes or deterministic work counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PanelPlan {
    /// Rows (and columns) per panel; a positive value engages the plan.
    /// `None` or `Some(0)` is "no preference": [`DEFAULT_PANEL_ROWS`] when
    /// [`budget_bytes`](Self::budget_bytes) engages the plan, in-memory
    /// otherwise.
    pub panel_rows: Option<usize>,
    /// Directory under which per-multiply scratch directories are created.
    /// `None` uses the OS temp dir.
    pub spill_dir: Option<PathBuf>,
    /// Estimated-intermediate byte budget: tiles past the cumulative
    /// budget spill to scratch files. `None` keeps every tile in memory.
    pub budget_bytes: Option<usize>,
}

impl PanelPlan {
    /// Whether the panel path should run at all. A default plan is
    /// disengaged: the kernels use the ordinary in-memory path.
    pub fn engaged(&self) -> bool {
        self.panel_rows.is_some_and(|r| r > 0) || self.budget_bytes.is_some()
    }

    /// The panel size this plan resolves to.
    fn effective_panel_rows(&self) -> usize {
        self.panel_rows
            .filter(|&r| r > 0)
            .unwrap_or(DEFAULT_PANEL_ROWS)
    }
}

/// One computed tile's payload: in memory, or spilled (byte count; the
/// entries live in the scratch file until the merge reads them back).
enum TileBody {
    InMem(Vec<u32>, Vec<f64>),
    Spilled(u64),
}

/// One finished tile, tagged for deterministic merge order. Row lengths
/// are always kept in memory (one `u32` per panel row) so the merge knows
/// how much of each spilled file belongs to each row.
struct TileOut {
    tile: usize,
    row_lens: Vec<u32>,
    body: TileBody,
}

/// Deterministic spill plan: accumulate each tile's estimated intermediate
/// bytes in tile-index order; tiles past the budget spill. Independent of
/// scheduling, so the spill counters are exact for a fixed plan.
fn plan_spills(
    n_tiles: usize,
    budget_bytes: Option<usize>,
    est: impl Fn(usize) -> u64,
) -> (Vec<bool>, usize) {
    let mut flags = vec![false; n_tiles];
    let Some(budget) = budget_bytes else {
        return (flags, 0);
    };
    let budget = budget as u64;
    let mut running = 0u64;
    let mut n_spilled = 0usize;
    for (tile, flag) in flags.iter_mut().enumerate() {
        running = running.saturating_add(est(tile));
        if running > budget {
            *flag = true;
            n_spilled += 1;
        }
    }
    (flags, n_spilled)
}

/// Routes a computed tile to memory or disk per the spill plan.
fn finish_tile(
    tile: usize,
    data: RowBlock,
    spill: &[bool],
    dir: Option<&SpillDir>,
    spill_bytes: &mut u64,
) -> Result<TileOut> {
    let body = match dir {
        Some(d) if spill[tile] => {
            let bytes = spill::write_tile(
                &d.tile_path(tile),
                &data.row_lens,
                &data.indices,
                &data.values,
            )?;
            *spill_bytes += bytes;
            TileBody::Spilled(bytes)
        }
        _ => TileBody::InMem(data.indices, data.values),
    };
    Ok(TileOut {
        tile,
        row_lens: data.row_lens,
        body,
    })
}

/// Streaming read position into one tile during the merge.
enum Cursor<'a> {
    Mem {
        indices: &'a [u32],
        values: &'a [f64],
        at: usize,
    },
    Disk(TileReader),
}

/// Concatenates tiles into the final CSR triple, row panel by row panel:
/// within a panel, each output row is assembled by appending its segment
/// from every column tile in ascending tile order (in-memory tiles are
/// sliced, spilled tiles streamed back row by row). Tile indices must be
/// contiguous and grouped by row panel — `panel_tile_counts[pi]` tiles for
/// panel `pi`, in order.
fn merge_panel_outputs(
    n_rows: usize,
    panel_rows: usize,
    outs: &[TileOut],
    panel_tile_counts: &[usize],
    dir: Option<&SpillDir>,
) -> Result<(Vec<usize>, Vec<u32>, Vec<f64>)> {
    let total_nnz: usize = outs
        .iter()
        .map(|t| match &t.body {
            TileBody::InMem(i, _) => i.len(),
            TileBody::Spilled(bytes) => (*bytes / 12) as usize,
        })
        .sum();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::with_capacity(total_nnz);
    let mut values: Vec<f64> = Vec::with_capacity(total_nnz);
    let mut tile_at = 0usize;
    for (pi, &n_panel_tiles) in panel_tile_counts.iter().enumerate() {
        let r_lo = pi * panel_rows;
        let r_hi = ((pi + 1) * panel_rows).min(n_rows);
        let panel_tiles = &outs[tile_at..tile_at + n_panel_tiles];
        tile_at += n_panel_tiles;
        let mut cursors: Vec<Cursor<'_>> = Vec::with_capacity(n_panel_tiles);
        for t in panel_tiles {
            cursors.push(match &t.body {
                TileBody::InMem(i, v) => Cursor::Mem {
                    indices: i,
                    values: v,
                    at: 0,
                },
                TileBody::Spilled(_) => {
                    let d = dir.ok_or_else(|| {
                        SparseError::Io("spilled tile without a scratch dir".into())
                    })?;
                    Cursor::Disk(TileReader::open(&d.tile_path(t.tile))?)
                }
            });
        }
        for local in 0..(r_hi - r_lo) {
            for (t, cur) in panel_tiles.iter().zip(cursors.iter_mut()) {
                let len = t.row_lens[local] as usize;
                match cur {
                    Cursor::Mem {
                        indices: ti,
                        values: tv,
                        at,
                    } => {
                        indices.extend_from_slice(&ti[*at..*at + len]);
                        values.extend_from_slice(&tv[*at..*at + len]);
                        *at += len;
                    }
                    Cursor::Disk(reader) => reader.read_row(len, &mut indices, &mut values)?,
                }
            }
            indptr.push(indices.len());
        }
    }
    debug_assert_eq!(indptr.len(), n_rows + 1, "panels must cover every row");
    Ok((indptr, indices, values))
}

/// Panel range `[lo, hi)` for panel `p` of `n` items at `panel_rows` each.
fn panel_range(p: usize, panel_rows: usize, n: usize) -> (usize, usize) {
    (p * panel_rows, ((p + 1) * panel_rows).min(n))
}

/// The tile driver: runs `kernel` (the same row kernel
/// [`crate::spgemm::run_rows`] takes) over the panel grid of an
/// `n_rows × n_cols` output, one tile per pool block, spilling the tiles
/// the plan marks, and merges the tiles back into whole rows.
///
/// `upper` selects the upper-triangular grid of a SYRK product (`n_rows ==
/// n_cols`; row panel `pi` has tiles `(pi, pi..)`), otherwise the grid is
/// rectangular. Row panel `pi`'s first tile *owns* its rows' per-row
/// counters. `row_width` is the whole-row width estimate the spill plan
/// sizes tiles with.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_panels<S, N, K>(
    n_rows: usize,
    n_cols: usize,
    upper: bool,
    plan: &PanelPlan,
    n_threads: usize,
    token: Option<&CancelToken>,
    row_width: impl Fn(usize) -> usize,
    new_scratch: N,
    kernel: K,
) -> Result<RowKernelOutput>
where
    N: Fn() -> S + Sync,
    K: Fn(usize, ColRange, &mut S, &mut Vec<u32>, &mut Vec<f64>, &mut SpgemmCounts) + Sync,
{
    let panel_rows = plan.effective_panel_rows();
    let n_row_panels = n_rows.div_ceil(panel_rows);
    let n_col_panels = n_cols.div_ceil(panel_rows).max(1);
    let first_col_panel = |pi: usize| if upper { pi } else { 0 };
    // Tiles of one row panel are contiguous in index order — the layout
    // merge_panel_outputs expects.
    let mut tile_panels: Vec<(usize, usize)> = Vec::new();
    let mut panel_tile_counts = Vec::with_capacity(n_row_panels);
    for pi in 0..n_row_panels {
        panel_tile_counts.push(n_col_panels - first_col_panel(pi));
        tile_panels.extend((first_col_panel(pi)..n_col_panels).map(|pj| (pi, pj)));
    }
    let n_tiles = tile_panels.len();

    let panel_bytes: Vec<u64> = (0..n_row_panels)
        .map(|pi| {
            let (r_lo, r_hi) = panel_range(pi, panel_rows, n_rows);
            let flops: u64 = (r_lo..r_hi).map(|row| row_width(row) as u64).sum();
            flops.saturating_mul(12)
        })
        .collect();
    let est = |tile: usize| -> u64 {
        let (pi, _) = tile_panels[tile];
        panel_bytes[pi] / panel_tile_counts[pi] as u64
    };
    let (spill_flags, n_spilled) = plan_spills(n_tiles, plan.budget_bytes, est);
    let dir = if n_spilled > 0 {
        Some(SpillDir::create(plan.spill_dir.as_deref())?)
    } else {
        None
    };

    let (outs, mut counts) = run_blocks(
        n_tiles,
        worker_count(n_threads, n_tiles),
        new_scratch,
        |tile, scratch, counts| {
            let (pi, pj) = tile_panels[tile];
            let (r_lo, r_hi) = panel_range(pi, panel_rows, n_rows);
            let (lo, hi) = panel_range(pj, panel_rows, n_cols);
            let cols = ColRange {
                lo,
                hi,
                owner: pj == first_col_panel(pi),
            };
            let data = fill_block(r_lo..r_hi, token, |row, indices, values| {
                kernel(row, cols, scratch, indices, values, counts)
            })?;
            finish_tile(
                tile,
                data,
                &spill_flags,
                dir.as_ref(),
                &mut counts.spill_bytes,
            )
        },
    )?;
    counts.panels = n_tiles as u64;
    counts.panel_spills = n_spilled as u64;

    let (indptr, indices, values) =
        merge_panel_outputs(n_rows, panel_rows, &outs, &panel_tile_counts, dir.as_ref())?;
    Ok(RowKernelOutput {
        indptr,
        indices,
        values,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::ops::transpose;
    use crate::spgemm::{spgemm, SpgemmOptions};
    use crate::syrk::{spgemm_syrk_sum, SyrkTerm};
    use crate::tuning::Tuning;
    use symclust_obs::MetricsRegistry;

    fn mul(a: &CsrMatrix, b: &CsrMatrix, opts: &SpgemmOptions) -> CsrMatrix {
        spgemm(a, b, opts, None, None).unwrap().matrix
    }

    fn pseudo_random_matrix(n: usize, seed: u64, density_shift: u32) -> CsrMatrix {
        let mut rows = vec![vec![0.0; n]; n];
        let mut state = seed;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> (64 - density_shift) == 0 {
                    *v = ((state >> 32) % 7 + 1) as f64;
                }
            }
        }
        CsrMatrix::from_dense(&rows)
    }

    /// Default semantics under `threads` workers and `panel`.
    fn opts(threads: usize, panel: PanelPlan) -> SpgemmOptions {
        SpgemmOptions {
            tuning: Tuning { threads, panel },
            ..Default::default()
        }
    }

    fn panel_opts(panel_rows: usize, budget: Option<usize>) -> SpgemmOptions {
        opts(
            1,
            PanelPlan {
                panel_rows: Some(panel_rows),
                spill_dir: None,
                budget_bytes: budget,
            },
        )
    }

    fn baseline_opts() -> SpgemmOptions {
        opts(1, PanelPlan::default())
    }

    #[test]
    fn plan_is_disengaged_by_default_and_engages_on_any_knob() {
        assert!(!PanelPlan::default().engaged());
        assert!(PanelPlan {
            panel_rows: Some(16),
            ..Default::default()
        }
        .engaged());
        assert!(PanelPlan {
            budget_bytes: Some(1),
            ..Default::default()
        }
        .engaged());
        assert_eq!(
            PanelPlan::default().effective_panel_rows(),
            DEFAULT_PANEL_ROWS
        );
        // `Some(0)` is "no preference", however it is spelled: it does not
        // engage the plan on its own, and takes the default size under a
        // budget.
        let zero = PanelPlan {
            panel_rows: Some(0),
            ..Default::default()
        };
        assert!(!zero.engaged());
        assert_eq!(zero.effective_panel_rows(), DEFAULT_PANEL_ROWS);
        assert!(PanelPlan {
            budget_bytes: Some(1),
            ..zero
        }
        .engaged());
        assert_eq!(
            PanelPlan {
                panel_rows: Some(7),
                ..Default::default()
            }
            .effective_panel_rows(),
            7
        );
    }

    #[test]
    fn spill_plan_is_a_budgeted_suffix() {
        let (flags, n) = plan_spills(4, None, |_| 100);
        assert_eq!(flags, vec![false; 4]);
        assert_eq!(n, 0);
        // Budget holds the first two 100-byte tiles, spills the rest.
        let (flags, n) = plan_spills(4, Some(250), |_| 100);
        assert_eq!(flags, vec![false, false, true, true]);
        assert_eq!(n, 2);
        // A budget smaller than the first tile spills everything.
        let (flags, n) = plan_spills(3, Some(1), |_| 100);
        assert_eq!(flags, vec![true; 3]);
        assert_eq!(n, 3);
    }

    #[test]
    fn panel_matches_in_memory_bitwise_across_panel_sizes() {
        let a = pseudo_random_matrix(80, 0x243F6A8885A308D3, 3);
        let baseline = mul(&a, &a, &baseline_opts());
        for panel_rows in [1, 3, 7, 16, 100] {
            let got = mul(&a, &a, &panel_opts(panel_rows, None));
            assert_eq!(baseline, got, "panel_rows {panel_rows}");
        }
    }

    #[test]
    fn forced_spills_do_not_change_output() {
        let a = pseudo_random_matrix(60, 0x9E3779B97F4A7C15, 3);
        let baseline = mul(&a, &a, &baseline_opts());
        let m = MetricsRegistry::new();
        let got = spgemm(&a, &a, &panel_opts(16, Some(1)), None, Some(&m))
            .unwrap()
            .matrix;
        assert_eq!(baseline, got);
        let snap = m.snapshot();
        assert!(snap.counter("spgemm.panels").unwrap() > 1);
        assert!(snap.counter("spgemm.panel_spills").unwrap() >= 1);
        assert!(snap.counter("spgemm.spill_bytes").unwrap() >= 12);
    }

    #[test]
    fn panel_work_counters_match_in_memory() {
        let a = pseudo_random_matrix(70, 0xB7E151628AED2A6A, 3);
        let base = MetricsRegistry::new();
        spgemm(&a, &a, &baseline_opts(), None, Some(&base)).unwrap();
        let pan = MetricsRegistry::new();
        spgemm(&a, &a, &panel_opts(9, Some(64)), None, Some(&pan)).unwrap();
        for key in [
            "spgemm.rows",
            "spgemm.flops",
            "spgemm.nnz_intermediate",
            "spgemm.nnz_final",
            "spgemm.threshold_dropped",
        ] {
            assert_eq!(
                base.snapshot().counter(key),
                pan.snapshot().counter(key),
                "{key} differs between in-memory and panel paths"
            );
        }
        // In-memory path reports the panel counters as zero.
        let bsnap = base.snapshot();
        assert_eq!(bsnap.counter("spgemm.panels"), Some(0));
        assert_eq!(bsnap.counter("spgemm.panel_spills"), Some(0));
        assert_eq!(bsnap.counter("spgemm.spill_bytes"), Some(0));
    }

    #[test]
    fn parallel_panel_is_bit_identical_and_spills_deterministically() {
        let a = pseudo_random_matrix(150, 0x452821E638D01377, 3);
        let baseline = mul(&a, &a, &baseline_opts());
        let plan = PanelPlan {
            panel_rows: Some(13),
            spill_dir: None,
            budget_bytes: Some(2000),
        };
        for n_threads in [2, 4] {
            let m = MetricsRegistry::new();
            let got = spgemm(&a, &a, &opts(n_threads, plan.clone()), None, Some(&m))
                .unwrap()
                .matrix;
            assert_eq!(baseline, got, "threads {n_threads}");
            let spills = m.snapshot().counter("spgemm.panel_spills");
            let serial = MetricsRegistry::new();
            spgemm(&a, &a, &opts(1, plan.clone()), None, Some(&serial)).unwrap();
            assert_eq!(
                spills,
                serial.snapshot().counter("spgemm.panel_spills"),
                "spill plan must not depend on threads"
            );
        }
    }

    #[test]
    fn syrk_panel_matches_in_memory_with_terms_and_threshold() {
        let x = pseudo_random_matrix(64, 0x243F6A8885A308D3, 3);
        let y = pseudo_random_matrix(64, 0x9E3779B97F4A7C15, 3);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let terms = [SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }];
        let mk = |panel: PanelPlan| SpgemmOptions {
            threshold: 0.5,
            drop_diagonal: true,
            ..opts(1, panel)
        };
        let baseline = spgemm_syrk_sum(&terms, &mk(PanelPlan::default()), None, None)
            .unwrap()
            .matrix;
        for panel_rows in [1, 5, 17, 64] {
            for budget in [None, Some(1), Some(4096)] {
                let plan = PanelPlan {
                    panel_rows: Some(panel_rows),
                    spill_dir: None,
                    budget_bytes: budget,
                };
                let got = spgemm_syrk_sum(&terms, &mk(plan), None, None).unwrap();
                assert_eq!(
                    baseline, got.matrix,
                    "panel_rows {panel_rows} budget {budget:?}"
                );
            }
        }
    }

    #[test]
    fn cancellation_aborts_and_cleans_up_scratch() {
        let a = pseudo_random_matrix(64, 0x243F6A8885A308D3, 3);
        let base =
            std::env::temp_dir().join(format!("symclust_panel_cancel_test_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let plan = PanelPlan {
            panel_rows: Some(8),
            spill_dir: Some(base.clone()),
            budget_bytes: Some(1),
        };
        let r = spgemm(&a, &a, &opts(1, plan), Some(&token), None);
        assert_eq!(r.err(), Some(SparseError::Cancelled));
        let leftovers = std::fs::read_dir(&base).unwrap().count();
        assert_eq!(leftovers, 0, "scratch dirs must be removed on cancellation");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn worker_panic_surfaces_and_cleans_up_scratch() {
        let base =
            std::env::temp_dir().join(format!("symclust_panel_panic_test_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let err = {
            let dir = SpillDir::create(Some(&base)).unwrap();
            let spill = vec![true; 32];
            run_blocks(
                32,
                4,
                || (),
                |tile, _scratch: &mut (), counts| {
                    if tile == 19 {
                        panic!("injected tile failure");
                    }
                    let data = RowBlock {
                        row_lens: vec![1],
                        indices: vec![0],
                        values: vec![1.0],
                    };
                    finish_tile(tile, data, &spill, Some(&dir), &mut counts.spill_bytes)
                },
            )
            .err()
            .expect("a panicking tile must fail the run")
            // `dir` drops here — the entry points own their SpillDir the
            // same way, so an error return removes every spilled tile.
        };
        match err {
            SparseError::WorkerPanic(msg) => assert!(msg.contains("injected tile failure")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let leftovers = std::fs::read_dir(&base).unwrap().count();
        assert_eq!(leftovers, 0, "scratch dirs must be removed on panic");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn empty_and_degenerate_shapes_round_trip() {
        for (rows, cols) in [(0usize, 0usize), (0, 5), (5, 0), (1, 1)] {
            let a = CsrMatrix::zeros(rows, 7);
            let b = CsrMatrix::zeros(7, cols);
            let got = mul(&a, &b, &panel_opts(2, Some(1)));
            let want = mul(&a, &b, &baseline_opts());
            assert_eq!(want, got, "{rows}x{cols}");
        }
    }
}
