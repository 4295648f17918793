//! Symmetric SpGEMM (sparse SYRK): `C = X·Xᵀ` and sums of such products.
//!
//! The paper's two expensive symmetrizations are both sums of `X·Xᵀ`-shaped
//! products — Bibliometric `AAᵀ + AᵀA` (§3.3) and Degree-discounted
//! `Ud = Bd + Cd` (Eq. 8), already computed factored as `X·Xᵀ`. Such a
//! product is symmetric by construction, so the general Gustavson kernel
//! does every multiply-add twice: once for `C(i,j)` and once for the
//! identical `C(j,i)`.
//!
//! This module computes the **upper triangle only**: row `i` accumulates
//! only columns `j ≥ i`, found by a binary search (`partition_point`) on
//! the sorted column indices of the transpose's rows, then mirrors the
//! strict upper entries into the lower triangle in one O(nnz) pass —
//! roughly halving multiply-adds and accumulator traffic. The mirror
//! works in place: it grows the upper triangle's own buffers to full
//! length and moves each row's entries right into their final slots, so
//! the product's memory peak is the full output plus O(n), never the
//! upper triangle beside a second, full copy.
//!
//! Why the mirror is exact and not an approximation:
//! `C(j,i) = Σₖ X(j,k)·Xᵀ(k,i)` and `C(i,j) = Σₖ X(i,k)·Xᵀ(k,j)`. When
//! `Xᵀ` is the bitwise transpose of `X`, the two sums are the same
//! sequence of products (by commutativity of each f64 multiply) added in
//! the same ascending-`k` order, hence bit-identical. Mirroring therefore
//! reproduces exactly what the general kernel would have computed for the
//! lower triangle.
//!
//! The multi-term sum variant fuses `Σₜ Xₜ·Xₜᵀ` into a single pass with
//! one accumulator slot *per term*: each term's partial sums accumulate in
//! ascending-`k` order and the per-entry total is formed by one final
//! ordered add — the same rounding sequence as computing each product
//! separately and adding the results with [`crate::ops::add`], so fusing
//! changes no bits. Thresholding and `drop_diagonal` apply to the fused
//! sum during emission, which is what lets `Bibliometric` and
//! `DegreeDiscounted` skip materializing the two full intermediate
//! products entirely.
//!
//! Every row scatters into per-term slots under one epoch stamp per
//! column ([`TermAccum`], see [`crate::accum`]), which keeps the touched
//! list duplicate-free with no branch per product: each product stores
//! its stamp and writes its column at the list's end, and the first
//! touch is the 1 added to the list's length. A row pays per
//! *survivor*, not per touched column, for its order: it sums and filters
//! its touched columns in first-touch order and sorts only the entries
//! that pass. A thresholded similarity emits a small share of what it
//! touches (0.2 % on `sym-kron`'s Degree-discounted product).
//!
//! Parallelism, panel tiling, cancellation, budget degradation and
//! observability all ride on the shared funnel in [`crate::spgemm`]
//! ([`drive`]): this module supplies only the row body — which, like the
//! general one, accumulates a column range of its row, `[row, n)` in
//! memory and `[max(row, c_lo), c_hi)` for a panel tile — and the mirror,
//! which every path (row blocks, panel merge, degraded loop, any thread
//! count) reaches through the funnel. The funnel times it under the
//! `spgemm.mirror` span and tallies its entries under the SYRK-specific
//! `spgemm.syrk_calls` / `spgemm.syrk_mirrored_nnz` counters.

use crate::accum::TermAccum;
use crate::cancel::CancelToken;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::spgemm::{
    drive, emits, gustavson_width, ColRange, SpgemmCounts, SpgemmOptions, SpgemmOutput,
};
use crate::Result;
use symclust_obs::MetricsRegistry;

/// One `X·Xᵀ` term of a symmetric product sum.
///
/// `xt` must be the transpose of `x` ([`crate::ops::transpose`]); the
/// symmetrizers already hold both factors. Only dimensions are validated: passing
/// an `xt` that is not bitwise `transpose(x)` silently computes
/// `upper(X·Y)` mirrored, which is not `X·Y`.
#[derive(Debug, Clone, Copy)]
pub struct SyrkTerm<'a> {
    /// Left factor (`n × k`).
    pub x: &'a CsrMatrix,
    /// Transpose of the left factor (`k × n`).
    pub xt: &'a CsrMatrix,
}

fn check_terms(terms: &[SyrkTerm<'_>]) -> Result<usize> {
    let Some(first) = terms.first() else {
        return Err(SparseError::InvalidArgument(
            "spgemm_syrk_sum needs at least one term".into(),
        ));
    };
    let n = first.x.n_rows();
    for term in terms {
        if term.x.n_rows() != n || term.xt.n_cols() != n || term.x.n_cols() != term.xt.n_rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spgemm_syrk_sum",
                lhs: (term.x.n_rows(), term.x.n_cols()),
                rhs: (term.xt.n_rows(), term.xt.n_cols()),
            });
        }
    }
    Ok(n)
}

/// Per-worker scratch: the dense accumulator of every term under one
/// stamp, and the buffers that a row's duplicate-free touched-column list
/// and its surviving `(column, value)` entries are written into. Both
/// lists grow by a value, not a branch (see [`TermAccum::scatter`]), so
/// each buffer has `n + 1` slots: one per column, plus one for the write
/// after all `n` are listed.
struct SyrkScratch {
    acc: TermAccum,
    touched: Vec<u32>,
    kept: Vec<(u32, f64)>,
}

impl SyrkScratch {
    fn new(n: usize, n_terms: usize) -> Self {
        SyrkScratch {
            acc: TermAccum::new(n, n_terms),
            touched: vec![0; n + 1],
            kept: vec![(0, 0.0); n + 1],
        }
    }
}

/// The row's *whole* product count across terms: a structure-only upper
/// bound on the upper-triangle work and on the row's output width, which
/// [`drive`] sums into the estimate it compares with the nnz budget.
fn syrk_width(terms: &[SyrkTerm<'_>], row: usize) -> usize {
    terms
        .iter()
        .map(|term| gustavson_width(term.x, term.xt, row))
        .sum()
}

/// The SYRK row body: accumulates columns `[max(row, cols.lo), cols.hi)`
/// of row `row` of `Σₜ Xₜ·Xₜᵀ` and emits the surviving entries in
/// ascending column order. The per-range column sets partition the row's
/// upper triangle `[row, n)`, so the exact post-clip `flops` counts sum to
/// the whole-row total.
#[allow(clippy::too_many_arguments)]
fn syrk_row(
    terms: &[SyrkTerm<'_>],
    row: usize,
    cols: ColRange,
    scratch: &mut SyrkScratch,
    opts: &SpgemmOptions,
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
    counts: &mut SpgemmCounts,
) {
    let emitted_before = indices.len();
    if cols.owner {
        counts.rows += 1;
    }
    // Upper triangle only: columns are sorted, so the clip drops j < row
    // by binary search.
    let cols = ColRange {
        lo: cols.lo.max(row),
        ..cols
    };
    let SyrkScratch { acc, touched, kept } = scratch;
    acc.begin_row();
    let mut len = 0;
    for (t, term) in terms.iter().enumerate() {
        for (k, xv) in term.x.row_iter(row) {
            let (tcols, tvals) = cols.clip(
                term.xt.row_indices(k as usize),
                term.xt.row_values(k as usize),
            );
            counts.flops += tcols.len() as u64;
            len = acc.scatter(t, touched, len, xv, tcols, tvals);
        }
    }
    let touched = &touched[..len];
    // Sum and filter in first-touch order (every listed column must be
    // taken), then sort only the survivors: block-ordered assembly and the
    // mirror need ascending rows. Like a first touch, a survivor is a
    // value added to the kept length, not a branch.
    let mut n_kept = 0;
    for &j in touched {
        let v = acc.take(j);
        kept[n_kept] = (j, v);
        n_kept += emits(v, j, row, opts) as usize;
    }
    let kept = &mut kept[..n_kept];
    kept.sort_unstable_by_key(|&(j, _)| j);
    for &(j, v) in kept.iter() {
        indices.push(j);
        values.push(v);
    }
    counts.touched += touched.len() as u64;
    counts.emitted += (indices.len() - emitted_before) as u64;
}

/// Mirrors an upper-triangular CSR (every stored column `j ≥` its row)
/// into the full symmetric matrix in place, in O(nnz) time and O(n)
/// extra memory, and returns the number of lower-triangle entries it
/// materialized.
///
/// `indices` and `values` grow to full length once; each row's own upper
/// entries then move right to their final place, last row first (a row
/// only ever moves right, onto slots its successors have already
/// vacated), and the strict upper entries are scattered into the gaps
/// left before each row's own entries.
pub(crate) fn mirror_upper(
    indptr: &mut [usize],
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
) -> u64 {
    let n = indptr.len() - 1;
    // Count pass: row j gets one mirrored entry for every strict-upper
    // (i, j) with i < j.
    let mut lower = vec![0usize; n];
    for i in 0..n {
        for &j in &indices[indptr[i]..indptr[i + 1]] {
            if j as usize > i {
                lower[j as usize] += 1;
            }
        }
    }
    let mirrored: usize = lower.iter().sum();
    let total = indices.len() + mirrored;
    // `resize` alone would grow capacity geometrically, well past `total`.
    indices.reserve_exact(total - indices.len());
    values.reserve_exact(total - values.len());
    indices.resize(total, 0);
    values.resize(total, 0.0);
    // Move pass, last row first: row i's own entries shift right by the
    // mirrored entries of rows 0..=i, and its end becomes its new end.
    let mut shift = mirrored;
    for i in (0..n).rev() {
        let (lo, hi) = (indptr[i], indptr[i + 1]);
        indices.copy_within(lo..hi, lo + shift);
        values.copy_within(lo..hi, lo + shift);
        indptr[i + 1] = hi + shift;
        shift -= lower[i];
    }
    // The counts become each row's scatter cursor, at its new start.
    let mut cursor = lower;
    cursor.copy_from_slice(&indptr[..n]);
    // Scatter pass, ascending rows. When row i is reached, earlier rows
    // have filled its mirrored slots in ascending column order, so its
    // cursor sits on its own upper entries (columns ≥ i): each row ends up
    // sorted without any per-row sort.
    for i in 0..n {
        for at in cursor[i]..indptr[i + 1] {
            let j = indices[at] as usize;
            if j > i {
                indices[cursor[j]] = i as u32;
                values[cursor[j]] = values[at];
                cursor[j] += 1;
            }
        }
    }
    mirrored as u64
}

/// Fused symmetric product sum: `C = Σₜ Xₜ·Xₜᵀ` in one upper-triangle
/// pass with per-term accumulator slots, thresholding the *sum* during
/// emission (see the module docs for the bit-exactness argument), then
/// mirrored. A single `X·Xᵀ` is the one-term case.
///
/// Threads, panel plan, cancellation, metrics and the nnz budget behave as
/// for [`crate::spgemm::spgemm`]; the budget bounds the *full* symmetric
/// output.
pub fn spgemm_syrk_sum(
    terms: &[SyrkTerm<'_>],
    opts: &SpgemmOptions,
    token: Option<&CancelToken>,
    metrics: Option<&MetricsRegistry>,
) -> Result<SpgemmOutput> {
    let n = check_terms(terms)?;
    drive(
        n,
        n,
        true,
        opts,
        token,
        metrics,
        |row| syrk_width(terms, row),
        || SyrkScratch::new(n, terms.len()),
        |row, cols, scratch: &mut SyrkScratch, opts, indices, values, counts| {
            syrk_row(terms, row, cols, scratch, opts, indices, values, counts);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, transpose};
    use crate::spgemm::{metric_names, spgemm};
    use crate::tuning::Tuning;

    /// `A·B` through the general kernel.
    fn general(a: &CsrMatrix, b: &CsrMatrix, opts: &SpgemmOptions) -> CsrMatrix {
        spgemm(a, b, opts, None, None).unwrap().matrix
    }

    /// `X·Xᵀ` through the one-term SYRK sum.
    fn syrk(x: &CsrMatrix, xt: &CsrMatrix, opts: &SpgemmOptions) -> CsrMatrix {
        spgemm_syrk_sum(&[SyrkTerm { x, xt }], opts, None, None)
            .unwrap()
            .matrix
    }

    fn threads(threads: usize) -> SpgemmOptions {
        SpgemmOptions {
            tuning: Tuning {
                threads,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn pseudo_random_matrix(
        n_rows: usize,
        n_cols: usize,
        seed: u64,
        density_shift: u32,
    ) -> CsrMatrix {
        let mut rows = vec![vec![0.0; n_cols]; n_rows];
        let mut state = seed;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> (64 - density_shift) == 0 {
                    *v = ((state >> 32) % 9 + 1) as f64 * 0.25;
                }
            }
        }
        CsrMatrix::from_dense(&rows)
    }

    #[test]
    fn syrk_matches_general_kernel_exactly() {
        let x = pseudo_random_matrix(60, 40, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let c = syrk(&x, &xt, &SpgemmOptions::default());
        c.validate().unwrap();
        assert_eq!(general(&x, &xt, &SpgemmOptions::default()), c);
    }

    /// Factors whose products stress the in-place mirror: a hub row 0
    /// (every row of the product gets a mirrored entry from row 0), a
    /// diagonal (nothing to mirror), trailing empty rows (empty rows whose
    /// bounds still shift), and n = 0.
    fn mirror_edge_factors() -> Vec<(&'static str, CsrMatrix)> {
        let mut hub = vec![vec![0.0; 6]; 9];
        hub[0] = vec![1.5; 6];
        for (i, row) in hub.iter_mut().enumerate().skip(1) {
            row[i % 6] = 0.5 * i as f64;
        }
        let mut trailing = pseudo_random_matrix(12, 7, 0x452821E638D01377, 2).to_dense();
        trailing.extend(vec![vec![0.0; 7]; 5]);
        vec![
            ("hub row 0", CsrMatrix::from_dense(&hub)),
            ("diagonal", CsrMatrix::identity(8)),
            ("trailing empty rows", CsrMatrix::from_dense(&trailing)),
            ("n = 0", CsrMatrix::zeros(0, 4)),
        ]
    }

    #[test]
    fn syrk_rectangular_and_empty_rows() {
        // Tall, sparse factor with several all-zero rows, then the mirror's
        // edge cases.
        let tall = pseudo_random_matrix(37, 5, 0x9E3779B97F4A7C15, 5);
        for (name, x) in [("tall", tall)].into_iter().chain(mirror_edge_factors()) {
            let xt = transpose(&x);
            for drop_diagonal in [false, true] {
                let opts = SpgemmOptions {
                    drop_diagonal,
                    ..Default::default()
                };
                let c = syrk(&x, &xt, &opts);
                c.validate_symmetric().unwrap();
                assert_eq!(general(&x, &xt, &opts), c, "{name}, drop {drop_diagonal}");
            }
        }
    }

    #[test]
    fn syrk_output_is_symmetric() {
        let x = pseudo_random_matrix(50, 50, 0xB7E151628AED2A6A, 3);
        let c = syrk(&x, &transpose(&x), &SpgemmOptions::default());
        assert!(c.is_symmetric(0.0));
        assert_eq!(c, transpose(&c));
    }

    #[test]
    fn syrk_threshold_and_drop_diagonal_match_general() {
        let x = pseudo_random_matrix(48, 32, 0x452821E638D01377, 3);
        let xt = transpose(&x);
        let opts = SpgemmOptions {
            threshold: 0.8,
            drop_diagonal: true,
            ..Default::default()
        };
        assert_eq!(general(&x, &xt, &opts), syrk(&x, &xt, &opts));
    }

    #[test]
    fn syrk_sum_matches_separate_products_bitwise() {
        let x = pseudo_random_matrix(40, 30, 0x243F6A8885A308D3, 3);
        let y = pseudo_random_matrix(40, 25, 0x9E3779B97F4A7C15, 3);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let opts = SpgemmOptions::default();
        let separate = ops::add(&general(&x, &xt, &opts), &general(&y, &yt, &opts)).unwrap();
        let fused = spgemm_syrk_sum(
            &[SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }],
            &opts,
            None,
            None,
        )
        .unwrap();
        assert_eq!(separate, fused.matrix);
    }

    #[test]
    fn syrk_parallel_is_identical_across_thread_counts() {
        let x = pseudo_random_matrix(300, 200, 0x243F6A8885A308D3, 4);
        let xt = transpose(&x);
        let serial = syrk(&x, &xt, &threads(1));
        for n_threads in [2, 3, 8] {
            let parallel = syrk(&x, &xt, &threads(n_threads));
            assert_eq!(serial, parallel, "thread count {n_threads}");
        }
    }

    #[test]
    fn syrk_counters_show_halved_flops_and_mirrored_nnz() {
        let x = pseudo_random_matrix(64, 64, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let general = MetricsRegistry::new();
        spgemm(&x, &xt, &threads(1), None, Some(&general)).unwrap();
        let syrk = MetricsRegistry::new();
        let terms = [SyrkTerm { x: &x, xt: &xt }];
        let c = spgemm_syrk_sum(&terms, &threads(1), None, Some(&syrk))
            .unwrap()
            .matrix;
        let gsnap = general.snapshot();
        let ssnap = syrk.snapshot();
        let gflops = gsnap.counter(metric_names::FLOPS).unwrap();
        let sflops = ssnap.counter(metric_names::FLOPS).unwrap();
        assert!(
            sflops * 2 <= gflops + c.n_rows() as u64 * 64,
            "syrk flops {sflops} not ~half of general {gflops}"
        );
        assert_eq!(ssnap.counter(metric_names::SYRK_CALLS), Some(1));
        let mirrored = ssnap.counter(metric_names::SYRK_MIRRORED_NNZ).unwrap();
        let emitted = ssnap.counter(metric_names::NNZ_FINAL).unwrap();
        assert_eq!(emitted + mirrored, c.nnz() as u64);
        // General kernel records the full output as final nnz.
        assert_eq!(gsnap.counter(metric_names::NNZ_FINAL), Some(c.nnz() as u64));
        // One mirror pass per SYRK product, none for a general product;
        // one row pass per product of either kind.
        assert_eq!(ssnap.span(metric_names::MIRROR_SPAN).unwrap().count, 1);
        assert!(gsnap.span(metric_names::MIRROR_SPAN).is_none());
        assert_eq!(ssnap.span(metric_names::ROW_PASS_SPAN).unwrap().count, 1);
        assert_eq!(gsnap.span(metric_names::ROW_PASS_SPAN).unwrap().count, 1);
        // In panel mode too, and once per call on a shared registry.
        let panel = SpgemmOptions {
            tuning: Tuning {
                threads: 1,
                panel: crate::panel::PanelPlan {
                    panel_rows: Some(16),
                    ..Default::default()
                },
            },
            ..Default::default()
        };
        let both = MetricsRegistry::new();
        let again = spgemm_syrk_sum(&terms, &threads(1), None, Some(&both)).unwrap();
        let paneled = spgemm_syrk_sum(&terms, &panel, None, Some(&both)).unwrap();
        assert_eq!((&again.matrix, &paneled.matrix), (&c, &c));
        let bsnap = both.snapshot();
        assert!(bsnap.counter(metric_names::PANELS).unwrap() > 0);
        assert_eq!(bsnap.span(metric_names::ROW_PASS_SPAN).unwrap().count, 2);
        assert_eq!(bsnap.span(metric_names::MIRROR_SPAN).unwrap().count, 2);
    }

    #[test]
    fn syrk_rejects_empty_terms_and_bad_dims() {
        assert!(spgemm_syrk_sum(&[], &SpgemmOptions::default(), None, None).is_err());
        let x = CsrMatrix::zeros(3, 4);
        let bad_xt = CsrMatrix::zeros(4, 5); // n_cols != x.n_rows
        let terms = [SyrkTerm { x: &x, xt: &bad_xt }];
        assert!(spgemm_syrk_sum(&terms, &SpgemmOptions::default(), None, None).is_err());
    }

    #[test]
    fn syrk_cancellation_aborts() {
        let x = pseudo_random_matrix(128, 64, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let token = CancelToken::new();
        token.cancel();
        for n_threads in [1, 4] {
            let terms = [SyrkTerm { x: &x, xt: &xt }];
            let r = spgemm_syrk_sum(&terms, &threads(n_threads), Some(&token), None);
            assert_eq!(r.err(), Some(SparseError::Cancelled));
        }
    }

    #[test]
    fn syrk_budgeted_within_budget_is_exact() {
        let x = pseudo_random_matrix(40, 30, 0x243F6A8885A308D3, 3);
        let xt = transpose(&x);
        let opts = SpgemmOptions {
            nnz_budget: Some(1_000_000),
            ..Default::default()
        };
        let r = spgemm_syrk_sum(&[SyrkTerm { x: &x, xt: &xt }], &opts, None, None).unwrap();
        assert!(!r.degraded);
        assert_eq!(r.matrix, general(&x, &xt, &SpgemmOptions::default()));
    }

    #[test]
    fn syrk_budgeted_degrades_deterministically_and_stays_symmetric() {
        let x = pseudo_random_matrix(48, 48, 0x9E3779B97F4A7C15, 2);
        let xt = transpose(&x);
        let terms = [SyrkTerm { x: &x, xt: &xt }];
        let opts = SpgemmOptions {
            nnz_budget: Some(120),
            ..Default::default()
        };
        let m = MetricsRegistry::new();
        let r = spgemm_syrk_sum(&terms, &opts, None, Some(&m)).unwrap();
        assert!(r.degraded);
        assert!(r.threshold_used > 0.0);
        r.matrix.validate().unwrap();
        assert!(r.matrix.is_symmetric(0.0));
        // Every surviving entry matches the exact product.
        let exact = general(&x, &xt, &SpgemmOptions::default());
        for (row, col, v) in r.matrix.iter() {
            assert_eq!(exact.get(row, col as usize), v);
            assert!(v.abs() >= r.threshold_used);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric_names::DEGRADED_FALLBACKS), Some(1));
        assert!(snap.counter(metric_names::BUDGET_COMPACTIONS).unwrap() > 0);
        // Deterministic.
        let again = spgemm_syrk_sum(&terms, &opts, None, None).unwrap();
        assert_eq!(r.matrix, again.matrix);
    }

    #[test]
    fn mirror_handles_missing_diagonal() {
        // Row 0 has no diagonal entry after drop_diagonal.
        let x = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0]]);
        let xt = transpose(&x);
        let opts = SpgemmOptions {
            drop_diagonal: true,
            ..Default::default()
        };
        assert_eq!(general(&x, &xt, &opts), syrk(&x, &xt, &opts));
    }
}
