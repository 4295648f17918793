//! Property tests for the per-row adaptive accumulators.
//!
//! The contract under test (DESIGN.md §16): the dense epoch-stamped
//! accumulator, the sorted sparse accumulator and any adaptive mix of the
//! two produce **bit-identical** output for the general Gustavson kernel
//! and the fused multi-term SYRK kernel, across thresholds, diagonal
//! dropping, crossover settings, thread counts and the budget-degraded
//! fallback — and the `rows_dense` / `rows_sparse` counters are a
//! deterministic function of the input and the crossover alone.
//!
//! Inputs come from the same hand-rolled 64-bit LCG as the other sparse
//! property tests so every run exercises byte-for-byte the same matrices.
//! The generator skews row widths heavily (hubs + near-empty rows) so the
//! adaptive path genuinely splits between strategies instead of
//! degenerating to all-dense or all-sparse.

use symclust_obs::MetricsRegistry;
use symclust_sparse::ops::transpose;
use symclust_sparse::spgemm::metric_names;
use symclust_sparse::{
    spgemm, spgemm_syrk_sum, AccumStrategy, CsrMatrix, SpgemmOptions, SyrkTerm, Tuning,
};

fn mul(a: &CsrMatrix, b: &CsrMatrix, opts: &SpgemmOptions) -> CsrMatrix {
    spgemm(a, b, opts, None, None).unwrap().matrix
}

/// Minimal deterministic generator: Knuth's 64-bit LCG constants.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// Width-skewed random matrix: ~1/8 of rows are hubs keeping about half
/// of all columns, the rest keep ~1/32 — so the Σ nnz width estimate
/// lands on both sides of any reasonable crossover. Values are small
/// multiples of 0.125, some negative, so thresholds and the `v != 0.0`
/// emission filter both bite.
fn skewed_matrix(n_rows: usize, n_cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = Lcg(seed);
    let mut rows = vec![vec![0.0f64; n_cols]; n_rows];
    for row in rows.iter_mut() {
        let keep_mod = if rng.next().is_multiple_of(8) { 2 } else { 32 };
        for v in row.iter_mut() {
            let r = rng.next();
            if r.is_multiple_of(keep_mod) {
                let mag = ((r >> 32) % 8 + 1) as f64 * 0.125;
                *v = if r.is_multiple_of(3) { -mag } else { mag };
            }
        }
    }
    CsrMatrix::from_dense(&rows)
}

const SEEDS: [u64; 4] = [
    0x243F6A8885A308D3,
    0x9E3779B97F4A7C15,
    0xB7E151628AED2A6A,
    0x452821E638D01377,
];

const CROSSOVERS: [usize; 4] = [1, 16, 64, 100_000];

fn opts_on(threads: usize, accum: AccumStrategy, crossover: Option<usize>) -> SpgemmOptions {
    SpgemmOptions {
        tuning: Tuning {
            threads,
            accum,
            accum_crossover: crossover,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn opts(accum: AccumStrategy, crossover: Option<usize>) -> SpgemmOptions {
    opts_on(4, accum, crossover)
}

#[test]
fn general_kernel_strategies_are_bitwise_identical() {
    for &seed in &SEEDS {
        let a = skewed_matrix(72, 64, seed);
        let b = skewed_matrix(64, 56, seed ^ 0xDEADBEEF);
        let dense = mul(&a, &b, &opts(AccumStrategy::Dense, None));
        let sparse = mul(&a, &b, &opts(AccumStrategy::Sparse, None));
        assert_eq!(dense, sparse, "seed {seed:#x}");
        for crossover in CROSSOVERS {
            let adaptive = mul(&a, &b, &opts(AccumStrategy::Adaptive, Some(crossover)));
            assert_eq!(dense, adaptive, "seed {seed:#x} crossover {crossover}");
        }
    }
}

#[test]
fn threshold_and_drop_diagonal_are_strategy_independent() {
    for &seed in &SEEDS[..2] {
        let a = skewed_matrix(64, 64, seed);
        let at = transpose(&a);
        for threshold in [0.0, 0.25, 1.5] {
            for drop_diagonal in [false, true] {
                let run = |accum, crossover| {
                    let o = SpgemmOptions {
                        threshold,
                        drop_diagonal,
                        ..opts(accum, crossover)
                    };
                    mul(&a, &at, &o)
                };
                let dense = run(AccumStrategy::Dense, None);
                assert_eq!(
                    dense,
                    run(AccumStrategy::Sparse, None),
                    "seed {seed:#x} threshold {threshold} drop {drop_diagonal}"
                );
                assert_eq!(dense, run(AccumStrategy::Adaptive, Some(16)));
            }
        }
    }
}

#[test]
fn fused_syrk_sum_strategies_are_bitwise_identical() {
    for &seed in &SEEDS {
        let x = skewed_matrix(56, 48, seed);
        let y = skewed_matrix(56, 40, seed ^ 0xA5A5A5A5);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let terms = [SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }];
        for threshold in [0.0, 0.5] {
            let run = |accum, crossover| {
                let o = SpgemmOptions {
                    threshold,
                    drop_diagonal: true,
                    ..opts(accum, crossover)
                };
                spgemm_syrk_sum(&terms, &o, None, None).unwrap().matrix
            };
            let dense = run(AccumStrategy::Dense, None);
            assert_eq!(
                dense,
                run(AccumStrategy::Sparse, None),
                "seed {seed:#x} threshold {threshold}"
            );
            for crossover in CROSSOVERS {
                assert_eq!(dense, run(AccumStrategy::Adaptive, Some(crossover)));
            }
        }
    }
}

#[test]
fn strategies_match_across_thread_counts() {
    let a = skewed_matrix(160, 160, SEEDS[0]);
    let reference = mul(
        &a,
        &a,
        &SpgemmOptions {
            tuning: Tuning {
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    for accum in [
        AccumStrategy::Dense,
        AccumStrategy::Sparse,
        AccumStrategy::Adaptive,
    ] {
        for n_threads in [1, 2, 4] {
            let c = mul(&a, &a, &opts_on(n_threads, accum, Some(32)));
            assert_eq!(reference, c, "{} x {n_threads} threads", accum.name());
        }
    }
}

#[test]
fn budget_degraded_paths_are_strategy_independent() {
    let a = skewed_matrix(56, 56, SEEDS[1]);
    let at = transpose(&a);
    let budgeted = |accum| SpgemmOptions {
        nnz_budget: Some(200),
        ..opts(accum, Some(16))
    };
    let general_run = |accum| {
        let r = spgemm(&a, &at, &budgeted(accum), None, None).unwrap();
        assert!(r.degraded, "budget 200 should force degradation");
        r.matrix
    };
    let dense = general_run(AccumStrategy::Dense);
    assert_eq!(dense, general_run(AccumStrategy::Sparse));
    assert_eq!(dense, general_run(AccumStrategy::Adaptive));

    let terms = [SyrkTerm { x: &a, xt: &at }];
    let syrk_run = |accum| {
        let r = spgemm_syrk_sum(&terms, &budgeted(accum), None, None).unwrap();
        assert!(r.degraded);
        r.matrix
    };
    let sdense = syrk_run(AccumStrategy::Dense);
    assert_eq!(sdense, syrk_run(AccumStrategy::Sparse));
    assert_eq!(sdense, syrk_run(AccumStrategy::Adaptive));
}

#[test]
fn row_strategy_counters_are_deterministic_and_exhaustive() {
    for &seed in &SEEDS[..2] {
        let a = skewed_matrix(96, 96, seed);
        let count = |n_threads| {
            let m = MetricsRegistry::new();
            let o = opts_on(n_threads, AccumStrategy::Adaptive, Some(64));
            spgemm(&a, &a, &o, None, Some(&m)).unwrap();
            let snap = m.snapshot();
            (
                snap.counter(metric_names::ROWS_DENSE).unwrap_or(0),
                snap.counter(metric_names::ROWS_SPARSE).unwrap_or(0),
                snap.counter(metric_names::ROWS).unwrap_or(0),
            )
        };
        let (d, s, rows) = count(1);
        assert_eq!(
            d + s,
            rows,
            "seed {seed:#x}: every row must pick a strategy"
        );
        assert!(d > 0 && s > 0, "seed {seed:#x}: width skew must split rows");
        assert_eq!(
            (d, s, rows),
            count(4),
            "seed {seed:#x}: thread-dependent mix"
        );
    }
}

#[test]
fn forced_strategies_count_all_rows_on_one_side() {
    let a = skewed_matrix(48, 48, SEEDS[2]);
    for (accum, expect_dense) in [(AccumStrategy::Dense, true), (AccumStrategy::Sparse, false)] {
        let m = MetricsRegistry::new();
        spgemm(&a, &a, &opts(accum, None), None, Some(&m)).unwrap();
        let snap = m.snapshot();
        let d = snap.counter(metric_names::ROWS_DENSE).unwrap_or(0);
        let s = snap.counter(metric_names::ROWS_SPARSE).unwrap_or(0);
        let rows = snap.counter(metric_names::ROWS).unwrap_or(0);
        if expect_dense {
            assert_eq!((d, s), (rows, 0));
        } else {
            assert_eq!((d, s), (0, rows));
        }
    }
}
