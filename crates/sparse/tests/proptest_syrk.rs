//! Property tests for the symmetric (SYRK) kernel family and the
//! work-stealing parallel scheduler.
//!
//! Inputs come from a hand-rolled deterministic generator (a 64-bit LCG)
//! rather than `StdRng`/proptest, so every run — any machine, any thread
//! count — exercises byte-for-byte the same matrices. The generator is
//! biased towards *hub-heavy* structure (a few rows far denser than the
//! rest) because that skew is exactly what the work-stealing scheduler
//! and the upper-triangle kernel exist for.

use symclust_sparse::ops::transpose;
use symclust_sparse::{spgemm, spgemm_syrk_sum, CsrMatrix, SpgemmOptions, SyrkTerm, Tuning};

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

/// Hub-heavy random matrix: a handful of rows get ~`hub_density`
/// expected fill, the rest stay sparse. Values are small positive
/// multiples of 0.125 so products are exact-ish but thresholds bite.
fn hub_matrix(n_rows: usize, n_cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = Lcg(seed);
    let mut rows = vec![vec![0.0f64; n_cols]; n_rows];
    for (i, row) in rows.iter_mut().enumerate() {
        let is_hub = rng.next().is_multiple_of(10);
        // Hubs keep ~1/2 of columns, normal rows ~1/32.
        let keep_mod = if is_hub { 2 } else { 32 };
        for v in row.iter_mut() {
            let r = rng.next();
            if r.is_multiple_of(keep_mod) {
                *v = ((r >> 32) % 8 + 1) as f64 * 0.125;
            }
        }
        // Guarantee at least one very dense pseudo-hub deterministically.
        if i == 0 {
            for (j, v) in row.iter_mut().enumerate() {
                if j % 2 == 0 && *v == 0.0 {
                    *v = 0.5;
                }
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

#[test]
fn syrk_equals_general_product_with_transpose() {
    for (case, &seed) in SEEDS.iter().enumerate() {
        let x = hub_matrix(80, 50, seed);
        let xt = transpose(&x);
        let c = syrk(&x, &xt, &threads(4));
        c.validate().unwrap();
        assert_eq!(general(&x, &xt, &threads(1)), c, "case {case}");
    }
}

#[test]
fn syrk_output_is_exactly_symmetric() {
    for &seed in &SEEDS {
        let x = hub_matrix(70, 70, seed);
        let xt = transpose(&x);
        let c = syrk(&x, &xt, &threads(4));
        assert_eq!(c, transpose(&c));
    }
}

#[test]
fn parallel_general_kernel_matches_serial_across_thread_counts() {
    for &seed in &SEEDS[..2] {
        let a = hub_matrix(200, 200, seed);
        let serial = general(&a, &a, &threads(1));
        for n_threads in [2, 3, 4, 8] {
            let parallel = general(&a, &a, &threads(n_threads));
            assert_eq!(serial, parallel, "seed {seed:#x} threads {n_threads}");
        }
    }
}

#[test]
fn parallel_syrk_matches_serial_across_thread_counts() {
    for &seed in &SEEDS[..2] {
        let x = hub_matrix(220, 140, seed);
        let xt = transpose(&x);
        let serial = syrk(&x, &xt, &threads(1));
        for n_threads in [2, 3, 4, 8] {
            let parallel = syrk(&x, &xt, &threads(n_threads));
            assert_eq!(serial, parallel, "seed {seed:#x} threads {n_threads}");
        }
    }
}

#[test]
fn threshold_and_drop_diagonal_match_general_kernel_on_hub_graphs() {
    for &seed in &SEEDS {
        let x = hub_matrix(64, 48, seed);
        let xt = transpose(&x);
        for threshold in [0.0, 0.5, 2.0] {
            for drop_diagonal in [false, true] {
                let opts = SpgemmOptions {
                    threshold,
                    drop_diagonal,
                    ..threads(1)
                };
                assert_eq!(
                    general(&x, &xt, &opts),
                    syrk(&x, &xt, &opts),
                    "seed {seed:#x} threshold {threshold} drop_diagonal {drop_diagonal}"
                );
            }
        }
    }
}

#[test]
fn fused_two_term_sum_matches_separate_products() {
    for &seed in &SEEDS[..2] {
        let x = hub_matrix(60, 40, seed);
        let y = hub_matrix(60, 35, seed ^ 0xFFFF_FFFF);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let separate = symclust_sparse::ops::add(
            &general(&x, &xt, &threads(1)),
            &general(&y, &yt, &threads(1)),
        )
        .unwrap();
        for n_threads in [1, 4] {
            let fused = spgemm_syrk_sum(
                &[SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }],
                &threads(n_threads),
                None,
                None,
            )
            .unwrap();
            assert_eq!(separate, fused.matrix, "seed {seed:#x} threads {n_threads}");
        }
    }
}
