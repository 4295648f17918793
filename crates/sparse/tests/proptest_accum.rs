//! The row accumulators against an independent reference.
//!
//! The contract under test (DESIGN.md §16): every row of the general
//! Gustavson kernel and of the fused multi-term SYRK kernel adds its
//! products onto `0.0` in ascending `k` (term by term for a SYRK sum, the
//! terms then added in order), so its output is **bit-identical** to a
//! plain dense triple loop that shares no code with the kernels — across
//! thresholds, diagonal dropping, thread counts and a panel plan — and so
//! are the `spgemm.nnz_intermediate` / `spgemm.nnz_final` counts.
//!
//! Inputs come from the same hand-rolled 64-bit LCG as the other sparse
//! property tests, so every run exercises byte-for-byte the same matrices.
//! The generator skews row widths heavily (hubs + near-empty rows), so
//! both wide rows and rows of a product or two run, and its values are
//! signed thirds, so the order of every add shows in the bits and equal
//! products of opposite sign cancel to an exact zero.

use symclust_obs::MetricsRegistry;
use symclust_sparse::ops::transpose;
use symclust_sparse::spgemm::metric_names;
use symclust_sparse::{
    spgemm, spgemm_syrk_sum, CsrMatrix, PanelPlan, SpgemmOptions, SpgemmOutput, SyrkTerm, Tuning,
};

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
/// of all columns, the rest keep ~1/32, so some rows are empty and some
/// hold one entry. Values are `±m / 3` for `m` in `1..=8`.
fn skewed_matrix(n_rows: usize, n_cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = Lcg(seed);
    let mut rows = vec![vec![0.0f64; n_cols]; n_rows];
    for row in rows.iter_mut() {
        let keep_mod = if rng.next().is_multiple_of(8) { 2 } else { 32 };
        for v in row.iter_mut() {
            let r = rng.next();
            if r.is_multiple_of(keep_mod) {
                let mag = ((r >> 32) % 8 + 1) as f64 / 3.0;
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

/// Dense `A·B`, no kernel code: entry `(i, j)` is `0.0 + Σₖ a(i,k)·b(k,j)`
/// over the `k` where both are stored, in ascending `k`, or `None` when
/// there is no such `k` (the entry is never touched). The generator
/// stores no zeros, so "stored" is "non-zero".
fn reference_product(a: &[Vec<f64>], b: &[Vec<f64>], n_cols: usize) -> Vec<Vec<Option<f64>>> {
    a.iter()
        .map(|ai| {
            (0..n_cols)
                .map(|j| {
                    let mut sum = None;
                    for (av, bk) in ai.iter().zip(b) {
                        if *av != 0.0 && bk[j] != 0.0 {
                            *sum.get_or_insert(0.0) += av * bk[j];
                        }
                    }
                    sum
                })
                .collect()
        })
        .collect()
}

/// `Σₜ XₜXₜᵀ`: each term's [`reference_product`], added onto `0.0` in
/// term order; a term that never reaches `(i, j)` adds `0.0`.
fn reference_syrk_sum(xs: &[CsrMatrix]) -> Vec<Vec<Option<f64>>> {
    let n = xs[0].n_rows();
    let products: Vec<_> = xs
        .iter()
        .map(|x| {
            let rows = x.to_dense();
            let cols: Vec<Vec<f64>> = (0..x.n_cols())
                .map(|k| rows.iter().map(|r| r[k]).collect())
                .collect();
            reference_product(&rows, &cols, n)
        })
        .collect();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let reached = products.iter().any(|p| p[i][j].is_some());
                    reached.then(|| {
                        let mut total = 0.0f64;
                        for p in &products {
                            total += p[i][j].unwrap_or(0.0);
                        }
                        total
                    })
                })
                .collect()
        })
        .collect()
}

/// What a kernel run must return: the filtered reference, and the counts
/// of touched and emitted entries (in the upper triangle only for SYRK).
struct Expected {
    matrix: CsrMatrix,
    touched: u64,
    emitted: u64,
}

fn expected(full: &[Vec<Option<f64>>], opts: &SpgemmOptions, upper_only: bool) -> Expected {
    let (mut touched, mut emitted) = (0, 0);
    let rows: Vec<Vec<f64>> = full
        .iter()
        .enumerate()
        .map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(|(j, entry)| {
                    let Some(v) = *entry else { return 0.0 };
                    let keep =
                        v != 0.0 && v.abs() >= opts.threshold && !(opts.drop_diagonal && i == j);
                    if !upper_only || j >= i {
                        touched += 1;
                        emitted += keep as u64;
                    }
                    if keep {
                        v
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    Expected {
        matrix: CsrMatrix::from_dense(&rows),
        touched,
        emitted,
    }
}

fn bits(m: &CsrMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// Every way of running a kernel: 1, 2 and 4 threads, in memory and under
/// a 7-row panel plan.
fn tunings() -> Vec<Tuning> {
    let mut out = Vec::new();
    for panel_rows in [None, Some(7)] {
        for threads in [1, 2, 4] {
            out.push(Tuning {
                threads,
                panel: PanelPlan {
                    panel_rows,
                    spill_dir: None,
                    budget_bytes: None,
                },
            });
        }
    }
    out
}

/// Runs `kernel` under every tuning, threshold and diagonal filter and
/// holds each result to `full` filtered the same way. Returns whether
/// some touched entry summed to an exact zero and was not emitted.
fn check_against(
    full: &[Vec<Option<f64>>],
    upper_only: bool,
    label: &str,
    kernel: impl Fn(&SpgemmOptions, &MetricsRegistry) -> SpgemmOutput,
) -> bool {
    let mut cancelled = false;
    for threshold in [0.0, 0.25, 1.5] {
        for drop_diagonal in [false, true] {
            let base = SpgemmOptions {
                threshold,
                drop_diagonal,
                ..Default::default()
            };
            let want = expected(full, &base, upper_only);
            for tuning in tunings() {
                let opts = SpgemmOptions {
                    tuning: tuning.clone(),
                    ..base.clone()
                };
                let m = MetricsRegistry::new();
                let got = kernel(&opts, &m).matrix;
                let at = format!("{label} t {threshold} drop {drop_diagonal} {tuning:?}");
                assert_eq!(got, want.matrix, "{at}");
                assert_eq!(bits(&got), bits(&want.matrix), "{at}");
                let snap = m.snapshot();
                let count = |key| snap.counter(key).unwrap_or(0);
                assert_eq!(count(metric_names::NNZ_INTERMEDIATE), want.touched, "{at}");
                assert_eq!(count(metric_names::NNZ_FINAL), want.emitted, "{at}");
            }
            cancelled |= threshold == 0.0 && !drop_diagonal && want.emitted < want.touched;
        }
    }
    cancelled
}

#[test]
fn general_kernel_matches_the_dense_reference_in_bits() {
    let mut cancelled = false;
    for &seed in &SEEDS {
        let a = skewed_matrix(72, 64, seed);
        let b = skewed_matrix(64, 72, seed ^ 0xDEADBEEF);
        let full = reference_product(&a.to_dense(), &b.to_dense(), b.n_cols());
        cancelled |= check_against(&full, false, &format!("seed {seed:#x}"), |opts, m| {
            spgemm(&a, &b, opts, None, Some(m)).unwrap()
        });
    }
    assert!(cancelled, "no touched entry summed to an exact zero");
}

#[test]
fn syrk_sum_of_signed_terms_matches_the_dense_reference_in_bits() {
    let mut cancelled = false;
    for &seed in &SEEDS {
        let xs = [
            skewed_matrix(56, 48, seed),
            skewed_matrix(56, 40, seed ^ 0xA5A5A5A5),
            skewed_matrix(56, 24, seed ^ 0x5A5A5A5A),
        ];
        let xts: Vec<CsrMatrix> = xs.iter().map(transpose).collect();
        for n_terms in [1, 3] {
            let xs = &xs[..n_terms];
            let terms: Vec<SyrkTerm> = xs
                .iter()
                .zip(&xts)
                .map(|(x, xt)| SyrkTerm { x, xt })
                .collect();
            let full = reference_syrk_sum(xs);
            let label = format!("seed {seed:#x} terms {n_terms}");
            cancelled |= check_against(&full, true, &label, |opts, m| {
                spgemm_syrk_sum(&terms, opts, None, Some(m)).unwrap()
            });
        }
    }
    assert!(cancelled, "no touched entry summed to an exact zero");
}

#[test]
fn budget_degraded_runs_match_across_thread_counts() {
    let a = skewed_matrix(56, 56, SEEDS[1]);
    let at = transpose(&a);
    let terms = [SyrkTerm { x: &a, xt: &at }];
    let run = |threads, syrk: bool| {
        let opts = SpgemmOptions {
            nnz_budget: Some(200),
            tuning: Tuning {
                threads,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = if syrk {
            spgemm_syrk_sum(&terms, &opts, None, None)
        } else {
            spgemm(&a, &at, &opts, None, None)
        }
        .unwrap();
        assert!(r.degraded, "budget 200 should force degradation");
        (bits(&r.matrix), r.matrix, r.threshold_used.to_bits())
    };
    for syrk in [false, true] {
        let one = run(1, syrk);
        for threads in [2, 4] {
            assert_eq!(one, run(threads, syrk), "syrk {syrk} threads {threads}");
        }
    }
}
