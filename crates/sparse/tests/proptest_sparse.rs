//! Property-based tests for the sparse-matrix substrate.

use proptest::prelude::*;
use symclust_sparse::{ops, spgemm, CooMatrix, CsrMatrix, SpgemmOptions, Tuning};

/// `A·B` on `n_threads` threads, otherwise default options.
fn mul(a: &CsrMatrix, b: &CsrMatrix, n_threads: usize) -> CsrMatrix {
    let opts = SpgemmOptions {
        tuning: Tuning {
            threads: n_threads,
            ..Default::default()
        },
        ..Default::default()
    };
    spgemm(a, b, &opts, None, None).unwrap().matrix
}

/// Strategy: a random sparse matrix given as dimensions plus triplets.
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(r, c)| {
        proptest::collection::vec((0..r, 0..c, -10.0f64..10.0), 0..max_nnz).prop_map(
            move |triplets| {
                CooMatrix::from_triplets(r, c, triplets)
                    .expect("in-bounds triplets")
                    .to_csr()
            },
        )
    })
}

fn square_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..max_nnz).prop_map(
            move |triplets| {
                CooMatrix::from_triplets(n, n, triplets)
                    .expect("in-bounds triplets")
                    .to_csr()
            },
        )
    })
}

fn dense_mul(a: &CsrMatrix, b: &CsrMatrix) -> Vec<Vec<f64>> {
    let (n, k, m) = (a.n_rows(), a.n_cols(), b.n_cols());
    let da = a.to_dense();
    let db = b.to_dense();
    let mut out = vec![vec![0.0; m]; n];
    for i in 0..n {
        for l in 0..k {
            if da[i][l] != 0.0 {
                for j in 0..m {
                    out[i][j] += da[i][l] * db[l][j];
                }
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn coo_to_csr_is_well_formed(m in sparse_matrix(30, 120)) {
        prop_assert!(m.validate().is_ok());
    }

    #[test]
    fn transpose_is_involution(m in sparse_matrix(30, 120)) {
        let t = ops::transpose(&ops::transpose(&m));
        prop_assert_eq!(t, m);
    }

    #[test]
    fn transpose_preserves_entries(m in sparse_matrix(20, 80)) {
        let t = ops::transpose(&m);
        for (r, c, v) in m.iter() {
            prop_assert_eq!(t.get(c as usize, r), v);
        }
        prop_assert_eq!(t.nnz(), m.nnz());
    }

    #[test]
    fn spgemm_matches_dense_reference(a in square_matrix(16, 60), b in square_matrix(16, 60)) {
        // Force compatible dims by multiplying a with its own transpose when
        // shapes disagree.
        let (a, b) = if a.n_cols() == b.n_rows() { (a, b) } else {
            let t = ops::transpose(&a);
            (a, t)
        };
        let c = mul(&a, &b, 1);
        prop_assert!(c.validate().is_ok());
        let expected = dense_mul(&a, &b);
        for (i, exp_row) in expected.iter().enumerate() {
            for (j, &e) in exp_row.iter().enumerate() {
                prop_assert!((c.get(i, j) - e).abs() < 1e-9,
                    "mismatch at ({i},{j}): {} vs {}", c.get(i, j), e);
            }
        }
    }

    #[test]
    fn parallel_spgemm_matches_serial(a in square_matrix(24, 150)) {
        let b = ops::transpose(&a);
        let serial = mul(&a, &b, 1);
        let parallel = mul(&a, &b, 3);
        prop_assert_eq!(serial.indptr(), parallel.indptr());
        prop_assert_eq!(serial.indices(), parallel.indices());
        for (x, y) in serial.values().iter().zip(parallel.values()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn aat_is_symmetric_psd_diag(a in square_matrix(20, 100)) {
        let t = ops::transpose(&a);
        let b = mul(&a, &t, 1);
        prop_assert!(b.is_symmetric(1e-9));
        // Diagonal of A·Aᵀ is a sum of squares.
        for i in 0..b.n_rows() {
            prop_assert!(b.get(i, i) >= -1e-12);
        }
    }

    #[test]
    fn add_is_commutative(a in square_matrix(20, 80)) {
        let b = ops::transpose(&a);
        let ab = ops::add(&a, &b).unwrap();
        let ba = ops::add(&b, &a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn prune_is_monotone_in_threshold(m in sparse_matrix(25, 120), t1 in 0.0f64..5.0, t2 in 0.0f64..5.0) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let (p_lo, _) = ops::prune(&m, lo);
        let (p_hi, _) = ops::prune(&m, hi);
        prop_assert!(p_hi.nnz() <= p_lo.nnz());
        // Every surviving entry passes the threshold.
        for (_, _, v) in p_hi.iter() {
            prop_assert!(v.abs() >= hi);
        }
    }

    #[test]
    fn row_normalize_rows_sum_to_one_or_zero(m in sparse_matrix(25, 120)) {
        // Use absolute values so row sums cannot cancel to zero.
        let mut abs = m.clone();
        for v in abs.values_mut() { *v = v.abs(); }
        let p = ops::row_normalize(&abs);
        for row in 0..p.n_rows() {
            let s: f64 = p.row_values(row).iter().sum();
            prop_assert!(s.abs() < 1e-12 || (s - 1.0).abs() < 1e-9, "row {row} sums to {s}");
        }
    }

    #[test]
    fn mul_vec_matches_dense(m in sparse_matrix(20, 80), x in proptest::collection::vec(-5.0f64..5.0, 1..20)) {
        // Resize x to match.
        let mut x = x;
        x.resize(m.n_cols(), 1.0);
        let y = m.mul_vec(&x).unwrap();
        let dense = m.to_dense();
        for i in 0..m.n_rows() {
            let expected: f64 = dense[i].iter().zip(&x).map(|(a, b)| a * b).sum();
            prop_assert!((y[i] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn top_k_keeps_largest(m in sparse_matrix(20, 100), k in 1usize..8) {
        let t = ops::top_k_per_row(&m, k);
        prop_assert!(t.validate().is_ok());
        for row in 0..m.n_rows() {
            prop_assert!(t.row_nnz(row) <= k);
            prop_assert!(t.row_nnz(row) <= m.row_nnz(row));
            // The minimum kept magnitude >= max dropped magnitude.
            if t.row_nnz(row) < m.row_nnz(row) {
                let kept_min = t.row_values(row).iter().map(|v| v.abs()).fold(f64::MAX, f64::min);
                let kept_cols: Vec<u32> = t.row_indices(row).to_vec();
                let dropped_max = m.row_iter(row)
                    .filter(|(c, _)| !kept_cols.contains(c))
                    .map(|(_, v)| v.abs())
                    .fold(0.0f64, f64::max);
                prop_assert!(kept_min >= dropped_max - 1e-12);
            }
        }
    }
}
