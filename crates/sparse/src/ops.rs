//! Structural and element-wise operations on CSR matrices: transpose,
//! addition, diagonal scaling, pruning, normalization, diagonal edits.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::Result;

/// Transposes `a` in O(nnz + n) using a counting pass.
pub fn transpose(a: &CsrMatrix) -> CsrMatrix {
    let n_rows = a.n_rows();
    let n_cols = a.n_cols();
    let nnz = a.nnz();
    let mut indptr = vec![0usize; n_cols + 1];
    for &c in a.indices() {
        indptr[c as usize + 1] += 1;
    }
    for i in 0..n_cols {
        indptr[i + 1] += indptr[i];
    }
    let mut indices = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    let mut cursor = indptr.clone();
    for row in 0..n_rows {
        for (col, v) in a.row_iter(row) {
            let pos = cursor[col as usize];
            indices[pos] = row as u32;
            values[pos] = v;
            cursor[col as usize] += 1;
        }
    }
    // Row-major traversal guarantees sorted row indices within each
    // transposed row, so the output is well-formed by construction.
    CsrMatrix::from_raw_parts_unchecked(n_cols, n_rows, indptr, indices, values)
}

/// Computes `alpha * a + beta * b` for same-shaped matrices.
pub fn add_scaled(a: &CsrMatrix, alpha: f64, b: &CsrMatrix, beta: f64) -> Result<CsrMatrix> {
    if a.n_rows() != b.n_rows() || a.n_cols() != b.n_cols() {
        return Err(SparseError::DimensionMismatch {
            op: "add_scaled",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (b.n_rows(), b.n_cols()),
        });
    }
    let n_rows = a.n_rows();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    for row in 0..n_rows {
        let (ac, av) = (a.row_indices(row), a.row_values(row));
        let (bc, bv) = (b.row_indices(row), b.row_values(row));
        let (mut i, mut j) = (0usize, 0usize);
        while i < ac.len() || j < bc.len() {
            let (col, val) = if j >= bc.len() || (i < ac.len() && ac[i] < bc[j]) {
                let e = (ac[i], alpha * av[i]);
                i += 1;
                e
            } else if i >= ac.len() || bc[j] < ac[i] {
                let e = (bc[j], beta * bv[j]);
                j += 1;
                e
            } else {
                let e = (ac[i], alpha * av[i] + beta * bv[j]);
                i += 1;
                j += 1;
                e
            };
            if val != 0.0 {
                indices.push(col);
                values.push(val);
            }
        }
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_raw_parts_unchecked(
        n_rows,
        a.n_cols(),
        indptr,
        indices,
        values,
    ))
}

/// Computes `a + b`.
pub fn add(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    add_scaled(a, 1.0, b, 1.0)
}

/// Scales row `i` of the matrix by `diag[i]` in place (computes `D A`).
pub fn scale_rows(a: &mut CsrMatrix, diag: &[f64]) -> Result<()> {
    if diag.len() != a.n_rows() {
        return Err(SparseError::DimensionMismatch {
            op: "scale_rows",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (diag.len(), diag.len()),
        });
    }
    let n_rows = a.n_rows();
    let indptr = a.indptr().to_vec();
    let values = a.values_mut();
    for row in 0..n_rows {
        let d = diag[row];
        for v in &mut values[indptr[row]..indptr[row + 1]] {
            *v *= d;
        }
    }
    Ok(())
}

/// Scales column `j` of the matrix by `diag[j]` in place (computes `A D`).
pub fn scale_cols(a: &mut CsrMatrix, diag: &[f64]) -> Result<()> {
    if diag.len() != a.n_cols() {
        return Err(SparseError::DimensionMismatch {
            op: "scale_cols",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (diag.len(), diag.len()),
        });
    }
    let indices: Vec<u32> = a.indices().to_vec();
    let values = a.values_mut();
    for (v, &c) in values.iter_mut().zip(indices.iter()) {
        *v *= diag[c as usize];
    }
    Ok(())
}

/// Removes entries with `|value| < threshold`; returns the number dropped.
pub fn prune(a: &CsrMatrix, threshold: f64) -> (CsrMatrix, usize) {
    let n_rows = a.n_rows();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for row in 0..n_rows {
        for (col, v) in a.row_iter(row) {
            if v.abs() >= threshold {
                indices.push(col);
                values.push(v);
            }
        }
        indptr.push(indices.len());
    }
    let dropped = a.nnz() - indices.len();
    (
        CsrMatrix::from_raw_parts_unchecked(n_rows, a.n_cols(), indptr, indices, values),
        dropped,
    )
}

/// Removes diagonal entries from a square matrix.
pub fn drop_diagonal(a: &CsrMatrix) -> CsrMatrix {
    let n_rows = a.n_rows();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for row in 0..n_rows {
        for (col, v) in a.row_iter(row) {
            if col as usize != row {
                indices.push(col);
                values.push(v);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts_unchecked(n_rows, a.n_cols(), indptr, indices, values)
}

/// Adds `value` on the diagonal of a square matrix (missing diagonal entries
/// are created). Used for the paper's `A := A + I` pre-step (§3.3).
pub fn add_diagonal(a: &CsrMatrix, value: f64) -> Result<CsrMatrix> {
    if a.n_rows() != a.n_cols() {
        return Err(SparseError::DimensionMismatch {
            op: "add_diagonal",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (a.n_cols(), a.n_rows()),
        });
    }
    let mut eye = CsrMatrix::identity(a.n_rows());
    for v in eye.values_mut() {
        *v = value;
    }
    add(a, &eye)
}

/// Normalizes each row to sum to 1, producing a row-stochastic transition
/// matrix. Rows that sum to zero (dangling nodes) are left empty; callers
/// that need dangling handling deal with it explicitly (see `pagerank`).
#[expect(
    clippy::expect_used,
    reason = "row_sums is computed from the same matrix two lines above"
)]
pub fn row_normalize(a: &CsrMatrix) -> CsrMatrix {
    let mut out = a.clone();
    let sums = a.row_sums();
    let inv: Vec<f64> = sums
        .iter()
        .map(|&s| if s != 0.0 { 1.0 / s } else { 0.0 })
        .collect();
    scale_rows(&mut out, &inv).expect("row_sums length always matches");
    // Remove rows that were zeroed (dangling rows keep structure but with
    // zero values would violate the no-explicit-zero convention); prune them.
    if sums.contains(&0.0) {
        let (pruned, _) = prune(&out, f64::MIN_POSITIVE);
        pruned
    } else {
        out
    }
}

/// Keeps at most the `k` largest-magnitude entries of each row.
///
/// Used by MCL-style pruning and by top-edge reports.
pub fn top_k_per_row(a: &CsrMatrix, k: usize) -> CsrMatrix {
    let n_rows = a.n_rows();
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for row in 0..n_rows {
        scratch.clear();
        scratch.extend(a.row_iter(row));
        if scratch.len() > k {
            scratch.sort_unstable_by(|x, y| {
                y.1.abs()
                    .partial_cmp(&x.1.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            scratch.truncate(k);
            scratch.sort_unstable_by_key(|&(c, _)| c);
        }
        for &(c, v) in &scratch {
            indices.push(c);
            values.push(v);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts_unchecked(n_rows, a.n_cols(), indptr, indices, values)
}

/// Extracts the `k` largest entries of the upper triangle of a symmetric
/// matrix as `(row, col, value)` sorted by descending value.
///
/// Backs the paper's Table 5 (top-weighted edges per symmetrization).
pub fn top_k_entries_upper(a: &CsrMatrix, k: usize) -> Vec<(usize, usize, f64)> {
    let mut heap: std::collections::BinaryHeap<
        std::cmp::Reverse<(ordered_f64::OrderedF64, usize, usize)>,
    > = std::collections::BinaryHeap::with_capacity(k + 1);
    for (r, c, v) in a.iter() {
        let c = c as usize;
        if c <= r {
            continue;
        }
        heap.push(std::cmp::Reverse((ordered_f64::OrderedF64(v), r, c)));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<(usize, usize, f64)> = heap
        .into_iter()
        .map(|std::cmp::Reverse((v, r, c))| (r, c, v.0))
        .collect();
    out.sort_unstable_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    out
}

mod ordered_f64 {
    /// Total-order wrapper for finite f64 values used in the top-k heap.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct OrderedF64(pub f64);

    impl Eq for OrderedF64 {}

    impl PartialOrd for OrderedF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for OrderedF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}

/// Symmetrizes structurally: returns `(a + aᵀ)` for a square matrix.
pub fn plus_transpose(a: &CsrMatrix) -> Result<CsrMatrix> {
    let t = transpose(a);
    add(a, &t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_dense(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
            vec![3.0, 4.0, 0.0],
        ])
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        let t = transpose(&m);
        t.validate().unwrap();
        assert_eq!(
            t.to_dense(),
            vec![
                vec![1.0, 0.0, 3.0],
                vec![0.0, 0.0, 4.0],
                vec![2.0, 0.0, 0.0]
            ]
        );
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        assert_eq!(transpose(&transpose(&m)), m);
    }

    #[test]
    fn transpose_rectangular() {
        let m = CsrMatrix::from_dense(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = transpose(&m);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn add_matches_dense() {
        let a = sample();
        let b = transpose(&a);
        let s = add(&a, &b).unwrap();
        s.validate().unwrap();
        assert_eq!(
            s.to_dense(),
            vec![
                vec![2.0, 0.0, 5.0],
                vec![0.0, 0.0, 4.0],
                vec![5.0, 4.0, 0.0]
            ]
        );
        assert!(s.is_symmetric(0.0));
    }

    #[test]
    fn add_scaled_cancellation_drops_entries() {
        let a = sample();
        let s = add_scaled(&a, 1.0, &a, -1.0).unwrap();
        assert_eq!(s.nnz(), 0);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = sample();
        let b = CsrMatrix::zeros(2, 3);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn scale_rows_and_cols() {
        let mut m = sample();
        scale_rows(&mut m, &[2.0, 3.0, 0.5]).unwrap();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 1), 2.0);
        scale_cols(&mut m, &[1.0, 10.0, 1.0]).unwrap();
        assert_eq!(m.get(2, 1), 20.0);
        assert!(scale_rows(&mut m, &[1.0]).is_err());
        assert!(scale_cols(&mut m, &[1.0]).is_err());
    }

    #[test]
    fn prune_drops_small_entries() {
        let m = sample();
        let (p, dropped) = prune(&m, 2.5);
        assert_eq!(dropped, 2);
        assert_eq!(p.nnz(), 2);
        assert_eq!(p.get(2, 0), 3.0);
        assert_eq!(p.get(2, 1), 4.0);
        assert_eq!(p.get(0, 0), 0.0);
    }

    #[test]
    fn prune_zero_threshold_keeps_all() {
        let m = sample();
        let (p, dropped) = prune(&m, 0.0);
        assert_eq!(dropped, 0);
        assert_eq!(p, m);
    }

    #[test]
    fn drop_and_add_diagonal() {
        let m = CsrMatrix::from_dense(&[vec![5.0, 1.0], vec![0.0, 7.0]]);
        let d = drop_diagonal(&m);
        assert_eq!(d.nnz(), 1);
        assert_eq!(d.get(0, 1), 1.0);
        let e = add_diagonal(&d, 1.0).unwrap();
        assert_eq!(e.get(0, 0), 1.0);
        assert_eq!(e.get(1, 1), 1.0);
        assert_eq!(e.get(0, 1), 1.0);
        assert!(add_diagonal(&CsrMatrix::zeros(2, 3), 1.0).is_err());
    }

    #[test]
    fn row_normalize_makes_stochastic() {
        let m = sample();
        let p = row_normalize(&m);
        let sums = p.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert_eq!(sums[1], 0.0); // dangling row stays empty
        assert!((sums[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_per_row_keeps_largest() {
        let m = CsrMatrix::from_dense(&[vec![1.0, 5.0, 3.0, 2.0]]);
        let t = top_k_per_row(&m, 2);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(0, 1), 5.0);
        assert_eq!(t.get(0, 2), 3.0);
        // k larger than row nnz keeps everything
        let t = top_k_per_row(&m, 10);
        assert_eq!(t, m);
    }

    #[test]
    fn top_k_entries_upper_sorted_descending() {
        let m = CsrMatrix::from_dense(&[
            vec![0.0, 9.0, 1.0],
            vec![9.0, 0.0, 4.0],
            vec![1.0, 4.0, 0.0],
        ]);
        let top = top_k_entries_upper(&m, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (0, 1, 9.0));
        assert_eq!(top[1], (1, 2, 4.0));
    }

    #[test]
    fn plus_transpose_symmetric() {
        let m = sample();
        let s = plus_transpose(&m).unwrap();
        assert!(s.is_symmetric(0.0));
        // bidirectional pair sums weights
        let m2 = CsrMatrix::from_dense(&[vec![0.0, 2.0], vec![3.0, 0.0]]);
        let s2 = plus_transpose(&m2).unwrap();
        assert_eq!(s2.get(0, 1), 5.0);
        assert_eq!(s2.get(1, 0), 5.0);
    }
}
