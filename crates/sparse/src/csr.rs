//! Compressed sparse row (CSR) matrix.
//!
//! Invariants maintained by every constructor:
//!
//! * `indptr.len() == n_rows + 1`, `indptr[0] == 0`, monotone non-decreasing,
//!   `indptr[n_rows] == indices.len() == values.len()`;
//! * within each row, column indices are strictly increasing (sorted, no
//!   duplicates);
//! * every column index is `< n_cols`;
//! * no explicit zeros are stored unless the caller inserts them via
//!   [`CsrMatrix::from_raw_parts_unchecked`] (the arithmetic routines never
//!   produce them except through exact cancellation, which is tolerated).

use crate::error::SparseError;
use crate::Result;
use std::ops::ControlFlow;

/// A sparse matrix in compressed sparse row format.
///
/// Rows are indexed `0..n_rows`, columns `0..n_cols`. Column indices are
/// stored as `u32` to halve memory traffic on large graphs.
///
/// ```
/// use symclust_sparse::CsrMatrix;
/// let m = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![2.0, 3.0]]);
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.get(1, 0), 2.0);
/// assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![1.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an `n_rows x n_cols` matrix with no stored entries.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        CsrMatrix {
            n_rows,
            n_cols,
            indptr: vec![0; n_rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from raw components, validating all invariants.
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        validate_parts(n_rows, n_cols, &indptr, &indices, &values)
            .map_err(|(_, detail)| SparseError::InvalidStructure(detail))?;
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from raw components without validation.
    ///
    /// Internal fast path for routines that construct structurally valid
    /// output. Debug builds still verify the invariants.
    pub fn from_raw_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        let m = CsrMatrix {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(m.validate().is_ok(), "unchecked CSR violates invariants");
        m
    }

    /// Re-checks all structural invariants plus value finiteness, without
    /// copying any array. A failure means the matrix was corrupted *after*
    /// construction (or built through an unchecked fast path by a buggy
    /// kernel), so errors surface as [`SparseError::Corrupted`] naming the
    /// violated invariant and the offending row/column.
    ///
    /// Negative values are legal here — spectral code stores Laplacians
    /// with negative off-diagonals. Graph adjacency and similarity outputs
    /// should use [`CsrMatrix::validate_graph`] or
    /// [`CsrMatrix::validate_symmetric`], which are strictly stronger.
    pub fn validate(&self) -> Result<()> {
        validate_parts(
            self.n_rows,
            self.n_cols,
            &self.indptr,
            &self.indices,
            &self.values,
        )
        .map_err(|(check, detail)| SparseError::Corrupted { check, detail })
    }

    /// [`validate`](Self::validate) plus the edge-weight contract of every
    /// graph in the pipeline: all stored values non-negative (a negative
    /// similarity or adjacency weight corrupts every downstream degree,
    /// stationary distribution, and normalized cut).
    pub fn validate_graph(&self) -> Result<()> {
        self.validate()?;
        for row in 0..self.n_rows {
            for (col, v) in self.row_iter(row) {
                if v < 0.0 {
                    return Err(SparseError::Corrupted {
                        check: "nonnegative",
                        detail: format!("row {row} col {col} has negative weight {v}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// [`validate_graph`](Self::validate_graph) plus *exact* symmetry:
    /// every stored `(i, j)` has a stored mirror `(j, i)` and the two
    /// values are bit-identical. This is the contract of every
    /// symmetrization output — in particular the SYRK kernels' mirror pass
    /// (DESIGN.md §12), which copies upper-triangle values into the lower
    /// triangle rather than recomputing them, so even one ULP of asymmetry
    /// indicates a kernel bug or corruption rather than rounding. Checked
    /// by one walk over the stored entries with O(n) extra memory.
    pub fn validate_symmetric(&self) -> Result<()> {
        self.validate_graph()?;
        if self.n_rows != self.n_cols {
            return Err(SparseError::Corrupted {
                check: "symmetry",
                detail: format!("matrix is {}x{}, not square", self.n_rows, self.n_cols),
            });
        }
        let walk = self.mirror_walk(|pair| match pair {
            Mirror::Pair { row, col, a, b } if a.to_bits() != b.to_bits() => {
                ControlFlow::Break(format!(
                    "entry ({row}, {col}) = {a:?} is not bit-identical \
                     to its mirror ({col}, {row}) = {b:?}"
                ))
            }
            Mirror::Lone { row, col, .. } => ControlFlow::Break(format!(
                "entry ({row}, {col}) has no stored mirror ({col}, {row})"
            )),
            Mirror::Pair { .. } => ControlFlow::Continue(()),
        });
        match walk {
            ControlFlow::Break(detail) => Err(SparseError::Corrupted {
                check: "symmetry",
                detail,
            }),
            ControlFlow::Continue(()) => Ok(()),
        }
    }

    /// Visits every stored entry of a square matrix once, paired with its
    /// mirror: each stored pair `(i, j)`, `(j, i)` with `i ≤ j` as one
    /// [`Mirror::Pair`] (a diagonal entry is its own mirror), each entry
    /// whose mirror is not stored as a [`Mirror::Lone`]. Stops at the first
    /// `Break`. O(nnz) time and one cursor per row; no transpose is built.
    ///
    /// Rows are walked in ascending order, and `next[j]` is row `j`'s
    /// first entry not yet visited. When row `i` begins, every row before
    /// it has claimed its mirrors in row `i`, so the entries left before
    /// column `i` are lone. Each upper entry `(i, j)`, `j > i`, then looks
    /// at row `j`'s next entries: those before column `i` are lone (their
    /// rows have passed), and one at column `i` is its mirror.
    fn mirror_walk<B>(&self, mut visit: impl FnMut(Mirror) -> ControlFlow<B>) -> ControlFlow<B> {
        debug_assert_eq!(
            self.n_rows, self.n_cols,
            "mirror_walk needs a square matrix"
        );
        let (indptr, indices, values) = (&self.indptr, &self.indices, &self.values);
        let mut next = indptr[..self.n_rows].to_vec();
        for i in 0..self.n_rows {
            self.lone_before(&mut next[i], i, i, &mut visit)?;
            for at in next[i]..indptr[i + 1] {
                let (j, a) = (indices[at] as usize, values[at]);
                let mirror = if j == i {
                    Some(a)
                } else {
                    self.lone_before(&mut next[j], j, i, &mut visit)?;
                    let p = next[j];
                    (p < indptr[j + 1] && indices[p] as usize == i).then(|| {
                        next[j] += 1;
                        values[p]
                    })
                };
                let col = indices[at];
                match mirror {
                    Some(b) => visit(Mirror::Pair { row: i, col, a, b })?,
                    None => visit(Mirror::Lone { row: i, col, v: a })?,
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The [`mirror_walk`](Self::mirror_walk) step that visits row `row`'s
    /// entries from `*next` on that lie before column `col` as lone, and
    /// moves `*next` past them.
    fn lone_before<B>(
        &self,
        next: &mut usize,
        row: usize,
        col: usize,
        visit: &mut impl FnMut(Mirror) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        while *next < self.indptr[row + 1] && (self.indices[*next] as usize) < col {
            visit(Mirror::Lone {
                row,
                col: self.indices[*next],
                v: self.values[*next],
            })?;
            *next += 1;
        }
        ControlFlow::Continue(())
    }

    /// Builds a matrix from a dense row-major slice, skipping zeros.
    pub fn from_dense(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut indptr = Vec::with_capacity(n_rows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged dense input");
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    indices.push(j as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts_unchecked(n_rows, n_cols, indptr, indices, values)
    }

    /// Converts to a dense row-major representation (small matrices / tests).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.n_cols]; self.n_rows];
        for (row, out_row) in out.iter_mut().enumerate() {
            for (col, v) in self.row_iter(row) {
                out_row[col as usize] = v;
            }
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The row-pointer array (`n_rows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (structure stays fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices of the stored entries in `row`.
    #[inline]
    pub fn row_indices(&self, row: usize) -> &[u32] {
        &self.indices[self.indptr[row]..self.indptr[row + 1]]
    }

    /// Values of the stored entries in `row`.
    #[inline]
    pub fn row_values(&self, row: usize) -> &[f64] {
        &self.values[self.indptr[row]..self.indptr[row + 1]]
    }

    /// Number of stored entries in `row`.
    #[inline]
    pub fn row_nnz(&self, row: usize) -> usize {
        self.indptr[row + 1] - self.indptr[row]
    }

    /// Iterates over `(column, value)` pairs of `row`.
    #[inline]
    pub fn row_iter(&self, row: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.row_indices(row)
            .iter()
            .copied()
            .zip(self.row_values(row).iter().copied())
    }

    /// Looks up entry `(row, col)`; returns 0.0 when not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.n_rows && col < self.n_cols);
        let cols = self.row_indices(row);
        match cols.binary_search(&(col as u32)) {
            Ok(pos) => self.row_values(row)[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        (0..self.n_rows).flat_map(move |r| self.row_iter(r).map(move |(c, v)| (r, c, v)))
    }

    /// Matrix–vector product `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n_cols {
            return Err(SparseError::DimensionMismatch {
                op: "mul_vec",
                lhs: (self.n_rows, self.n_cols),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.n_rows];
        for (row, y_row) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (col, v) in self.row_iter(row) {
                acc += v * x[col as usize];
            }
            *y_row = acc;
        }
        Ok(y)
    }

    /// Out-degree-style row sums (sum of values per row).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n_rows)
            .map(|r| self.row_values(r).iter().sum())
            .collect()
    }

    /// Column sums computed in one pass.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.n_cols];
        for (_, col, v) in self.iter() {
            sums[col as usize] += v;
        }
        sums
    }

    /// Number of stored entries per row.
    pub fn row_counts(&self) -> Vec<usize> {
        self.indptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Number of stored entries per column.
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_cols];
        for &c in &self.indices {
            counts[c as usize] += 1;
        }
        counts
    }

    /// True if the matrix is square, every stored entry has a stored
    /// mirror, and each mirrored pair `(a, b)` is within `tol`:
    /// `|a − b| ≤ tol · max(|a|, |b|, 1)`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.n_rows == self.n_cols
            && self
                .mirror_walk(|pair| match pair {
                    Mirror::Pair { a, b, .. }
                        if (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0) =>
                    {
                        ControlFlow::Continue(())
                    }
                    _ => ControlFlow::Break(()),
                })
                .is_continue()
    }

    /// Largest relative asymmetry `|a_ij − a_ji| / max(|a_ij|, |a_ji|, 1)`
    /// over all stored entries, an entry without a stored mirror paired
    /// with an implicit zero — the quantity [`CsrMatrix::is_symmetric`]
    /// compares against `tol`, useful for reporting *how* asymmetric a
    /// matrix is. Returns `f64::INFINITY` for non-square matrices.
    pub fn max_asymmetry(&self) -> f64 {
        if self.n_rows != self.n_cols {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        let _ = self.mirror_walk(|pair| {
            let (a, b) = match pair {
                Mirror::Pair { a, b, .. } => (a, b),
                Mirror::Lone { v, .. } => (v, 0.0),
            };
            worst = worst.max((a - b).abs() / a.abs().max(b.abs()).max(1.0));
            ControlFlow::<()>::Continue(())
        });
        worst
    }
}

/// One stored entry met by [`CsrMatrix::mirror_walk`], with its mirror.
enum Mirror {
    /// `(row, col) = a` and `(col, row) = b` are both stored, `row ≤ col`.
    Pair {
        row: usize,
        col: u32,
        a: f64,
        b: f64,
    },
    /// `(row, col) = v` is stored and `(col, row)` is not.
    Lone { row: usize, col: u32, v: f64 },
}

/// Checks the CSR invariants over borrowed components, with no allocation:
/// indptr shape and monotonicity, strictly increasing in-bounds column
/// indices per row, matching array lengths, and finite values. Returns
/// `(check, detail)` on failure so callers can wrap it as a construction
/// error ([`SparseError::InvalidStructure`]) or a post-construction one
/// ([`SparseError::Corrupted`]).
///
/// This is the single implementation behind [`CsrMatrix::from_raw_parts`]
/// and [`CsrMatrix::validate`]; it is public so tests can probe corrupted
/// raw arrays directly (constructing a corrupt `CsrMatrix` instance would
/// trip the unchecked builder's `debug_assert!` first).
pub fn validate_parts(
    n_rows: usize,
    n_cols: usize,
    indptr: &[usize],
    indices: &[u32],
    values: &[f64],
) -> std::result::Result<(), (&'static str, String)> {
    if indptr.len() != n_rows + 1 {
        return Err((
            "indptr",
            format!(
                "indptr length {} != n_rows + 1 = {}",
                indptr.len(),
                n_rows + 1
            ),
        ));
    }
    if indptr[0] != 0 {
        return Err(("indptr", "indptr[0] must be 0".to_string()));
    }
    if indptr[n_rows] != indices.len() || indices.len() != values.len() {
        return Err((
            "indptr",
            format!(
                "indptr end {} vs indices {} vs values {}",
                indptr[n_rows],
                indices.len(),
                values.len()
            ),
        ));
    }
    for (row, w) in indptr.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err((
                "indptr",
                format!("indptr decreases at row {row}: {} -> {}", w[0], w[1]),
            ));
        }
    }
    for row in 0..n_rows {
        let cols = &indices[indptr[row]..indptr[row + 1]];
        for pair in cols.windows(2) {
            if pair[1] <= pair[0] {
                return Err((
                    "columns",
                    format!(
                        "row {row} has unsorted or duplicate column indices \
                         ({} then {})",
                        pair[0], pair[1]
                    ),
                ));
            }
        }
        if let Some(&last) = cols.last() {
            if last as usize >= n_cols {
                return Err((
                    "bounds",
                    format!("row {row} has column index {last} >= n_cols {n_cols}"),
                ));
            }
        }
        let vals = &values[indptr[row]..indptr[row + 1]];
        for (k, v) in vals.iter().enumerate() {
            if !v.is_finite() {
                return Err((
                    "value",
                    format!("row {row} col {} has non-finite value {v}", cols[k]),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_dense(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
            vec![3.0, 4.0, 0.0],
        ])
    }

    #[test]
    fn zeros_has_no_entries() {
        let m = CsrMatrix::zeros(3, 4);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_nnz(2), 0);
        m.validate().unwrap();
    }

    #[test]
    fn identity_is_diagonal_of_ones() {
        let m = CsrMatrix::identity(4);
        assert_eq!(m.nnz(), 4);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 1.0);
        }
        assert!(m.is_symmetric(0.0));
        m.validate().unwrap();
    }

    #[test]
    fn max_asymmetry_measures_worst_mirrored_pair() {
        // Symmetric matrix: zero asymmetry.
        let s = CsrMatrix::from_dense(&[vec![0.0, 2.0], vec![2.0, 0.0]]);
        assert_eq!(s.max_asymmetry(), 0.0);
        assert!(s.is_symmetric(0.0));
        // sample(): (0,2)=2 vs (2,0)=3 → |2−3|/3; (2,1)=4 unmatched → 4/4 = 1.
        let m = sample();
        assert!((m.max_asymmetry() - 1.0).abs() < 1e-15);
        assert!(!m.is_symmetric(0.5));
        // Slightly perturbed symmetric pair: asymmetry matches the relative
        // tolerance scale used by is_symmetric.
        let p = CsrMatrix::from_dense(&[vec![0.0, 10.0], vec![10.1, 0.0]]);
        let asym = p.max_asymmetry();
        assert!((asym - 0.1 / 10.1).abs() < 1e-12, "{asym}");
        assert!(p.is_symmetric(asym + 1e-12));
        assert!(!p.is_symmetric(asym - 1e-12));
        // Non-square: infinite.
        assert_eq!(CsrMatrix::zeros(2, 3).max_asymmetry(), f64::INFINITY);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(
            m.to_dense(),
            vec![
                vec![1.0, 0.0, 2.0],
                vec![0.0, 0.0, 0.0],
                vec![3.0, 4.0, 0.0]
            ]
        );
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 2), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn mul_vec_rejects_bad_dims() {
        let m = sample();
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn sums_and_counts() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 4.0, 2.0]);
        assert_eq!(m.row_counts(), vec![2, 0, 2]);
        assert_eq!(m.col_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn from_raw_parts_rejects_malformed() {
        // bad indptr length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // indptr not starting at zero
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![1, 1], vec![], vec![]).is_err());
        // decreasing indptr
        assert!(
            CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
        // column out of bounds
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // duplicate columns in a row
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // unsorted columns in a row
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // values/indices length mismatch
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 1], vec![0], vec![]).is_err());
        // non-finite value
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![f64::NAN]).is_err());
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn validate_parts_names_the_violated_invariant() {
        let (check, detail) = validate_parts(2, 2, &[0, 2, 1], &[0], &[1.0]).unwrap_err();
        assert_eq!(check, "indptr");
        assert!(detail.contains("decreases"), "{detail}");
        let (check, detail) = validate_parts(1, 3, &[0, 2], &[2, 0], &[1.0, 1.0]).unwrap_err();
        assert_eq!(check, "columns");
        assert!(detail.contains("row 0"), "{detail}");
        let (check, detail) = validate_parts(1, 3, &[0, 2], &[1, 1], &[1.0, 1.0]).unwrap_err();
        assert_eq!(check, "columns");
        assert!(
            detail.contains("duplicate") || detail.contains("unsorted"),
            "{detail}"
        );
        let (check, _) = validate_parts(1, 2, &[0, 1], &[5], &[1.0]).unwrap_err();
        assert_eq!(check, "bounds");
        let (check, detail) = validate_parts(1, 2, &[0, 1], &[1], &[f64::NAN]).unwrap_err();
        assert_eq!(check, "value");
        assert!(detail.contains("NaN"), "{detail}");
    }

    #[test]
    fn validate_detects_post_construction_nan_corruption() {
        let mut m = sample();
        m.validate().unwrap();
        m.values_mut()[1] = f64::NAN;
        let err = m.validate().unwrap_err();
        match err {
            SparseError::Corrupted { check, ref detail } => {
                assert_eq!(check, "value");
                assert!(detail.contains("row 0"), "{detail}");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
    }

    #[test]
    fn validate_graph_rejects_negative_weights_but_validate_allows_them() {
        // Laplacian-style matrix: negative off-diagonals are structurally
        // valid, just not a graph.
        let l = CsrMatrix::from_dense(&[vec![2.0, -1.0], vec![-1.0, 2.0]]);
        l.validate().unwrap();
        let err = l.validate_graph().unwrap_err();
        match err {
            SparseError::Corrupted { check, ref detail } => {
                assert_eq!(check, "nonnegative");
                assert!(detail.contains("-1"), "{detail}");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
        l.validate_symmetric().unwrap_err();
    }

    #[test]
    fn validate_symmetric_requires_bit_identical_mirrors() {
        let mut s = CsrMatrix::from_dense(&[vec![0.0, 2.0], vec![2.0, 1.0]]);
        s.validate_symmetric().unwrap();
        // One ULP of asymmetry is corruption under the SYRK mirror
        // contract, even though is_symmetric() would tolerate it.
        s.values_mut()[0] = f64::from_bits(2.0f64.to_bits() + 1);
        assert!(s.is_symmetric(1e-9));
        let err = s.validate_symmetric().unwrap_err();
        assert!(
            matches!(
                err,
                SparseError::Corrupted {
                    check: "symmetry",
                    ..
                }
            ),
            "{err:?}"
        );
        // Structural asymmetry is reported too.
        let a = sample();
        let err = a.validate_symmetric().unwrap_err();
        assert!(
            matches!(
                err,
                SparseError::Corrupted {
                    check: "symmetry",
                    ..
                }
            ),
            "{err:?}"
        );
        // Non-square matrices cannot be symmetric.
        let err = CsrMatrix::zeros(2, 3).validate_symmetric().unwrap_err();
        assert!(
            matches!(
                err,
                SparseError::Corrupted {
                    check: "symmetry",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn symmetric_detection() {
        let sym = CsrMatrix::from_dense(&[vec![0.0, 2.0], vec![2.0, 1.0]]);
        assert!(sym.is_symmetric(0.0));
        let asym = CsrMatrix::from_dense(&[vec![0.0, 2.0], vec![0.0, 1.0]]);
        assert!(!asym.is_symmetric(0.0));
        let rect = CsrMatrix::zeros(2, 3);
        assert!(!rect.is_symmetric(0.0));
    }

    #[test]
    fn iter_yields_all_entries_in_row_major_order() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }
}
