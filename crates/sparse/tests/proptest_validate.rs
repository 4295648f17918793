//! Property tests for the CSR structural validators (DESIGN.md §13).
//!
//! Two directions, both seeded and shrinkable:
//!
//! * **soundness** — `validate`/`validate_graph`/`validate_symmetric`
//!   accept the outputs of every kernel that promises well-formed CSR:
//!   transpose, diagonal scaling, SpGEMM, and the mirrored SYRK kernels;
//! * **completeness** — `validate_parts` rejects seeded corruptions of
//!   otherwise-valid raw arrays (non-monotone indptr, unsorted or
//!   duplicate columns, NaN values) and names the violated invariant, and
//!   post-construction value corruption is caught by `validate()`.
//!
//! * **the mirror walk against the definitions** — `validate_symmetric`,
//!   `is_symmetric` and `max_asymmetry` walk the stored entries without
//!   building a transpose; on random square matrices, near-symmetric ones
//!   with one seeded corruption (a one-ULP flip, a dropped mirror, an
//!   extra one-sided entry, a changed or negated value), non-square ones
//!   and n = 0 and 1, they agree exactly with the transpose- and
//!   `HashMap`-based definitions kept in [`reference`].
//!
//! The corruption tests probe `validate_parts` on raw slices rather than
//! a corrupted `CsrMatrix`, because the unchecked constructor
//! `debug_assert`s validity — in a debug test build you cannot even hold
//! a malformed matrix, which is itself the first line of defense.

use proptest::prelude::*;
use std::collections::BTreeMap;
use symclust_sparse::{
    ops, spgemm, spgemm_syrk_sum, validate_parts, CooMatrix, CsrMatrix, SparseError, SpgemmOptions,
    SyrkTerm,
};

/// The symmetry predicates as defined before the mirror walk: a full
/// transpose compared row by row, and a `HashMap` of every entry.
mod reference {
    use std::collections::HashMap;
    use symclust_sparse::{ops, CsrMatrix, SparseError};

    /// `validate_symmetric`'s verdict, as the name of the failed check.
    pub fn validate_symmetric(m: &CsrMatrix) -> Result<(), &'static str> {
        if let Err(SparseError::Corrupted { check, .. }) = m.validate_graph() {
            return Err(check);
        }
        if m.n_rows() != m.n_cols() {
            return Err("symmetry");
        }
        let t = ops::transpose(m);
        for row in 0..m.n_rows() {
            if m.row_indices(row) != t.row_indices(row) {
                return Err("symmetry");
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(m.row_values(row)) != bits(t.row_values(row)) {
                return Err("symmetry");
            }
        }
        Ok(())
    }

    pub fn is_symmetric(m: &CsrMatrix, tol: f64) -> bool {
        if m.n_rows() != m.n_cols() {
            return false;
        }
        let t = ops::transpose(m);
        if t.indptr() != m.indptr() || t.indices() != m.indices() {
            return false;
        }
        m.values()
            .iter()
            .zip(t.values())
            .all(|(a, b)| (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0))
    }

    pub fn max_asymmetry(m: &CsrMatrix) -> f64 {
        if m.n_rows() != m.n_cols() {
            return f64::INFINITY;
        }
        let t = ops::transpose(m);
        let mut entries: HashMap<(usize, u32), f64> =
            m.iter().map(|(i, j, v)| ((i, j), v)).collect();
        let mut worst = 0.0f64;
        for (i, j, b) in t.iter() {
            let a = entries.remove(&(i, j)).unwrap_or(0.0);
            worst = worst.max((a - b).abs() / a.abs().max(b.abs()).max(1.0));
        }
        for a in entries.into_values() {
            worst = worst.max(a.abs() / a.abs().max(1.0));
        }
        worst
    }
}

/// Asserts that the three symmetry predicates agree exactly with
/// [`reference`] on `m`.
fn agrees_with_reference(m: &CsrMatrix) -> Result<(), TestCaseError> {
    let verdict = m.validate_symmetric().map_err(|e| match e {
        SparseError::Corrupted { check, .. } => check,
        other => panic!("validate_symmetric returned {other:?}"),
    });
    prop_assert_eq!(verdict, reference::validate_symmetric(m));
    let asym = m.max_asymmetry();
    prop_assert_eq!(asym.to_bits(), reference::max_asymmetry(m).to_bits());
    let near = [asym, asym * (1.0 - 1e-12), asym * (1.0 + 1e-12)];
    for tol in [0.0, 1e-15, 1e-9, 0.5, f64::NAN].into_iter().chain(near) {
        prop_assert_eq!(
            m.is_symmetric(tol),
            reference::is_symmetric(m, tol),
            "tol {:e}",
            tol
        );
    }
    Ok(())
}

/// Builds an `n_rows × n_cols` matrix from distinct coordinates.
fn from_entries(
    n_rows: usize,
    n_cols: usize,
    entries: &BTreeMap<(usize, usize), f64>,
) -> CsrMatrix {
    let triplets = entries.iter().map(|(&(i, j), &v)| (i, j, v));
    CooMatrix::from_triplets(n_rows, n_cols, triplets)
        .expect("in-bounds triplets")
        .to_csr()
}

/// A random `n × n` matrix, `n` in `0..max_n`, that is exactly symmetric
/// but for one seeded corruption selected by `kind`. Values are mostly
/// below 1, where an entry without a mirror adds its own size to
/// `max_asymmetry` rather than the saturated 1.
///
/// 0. none; 1. a one-ULP flip of one entry; 2. a dropped off-diagonal
///    mirror; 3. an extra one-sided entry; 4. one entry's value replaced;
///    5. one entry negated; 6. no mirroring at all (a random square
///    matrix).
fn near_symmetric(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (
        0..max_n,
        proptest::collection::vec((0..max_n, 0..max_n, 0.05f64..2.0), 0..max_nnz),
        0u8..7,
        0usize..10_000,
        0.05f64..2.0,
    )
        .prop_map(|(n, triplets, kind, pick, value)| {
            let mut entries = BTreeMap::new();
            for (i, j, v) in triplets.into_iter().filter(|_| n > 0) {
                let (i, j) = (i % n, j % n);
                entries.insert((i, j), v);
                if kind != 6 {
                    entries.insert((j, i), v);
                }
            }
            let keys: Vec<(usize, usize)> = entries.keys().copied().collect();
            let off_diagonal: Vec<(usize, usize)> =
                keys.iter().copied().filter(|&(i, j)| i != j).collect();
            match kind {
                1 | 4 | 5 if !keys.is_empty() => {
                    let v = entries
                        .get_mut(&keys[pick % keys.len()])
                        .expect("picked key");
                    *v = match kind {
                        1 => f64::from_bits(v.to_bits() + 1),
                        4 => value,
                        _ => -*v,
                    };
                }
                2 if !off_diagonal.is_empty() => {
                    entries.remove(&off_diagonal[pick % off_diagonal.len()]);
                }
                3 if n > 1 => {
                    let (i, j) = (pick % n, (pick / n) % n);
                    if !entries.contains_key(&(j, i)) {
                        entries.insert((i, j), value);
                    }
                }
                _ => {}
            }
            from_entries(n, n, &entries)
        })
}

/// Random sparse matrix with signed values (Laplacian-like inputs).
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

/// Random square matrix with non-negative values (graph-like inputs).
fn graph_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.25f64..10.0), 1..max_nnz).prop_map(
            move |triplets| {
                CooMatrix::from_triplets(n, n, triplets)
                    .expect("in-bounds triplets")
                    .to_csr()
            },
        )
    })
}

proptest! {
    #[test]
    fn transpose_output_validates(m in sparse_matrix(30, 120)) {
        prop_assert!(ops::transpose(&m).validate().is_ok());
    }

    #[test]
    fn diag_scaled_output_validates(m in graph_matrix(25, 100), scale in 0.25f64..4.0) {
        let mut scaled = m;
        let diag = vec![scale; scaled.n_rows()];
        ops::scale_rows(&mut scaled, &diag).expect("diag length matches");
        prop_assert!(scaled.validate().is_ok());
        prop_assert!(scaled.validate_graph().is_ok());
    }

    #[test]
    fn spgemm_output_validates(a in graph_matrix(18, 70)) {
        let t = ops::transpose(&a);
        let c = spgemm(&a, &t, &SpgemmOptions::default(), None, None)
            .expect("compatible shapes")
            .matrix;
        prop_assert!(c.validate().is_ok());
        prop_assert!(c.validate_graph().is_ok());
    }

    #[test]
    fn syrk_output_validates_as_exactly_symmetric(a in graph_matrix(18, 70)) {
        // X·Xᵀ through the upper-triangle + mirror kernel must satisfy the
        // strictest validator: structure, non-negativity (entries are sums
        // of products of non-negatives), and bitwise mirror equality.
        let at = ops::transpose(&a);
        let terms = [SyrkTerm { x: &a, xt: &at }];
        let c = spgemm_syrk_sum(&terms, &SpgemmOptions::default(), None, None)
            .expect("syrk")
            .matrix;
        prop_assert!(c.validate_symmetric().is_ok());
        prop_assert_eq!(c.max_asymmetry(), 0.0);
        agrees_with_reference(&c)?;
    }

    #[test]
    fn pruned_output_validates(m in graph_matrix(25, 100), threshold in 0.0f64..5.0) {
        let (pruned, _) = ops::prune(&m, threshold);
        prop_assert!(pruned.validate().is_ok());
    }

    #[test]
    fn validate_graph_rejects_injected_negative(m in graph_matrix(25, 100), pick in 0usize..10_000) {
        prop_assume!(m.nnz() > 0);
        let mut m = m;
        let at = pick % m.nnz();
        m.values_mut()[at] = -1.0;
        // Structure is still fine; the graph contract is not.
        prop_assert!(m.validate().is_ok());
        let err = m.validate_graph().expect_err("negative weight must be rejected");
        prop_assert!(err.to_string().contains("nonnegative"), "{err}");
    }

    #[test]
    fn validate_detects_injected_nan(m in graph_matrix(25, 100), pick in 0usize..10_000) {
        prop_assume!(m.nnz() > 0);
        let mut m = m;
        let at = pick % m.nnz();
        m.values_mut()[at] = f64::NAN;
        let err = m.validate().expect_err("NaN must be rejected");
        prop_assert!(err.to_string().contains("value"), "{err}");
    }

    #[test]
    fn validate_parts_rejects_nonmonotone_indptr(m in sparse_matrix(20, 80), pick in 0usize..10_000) {
        prop_assume!(m.n_rows() >= 2 && m.nnz() >= 1);
        let mut indptr = m.indptr().to_vec();
        // Pull one interior boundary above its successor.
        let row = 1 + pick % (m.n_rows() - 1);
        indptr[row] = indptr[row + 1] + 1;
        // Keep total length consistent so the monotonicity check is the
        // one that fires (not the cheaper length check).
        let (check, detail) =
            validate_parts(m.n_rows(), m.n_cols(), &indptr, m.indices(), m.values())
                .expect_err("corrupted indptr must be rejected");
        prop_assert!(check == "indptr", "check {check}: {detail}");
    }

    #[test]
    fn validate_parts_rejects_unsorted_or_duplicate_columns(m in sparse_matrix(20, 80), dup in any::<bool>()) {
        // Need one row with at least two entries to corrupt.
        let row = (0..m.n_rows()).find(|&r| {
            let (s, e) = (m.indptr()[r], m.indptr()[r + 1]);
            e - s >= 2
        });
        prop_assume!(row.is_some());
        let row = row.expect("checked above");
        let start = m.indptr()[row];
        let mut indices = m.indices().to_vec();
        if dup {
            indices[start + 1] = indices[start]; // duplicate
        } else {
            indices.swap(start, start + 1); // unsorted
        }
        let (check, detail) =
            validate_parts(m.n_rows(), m.n_cols(), m.indptr(), &indices, m.values())
                .expect_err("corrupted columns must be rejected");
        prop_assert!(check == "columns", "check {check}: {detail}");
    }

    #[test]
    fn validate_parts_rejects_out_of_bounds_column(m in sparse_matrix(20, 80), pick in 0usize..10_000) {
        prop_assume!(m.nnz() >= 1);
        let mut indices = m.indices().to_vec();
        let at = pick % indices.len();
        indices[at] = m.n_cols() as u32; // one past the end
        let (check, _) =
            validate_parts(m.n_rows(), m.n_cols(), m.indptr(), &indices, m.values())
                .expect_err("out-of-bounds column must be rejected");
        // Bumping a column can break sortedness before the bounds check
        // sees it; either way the corruption is caught and named.
        prop_assert!(check == "bounds" || check == "columns", "check {check}");
    }

    #[test]
    fn symmetry_predicates_match_their_definitions(m in near_symmetric(12, 40)) {
        agrees_with_reference(&m)?;
    }

    #[test]
    fn symmetry_predicates_match_on_rectangular_and_signed(m in sparse_matrix(9, 40)) {
        agrees_with_reference(&m)?;
    }
}

/// The seeded corruptions each trip the walk, and the edge sizes agree.
#[test]
fn symmetry_predicates_on_seeded_corruptions_and_edge_sizes() {
    let base = BTreeMap::from([
        ((0, 0), 1.0),
        ((0, 2), 2.0),
        ((2, 0), 2.0),
        ((1, 2), 3.0),
        ((2, 1), 3.0),
    ]);
    let check = |m: &CsrMatrix| agrees_with_reference(m).expect("agrees with the definitions");
    let symmetric = from_entries(3, 3, &base);
    check(&symmetric);
    symmetric.validate_symmetric().expect("symmetric");

    let mut ulp = base.clone();
    ulp.insert((2, 1), f64::from_bits(3.0f64.to_bits() + 1));
    let ulp = from_entries(3, 3, &ulp);
    check(&ulp);
    assert!(ulp.validate_symmetric().is_err() && ulp.is_symmetric(1e-9));

    let mut dropped = base.clone();
    dropped.remove(&(2, 0));
    let dropped = from_entries(3, 3, &dropped);
    check(&dropped);
    assert!(dropped.validate_symmetric().is_err() && !dropped.is_symmetric(0.5));
    assert_eq!(dropped.max_asymmetry(), 1.0);

    let mut extra = base.clone();
    extra.insert((1, 0), 0.5);
    let extra = from_entries(3, 3, &extra);
    check(&extra);
    assert!(extra.validate_symmetric().is_err() && !extra.is_symmetric(1.0));
    assert_eq!(extra.max_asymmetry(), 0.5);

    let rect = from_entries(2, 3, &BTreeMap::from([((0, 1), 1.0), ((1, 0), 1.0)]));
    check(&rect);
    assert_eq!(rect.max_asymmetry(), f64::INFINITY);

    for n in [0, 1] {
        check(&CsrMatrix::zeros(n, n));
        check(&CsrMatrix::identity(n));
    }
    check(&from_entries(1, 1, &BTreeMap::from([((0, 0), 7.0)])));
}
