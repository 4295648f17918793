//! Property test for the content summary an artifact gets on its way into
//! the memory tier (`Artifact::summarize`, DESIGN.md §14).
//!
//! The daemon's `symmetrize` response used to be rendered per request by
//! two independent passes over the matrix — a binary search for `(r, r)`
//! in every row, and `matrix_fingerprint` — and is now rendered from a
//! summary taken in one walk. Response bytes are a public contract
//! (identical across hits, misses and restarts), so the one walk must
//! agree with the two old passes on every matrix, not just the benchmark's.

use std::collections::BTreeMap;

use proptest::prelude::*;
use symclust_engine::fingerprint::matrix_fingerprint;
use symclust_sparse::CsrMatrix;
use symclust_store::Artifact;

/// The parent's per-hit edge count, kept verbatim as the reference.
fn undirected_edge_count(m: &CsrMatrix) -> usize {
    let mut diag = 0usize;
    for r in 0..m.n_rows() {
        if m.get(r, r) != 0.0 {
            diag += 1;
        }
    }
    (m.nnz() - diag) / 2 + diag
}

/// Symmetric `n x n` matrices, `n` from 0: random pairs mirrored across
/// the diagonal, self-loops, rows left empty, and values that include a
/// *stored* `0.0` / `-0.0` (an entry, but not a loop when on the diagonal).
fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    const VALUES: [f64; 6] = [1.0, 0.25, -3.5, 0.0, -0.0, f64::MIN_POSITIVE];
    (0..max_n).prop_flat_map(|n| {
        // `0..n.max(1)` keeps the index range non-empty; with n = 0 the
        // pair list is empty, so no index is ever drawn.
        let pair = (0..n.max(1), 0..n.max(1), 0..VALUES.len());
        proptest::collection::vec(pair, 0..if n == 0 { 1 } else { 3 * n }).prop_map(move |pairs| {
            let mut entries = BTreeMap::new();
            for (i, j, v) in pairs {
                entries.insert((i, j), VALUES[v]);
                entries.insert((j, i), VALUES[v]);
            }
            let mut indptr = vec![0usize; n + 1];
            for &(row, _) in entries.keys() {
                indptr[row + 1] += 1;
            }
            for row in 0..n {
                indptr[row + 1] += indptr[row];
            }
            let indices = entries.keys().map(|&(_, col)| col as u32).collect();
            let values = entries.values().copied().collect();
            CsrMatrix::from_raw_parts(n, n, indptr, indices, values).expect("valid CSR")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_walk_summary_equals_the_two_old_passes(m in symmetric_matrix(24)) {
        let s = m.summarize();
        prop_assert_eq!(s.nodes, m.n_rows());
        prop_assert_eq!(s.edges, undirected_edge_count(&m));
        prop_assert_eq!(s.fingerprint, matrix_fingerprint(&m));
    }
}

#[test]
fn the_generator_reaches_the_cases_the_property_is_about() {
    let strategy = symmetric_matrix(24);
    let mut rng = proptest::TestRng::new(7);
    let (mut empty, mut loops, mut stored_zero_diag, mut empty_rows) = (0, 0, 0, 0);
    for _ in 0..512 {
        let m = strategy.generate(&mut rng).expect("never rejects");
        empty += usize::from(m.n_rows() == 0);
        for r in 0..m.n_rows() {
            let cols = &m.indices()[m.indptr()[r]..m.indptr()[r + 1]];
            empty_rows += usize::from(cols.is_empty());
            if let Ok(pos) = cols.binary_search(&(r as u32)) {
                let v = m.values()[m.indptr()[r] + pos];
                loops += usize::from(v != 0.0);
                stored_zero_diag += usize::from(v == 0.0);
            }
        }
    }
    assert!(empty > 0 && loops > 0 && stored_zero_diag > 0 && empty_rows > 0);
}
