//! Symmetric Lanczos eigensolver with full reorthogonalization.
//!
//! The BestWCut baseline (Meila & Pentney, SDM'07) post-processes the
//! eigenvectors of a symmetric Laplacian; this module provides the smallest
//! `k` eigenpairs of a symmetric sparse matrix. The Krylov basis is kept
//! fully reorthogonalized — for the modest `k` (tens) and matrix sizes here
//! the O(n·m²) cost is irrelevant next to correctness, and it avoids the
//! ghost-eigenvalue pathology of plain Lanczos.
//!
//! The projected tridiagonal problem is solved by the classic implicit-QL
//! algorithm with Wilkinson shifts (EISPACK `tql2`), implemented here.

use crate::cancel::CancelToken;
use crate::csr::CsrMatrix;
use crate::dense;
use crate::error::SparseError;
use crate::Result;

/// Options for the Lanczos iteration.
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Maximum Krylov subspace dimension (0 means `min(n, 4k + 32)`).
    pub max_subspace: usize,
    /// Residual tolerance for Ritz pair convergence.
    pub tol: f64,
    /// Seed for the deterministic start vector.
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_subspace: 0,
            tol: 1e-8,
            seed: 0x5EED_1234_ABCD,
        }
    }
}

/// Converged eigenpairs, eigenvalues ascending.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Eigenvalues, ascending.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors, one `Vec<f64>` of length `n` per eigenvalue.
    pub eigenvectors: Vec<Vec<f64>>,
    /// Krylov subspace dimension actually used.
    pub subspace_dim: usize,
}

/// Simple deterministic xorshift generator for start vectors; keeps the
/// crate free of a `rand` dependency.
fn xorshift_vec(n: usize, mut state: u64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to (-1, 1), avoiding exact zeros.
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0 + 1e-12
        })
        .collect()
}

/// Computes eigenvalues and eigenvectors of a symmetric tridiagonal matrix
/// with diagonal `d` and off-diagonal `e` (`e.len() == d.len() - 1`), using
/// implicit QL with Wilkinson shifts. Returns `(eigenvalues, z)` where `z`
/// is column-major: `z[j]` is the eigenvector for `eigenvalues[j]`.
fn tridiagonal_eigen(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
    let n = d.len();
    if n == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    if e.len() + 1 != n {
        return Err(SparseError::InvalidArgument(format!(
            "tridiagonal_eigen: e.len() {} != d.len()-1 {}",
            e.len(),
            n - 1
        )));
    }
    let mut d = d.to_vec();
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();
    // z is stored row-major as an n x n identity to accumulate rotations:
    // z[i][j] = component i of eigenvector j.
    let mut z = vec![vec![0.0f64; n]; n];
    for (i, row) in z.iter_mut().enumerate() {
        row[i] = 1.0;
    }

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(SparseError::NoConvergence {
                    what: "tridiagonal QL",
                    iterations: 50,
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut i = m;
            while i > l {
                i -= 1;
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for row in z.iter_mut() {
                    f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if r == 0.0 && i > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    // Sort ascending, carrying eigenvectors along.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let eigenvalues: Vec<f64> = order.iter().map(|&j| d[j]).collect();
    let eigenvectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&j| (0..n).map(|i| z[i][j]).collect())
        .collect();
    Ok((eigenvalues, eigenvectors))
}

/// Computes the `k` smallest eigenpairs of the symmetric matrix `a`.
pub fn lanczos_smallest(a: &CsrMatrix, k: usize, opts: &LanczosOptions) -> Result<LanczosResult> {
    lanczos_smallest_with(a, k, opts, None)
}

/// [`lanczos_smallest`] that polls `token` once per Lanczos step (one
/// matrix–vector product plus reorthogonalization) and bails out with
/// [`SparseError::Cancelled`] when it trips. The Krylov basis is local to
/// the call, so cancellation leaves no poisoned state behind.
pub fn lanczos_smallest_cancellable(
    a: &CsrMatrix,
    k: usize,
    opts: &LanczosOptions,
    token: &CancelToken,
) -> Result<LanczosResult> {
    lanczos_smallest_with(a, k, opts, Some(token))
}

fn lanczos_smallest_with(
    a: &CsrMatrix,
    k: usize,
    opts: &LanczosOptions,
    token: Option<&CancelToken>,
) -> Result<LanczosResult> {
    let n = a.n_rows();
    if a.n_cols() != n {
        return Err(SparseError::DimensionMismatch {
            op: "lanczos",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (n, n),
        });
    }
    if k == 0 {
        return Err(SparseError::InvalidArgument("k must be positive".into()));
    }
    if k > n {
        return Err(SparseError::InvalidArgument(format!(
            "requested {k} eigenpairs from a {n}x{n} matrix"
        )));
    }
    let m_max = if opts.max_subspace == 0 {
        (4 * k + 32).min(n)
    } else {
        opts.max_subspace.min(n)
    };

    // Krylov basis vectors (each of length n), alpha/beta of the tridiagonal.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m_max);
    let mut alpha: Vec<f64> = Vec::with_capacity(m_max);
    let mut beta: Vec<f64> = Vec::with_capacity(m_max);

    let mut v = xorshift_vec(n, opts.seed);
    dense::normalize2(&mut v);
    basis.push(v);

    for j in 0..m_max {
        if let Some(t) = token {
            t.checkpoint()?;
        }
        let vj = basis[j].clone();
        let mut w = a.mul_vec(&vj)?;
        let aj = dense::dot(&w, &vj);
        alpha.push(aj);
        dense::axpy(-aj, &vj, &mut w);
        if j > 0 {
            let bj = beta[j - 1];
            let prev = &basis[j - 1].clone();
            dense::axpy(-bj, prev, &mut w);
        }
        // Full reorthogonalization (twice for stability).
        for _ in 0..2 {
            for q in basis.iter() {
                let c = dense::dot(&w, q);
                if c != 0.0 {
                    dense::axpy(-c, q, &mut w);
                }
            }
        }
        let bj = dense::norm2(&w);
        if j + 1 == m_max {
            break;
        }
        if bj < 1e-13 {
            // Invariant subspace found. Restart with a fresh orthogonal
            // direction: degenerate eigenvalues contribute only one copy per
            // start vector, so stopping here could miss multiplicities.
            let mut fresh = xorshift_vec(n, opts.seed.wrapping_add(j as u64 + 1));
            for q in basis.iter() {
                let c = dense::dot(&fresh, q);
                dense::axpy(-c, q, &mut fresh);
            }
            if dense::normalize2(&mut fresh) < 1e-13 {
                break; // full space exhausted
            }
            beta.push(0.0);
            basis.push(fresh);
            continue;
        }
        beta.push(bj);
        dense::scale(&mut w, 1.0 / bj);
        basis.push(w);
    }

    let m = alpha.len();
    let (evals, tvecs) = tridiagonal_eigen(&alpha, &beta[..m.saturating_sub(1)])?;
    let k_eff = k.min(m);
    let mut eigenvalues = Vec::with_capacity(k_eff);
    let mut eigenvectors = Vec::with_capacity(k_eff);
    for idx in 0..k_eff {
        let lambda = evals[idx];
        let s = &tvecs[idx];
        let mut vec = vec![0.0f64; n];
        for (q, &si) in basis.iter().zip(s.iter()) {
            dense::axpy(si, q, &mut vec);
        }
        dense::normalize2(&mut vec);
        eigenvalues.push(lambda);
        eigenvectors.push(vec);
    }
    Ok(LanczosResult {
        eigenvalues,
        eigenvectors,
        subspace_dim: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn laplacian_path(n: usize) -> CsrMatrix {
        // Path graph Laplacian: known eigenvalues 2 - 2cos(pi k / n).
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let mut deg = 0.0;
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
                deg += 1.0;
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                deg += 1.0;
            }
            coo.push(i, i, deg).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn tridiagonal_eigen_diagonal_matrix() {
        let (vals, vecs) = tridiagonal_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
        // Eigenvector for eigenvalue 1.0 is e_1.
        assert!((vecs[0][1].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tridiagonal_eigen_2x2_hand_computed() {
        // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
        let (vals, vecs) = tridiagonal_eigen(&[2.0, 2.0], &[1.0]).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        // Eigenvector for 1: (1, -1)/sqrt(2)
        let v = &vecs[0];
        assert!((v[0] + v[1]).abs() < 1e-10);
    }

    #[test]
    fn tridiagonal_rejects_bad_lengths() {
        assert!(tridiagonal_eigen(&[1.0, 2.0], &[0.1, 0.2]).is_err());
    }

    #[test]
    fn tridiagonal_empty() {
        let (vals, vecs) = tridiagonal_eigen(&[], &[]).unwrap();
        assert!(vals.is_empty());
        assert!(vecs.is_empty());
    }

    #[test]
    fn lanczos_finds_smallest_of_path_laplacian() {
        let n = 30;
        let l = laplacian_path(n);
        let r = lanczos_smallest(&l, 3, &LanczosOptions::default()).unwrap();
        // Path Laplacian eigenvalues: 4 sin^2(pi k / (2n)), k = 0..n-1.
        for (k, &lam) in r.eigenvalues.iter().enumerate() {
            let expected = 4.0
                * (std::f64::consts::PI * k as f64 / (2.0 * n as f64))
                    .sin()
                    .powi(2);
            assert!(
                (lam - expected).abs() < 1e-6,
                "eigenvalue {k}: got {lam}, want {expected}"
            );
        }
        // Smallest eigenvector of a Laplacian is constant.
        let v0 = &r.eigenvectors[0];
        let mean = v0.iter().sum::<f64>() / n as f64;
        for &x in v0 {
            assert!((x - mean).abs() < 1e-6);
        }
    }

    #[test]
    fn lanczos_eigenpairs_satisfy_av_eq_lambda_v() {
        let l = laplacian_path(20);
        let r = lanczos_smallest(&l, 4, &LanczosOptions::default()).unwrap();
        for (lam, v) in r.eigenvalues.iter().zip(&r.eigenvectors) {
            let av = l.mul_vec(v).unwrap();
            for (a, b) in av.iter().zip(v.iter()) {
                assert!((a - lam * b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn lanczos_eigenvectors_are_orthonormal() {
        let l = laplacian_path(25);
        let r = lanczos_smallest(&l, 5, &LanczosOptions::default()).unwrap();
        for i in 0..r.eigenvectors.len() {
            for j in 0..r.eigenvectors.len() {
                let d = dense::dot(&r.eigenvectors[i], &r.eigenvectors[j]);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-6, "({i},{j}) dot = {d}");
            }
        }
    }

    #[test]
    fn lanczos_handles_disconnected_graph() {
        // Two disjoint edges: Laplacian has a 2-dimensional null space.
        let mut coo = CooMatrix::new(4, 4);
        for &(u, v) in &[(0usize, 1usize), (2, 3)] {
            coo.push(u, v, -1.0).unwrap();
            coo.push(v, u, -1.0).unwrap();
            coo.push(u, u, 1.0).unwrap();
            coo.push(v, v, 1.0).unwrap();
        }
        let l = coo.to_csr();
        let r = lanczos_smallest(&l, 2, &LanczosOptions::default()).unwrap();
        assert!(r.eigenvalues[0].abs() < 1e-8);
        assert!(r.eigenvalues[1].abs() < 1e-8);
    }

    #[test]
    fn lanczos_rejects_bad_args() {
        let l = laplacian_path(5);
        assert!(lanczos_smallest(&l, 0, &LanczosOptions::default()).is_err());
        assert!(lanczos_smallest(&l, 6, &LanczosOptions::default()).is_err());
        let rect = CsrMatrix::zeros(2, 3);
        assert!(lanczos_smallest(&rect, 1, &LanczosOptions::default()).is_err());
    }

    #[test]
    fn lanczos_full_space_small_matrix() {
        let l = laplacian_path(4);
        let r = lanczos_smallest(&l, 4, &LanczosOptions::default()).unwrap();
        assert_eq!(r.eigenvalues.len(), 4);
        // Trace check: sum of eigenvalues == trace of Laplacian (= 2*(n-1)).
        let total: f64 = r.eigenvalues.iter().sum();
        assert!((total - 6.0).abs() < 1e-6);
    }

    #[test]
    fn lanczos_live_token_matches_plain() {
        let l = laplacian_path(20);
        let token = CancelToken::new();
        let plain = lanczos_smallest(&l, 3, &LanczosOptions::default()).unwrap();
        let with_token =
            lanczos_smallest_cancellable(&l, 3, &LanczosOptions::default(), &token).unwrap();
        assert_eq!(plain.eigenvalues, with_token.eigenvalues);
        assert_eq!(plain.subspace_dim, with_token.subspace_dim);
    }

    #[test]
    fn lanczos_cancel_mid_iteration_returns_promptly_without_poisoned_state() {
        // Large path Laplacian with the full space as subspace budget: each
        // step is a matvec plus reorthogonalization against the whole basis,
        // so the run takes long enough for a mid-flight cancel to land.
        let n = 3000;
        let l = laplacian_path(n);
        let slow = LanczosOptions {
            max_subspace: n,
            tol: 0.0,
            ..Default::default()
        };
        let token = CancelToken::new();
        let canceller = token.clone();
        let started = std::time::Instant::now();
        let result = std::thread::scope(|scope| {
            let handle = scope.spawn(|| lanczos_smallest_cancellable(&l, 2, &slow, &token));
            std::thread::sleep(std::time::Duration::from_millis(30));
            canceller.cancel();
            handle.join().expect("lanczos worker panicked")
        });
        assert!(
            matches!(result, Err(SparseError::Cancelled)),
            "expected cancellation, got {result:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "cancellation was not prompt"
        );
        // No poisoned state: the same matrix solves fine afterwards. A
        // 40-dim Krylov space only approximates the n=3000 spectrum, so we
        // check sanity (finite, ascending, near the low end) not exactness.
        let again = lanczos_smallest(&l, 2, &LanczosOptions::default()).unwrap();
        assert_eq!(again.eigenvalues.len(), 2);
        assert!(again.eigenvalues.iter().all(|x| x.is_finite()));
        assert!(again.eigenvalues[0] <= again.eigenvalues[1]);
        assert!(again.eigenvalues[0] > -1e-8 && again.eigenvalues[0] < 0.1);
    }
}
