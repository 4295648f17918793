//! Small dense-vector helpers shared by the iterative solvers.

/// Dot product of two equal-length slices.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 norm (sum of absolute values).
#[inline]
pub(crate) fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// `y += alpha * x`.
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales `x` in place by `alpha`.
#[inline]
pub(crate) fn scale(x: &mut [f64], alpha: f64) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Normalizes `x` to unit L2 norm; returns the original norm.
/// A zero vector is left untouched and 0.0 is returned.
pub(crate) fn normalize2(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
    n
}

/// Normalizes `x` to unit L1 norm; returns the original norm.
pub(crate) fn normalize1(x: &mut [f64]) -> f64 {
    let n = norm1(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(norm1(&[-3.0, 4.0]), 7.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn normalize2_returns_norm_and_unitizes() {
        let mut x = vec![3.0, 4.0];
        let n = normalize2(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize2(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn normalize1_unitizes_l1() {
        let mut x = vec![1.0, 3.0];
        let n = normalize1(&mut x);
        assert_eq!(n, 4.0);
        assert!((norm1(&x) - 1.0).abs() < 1e-12);
    }
}
