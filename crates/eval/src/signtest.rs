//! Paired binomial sign test (§5.6 of the paper).
//!
//! "We count the number of graph nodes that were correctly clustered in one
//! clustering but not in the other clustering [...] The probability of the
//! obtained counts (or more extreme counts) arising from the null
//! hypothesis, calculated using the binomial distribution with p = 0.5,
//! gives us the final p-value."
//!
//! The paper reports p-values as extreme as 1e-22767, far below `f64`
//! underflow, so the tail probability is computed entirely in log space
//! with a Lanczos `ln Γ` and log-sum-exp accumulation.

/// Result of a paired sign test comparing clustering A against B.
#[derive(Debug, Clone, Copy)]
pub struct SignTestResult {
    /// Nodes correct under A but not under B.
    pub n_improved: usize,
    /// Nodes correct under B but not under A.
    pub n_degraded: usize,
    /// One-sided p-value for "A is better than B", in log₁₀ (e.g. −312
    /// means p = 1e-312). 0.0 when no discordant pairs exist.
    pub log10_p: f64,
    /// The p-value as an `f64` (0.0 when it underflows).
    pub p: f64,
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0` (Numerical Recipes
/// coefficients; absolute error < 2e-10 over the domain used here).
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive argument");
    const COEF: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

/// `ln C(n, k)` via `ln Γ`.
pub fn ln_choose(n: usize, k: usize) -> f64 {
    assert!(k <= n);
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Natural-log of the lower binomial tail `P(X ≤ k)` for `X ~ Bin(n, 1/2)`.
pub fn ln_binomial_tail_half(n: usize, k: usize) -> f64 {
    assert!(k <= n);
    let ln_half_n = -(n as f64) * std::f64::consts::LN_2;
    // log-sum-exp over i = 0..=k of ln C(n, i), anchored at the largest
    // term (i = k, since terms grow monotonically up to n/2 and k ≤ n/2 in
    // the use below; for safety anchor at the true maximum).
    let mut max_term = f64::NEG_INFINITY;
    let mut terms = Vec::with_capacity(k + 1);
    for i in 0..=k {
        let t = ln_choose(n, i);
        terms.push(t);
        if t > max_term {
            max_term = t;
        }
    }
    let sum: f64 = terms.iter().map(|t| (t - max_term).exp()).sum();
    ln_half_n + max_term + sum.ln()
}

/// One-sided paired sign test: given per-node correctness indicators for
/// clusterings A and B over the same nodes, tests the null hypothesis that
/// A is no better than B. Small p-values mean A's improvement over B is
/// unlikely to be chance.
pub fn sign_test(correct_a: &[bool], correct_b: &[bool]) -> SignTestResult {
    assert_eq!(
        correct_a.len(),
        correct_b.len(),
        "paired test needs equal-length indicators"
    );
    let mut n_improved = 0usize;
    let mut n_degraded = 0usize;
    for (&a, &b) in correct_a.iter().zip(correct_b) {
        match (a, b) {
            (true, false) => n_improved += 1,
            (false, true) => n_degraded += 1,
            _ => {}
        }
    }
    let n = n_improved + n_degraded;
    if n == 0 {
        return SignTestResult {
            n_improved,
            n_degraded,
            log10_p: 0.0,
            p: 1.0,
        };
    }
    // P(X ≤ n_degraded) under Bin(n, 1/2): probability that B would win at
    // least as often as observed if the methods were equivalent.
    let ln_p = ln_binomial_tail_half(n, n_degraded).min(0.0);
    let log10_p = ln_p / std::f64::consts::LN_10;
    SignTestResult {
        n_improved,
        n_degraded,
        log10_p,
        p: ln_p.exp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        for (n, fact) in [
            (1.0, 1.0f64),
            (2.0, 1.0),
            (3.0, 2.0),
            (5.0, 24.0),
            (7.0, 720.0),
        ] {
            assert!((ln_gamma(n) - fact.ln()).abs() < 1e-9, "ln_gamma({n})");
        }
    }

    #[test]
    fn ln_choose_matches_pascal() {
        assert!((ln_choose(5, 2) - 10.0f64.ln()).abs() < 1e-9);
        assert!((ln_choose(10, 5) - 252.0f64.ln()).abs() < 1e-9);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }

    #[test]
    fn binomial_tail_small_cases() {
        // n=4, k=1: P = (C(4,0)+C(4,1))/16 = 5/16.
        let p = ln_binomial_tail_half(4, 1).exp();
        assert!((p - 5.0 / 16.0).abs() < 1e-10);
        // Whole distribution sums to 1.
        let p = ln_binomial_tail_half(10, 10).exp();
        assert!((p - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sign_test_balanced_is_insignificant() {
        let a = vec![true, false, true, false];
        let b = vec![false, true, false, true];
        let r = sign_test(&a, &b);
        assert_eq!(r.n_improved, 2);
        assert_eq!(r.n_degraded, 2);
        // P(X ≤ 2 | n=4) = 11/16.
        assert!((r.p - 11.0 / 16.0).abs() < 1e-10);
    }

    #[test]
    fn sign_test_strong_improvement_is_significant() {
        // 100 improvements, 0 degradations: p = 2^-100 ≈ 7.9e-31.
        let a = vec![true; 100];
        let b = vec![false; 100];
        let r = sign_test(&a, &b);
        assert_eq!(r.n_improved, 100);
        assert_eq!(r.n_degraded, 0);
        assert!((r.log10_p - (-100.0 * 2.0f64.log10())).abs() < 1e-6);
    }

    #[test]
    fn sign_test_handles_paper_scale_counts() {
        // Counts large enough that the p-value underflows f64 (the paper
        // reports 1e-22767): log10_p must stay finite.
        let mut a = vec![true; 80_000];
        let mut b = vec![false; 80_000];
        // 10k concordant pairs mixed in.
        a.extend(vec![true; 10_000]);
        b.extend(vec![true; 10_000]);
        let r = sign_test(&a, &b);
        assert_eq!(r.n_improved, 80_000);
        assert!(r.log10_p < -20_000.0, "log10 p = {}", r.log10_p);
        assert!(r.log10_p.is_finite());
        assert_eq!(r.p, 0.0); // underflow is expected and documented
    }

    #[test]
    fn sign_test_no_discordant_pairs() {
        let a = vec![true, true];
        let r = sign_test(&a, &a);
        assert_eq!(r.p, 1.0);
        assert_eq!(r.log10_p, 0.0);
    }

    #[test]
    fn sign_test_degradation_gives_large_p() {
        // A worse than B: p close to 1.
        let a = vec![false; 50];
        let b = vec![true; 50];
        let r = sign_test(&a, &b);
        assert!(r.p > 0.999);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn sign_test_length_mismatch_panics() {
        sign_test(&[true], &[true, false]);
    }
}
