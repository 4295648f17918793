//! Power-law samplers used to make the synthetic graphs "modern large-scale
//! power-law networks" in the paper's sense: a heavy-tailed degree
//! distribution in which hub nodes co-exist with low-degree nodes.

use rand::Rng;

/// Continuous Pareto (power-law) distribution with density
/// `f(x) ∝ x^{-alpha}` for `x >= x_min`.
#[derive(Debug, Clone, Copy)]
struct PowerLaw {
    /// Tail exponent; must be > 1 for a proper distribution.
    alpha: f64,
    /// Minimum value.
    x_min: f64,
}

impl PowerLaw {
    /// Creates a sampler, panicking on invalid parameters (programmer
    /// error: these are compile-time-chosen constants in practice).
    fn new(alpha: f64, x_min: f64) -> Self {
        assert!(alpha > 1.0, "power-law exponent must exceed 1");
        assert!(x_min > 0.0, "x_min must be positive");
        PowerLaw { alpha, x_min }
    }

    /// Draws one sample by inverse-CDF transform.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        self.x_min * u.powf(-1.0 / (self.alpha - 1.0))
    }

    /// Draws one sample, truncated to `max`.
    fn sample_capped<R: Rng + ?Sized>(&self, rng: &mut R, max: f64) -> f64 {
        self.sample(rng).min(max)
    }
}

/// Draws an integer Pareto sample in `[min, max]` with exponent `alpha`.
pub(crate) fn pareto_sample<R: Rng + ?Sized>(
    rng: &mut R,
    alpha: f64,
    min: usize,
    max: usize,
) -> usize {
    debug_assert!(min >= 1 && max >= min);
    let pl = PowerLaw::new(alpha, min as f64);
    (pl.sample_capped(rng, max as f64).floor() as usize).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_respect_x_min() {
        let mut rng = StdRng::seed_from_u64(7);
        let pl = PowerLaw::new(2.5, 3.0);
        for _ in 0..1000 {
            assert!(pl.sample(&mut rng) >= 3.0);
        }
    }

    #[test]
    fn capped_sampling_respects_max() {
        let mut rng = StdRng::seed_from_u64(7);
        let pl = PowerLaw::new(1.5, 1.0);
        for _ in 0..1000 {
            assert!(pl.sample_capped(&mut rng, 10.0) <= 10.0);
        }
    }

    #[test]
    fn mean_approximates_theory() {
        // For alpha > 2, E[X] = x_min * (alpha - 1) / (alpha - 2).
        let mut rng = StdRng::seed_from_u64(99);
        let pl = PowerLaw::new(3.0, 1.0);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| pl.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn heavy_tail_produces_hubs() {
        // With alpha close to 2 we should see samples far above the median.
        let mut rng = StdRng::seed_from_u64(1);
        let pl = PowerLaw::new(2.0, 1.0);
        let samples: Vec<f64> = (0..10_000).map(|_| pl.sample(&mut rng)).collect();
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 100.0, "max sample {max} not hub-like");
    }

    #[test]
    fn integer_pareto_in_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = pareto_sample(&mut rng, 2.2, 2, 50);
            assert!((2..=50).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn rejects_alpha_below_one() {
        PowerLaw::new(0.9, 1.0);
    }
}
