//! Order statistics over timing samples.
//!
//! `quartiles` reproduces Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), because that is what the driver computes its
//! spreads with; `percentile` is the nearest-rank percentile every
//! latency figure in the benchmark uses.

/// Returns the samples sorted ascending (NaN-free input assumed: every
/// sample is a measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (mean of the two middle values for an even
/// count). Panics on an empty slice: a workload that timed nothing is a
/// harness bug.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// [`median`], or 0 for no samples: a layer that is not on a workload's
/// path took no time there.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// [`percentile`], or 0 for no samples.
pub fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, p)
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the samples at or below it (`p` in `(0, 1]`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentile the tail metric (`p95_ms`) reads: the 95th, or the
/// highest below it that still has ten samples beyond it; the median
/// when the sample is too small for any percentile above it (every batch
/// workload: a round holds 3–5 ops).
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    ((n - 10) as f64 / n as f64).clamp(0.5, 0.95)
}

/// The tail latency of a round: `percentile(values, tail_percentile(n))`,
/// with the median's own definition when the tail degenerates to it.
pub fn tail(values: &[f64]) -> f64 {
    let p = tail_percentile(values.len());
    if p <= 0.5 {
        median(values)
    } else {
        percentile(values, p)
    }
}

/// `(q1, median, q3)` as `statistics.quantiles(values, n=4)` gives them
/// (exclusive method: cut `i` sits at position `i·(len+1)/4`, linearly
/// interpolated between its neighbours, extrapolated past the ends the
/// way CPython does). Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let len = v.len() as i64;
    assert!(len >= 2, "quartiles need two samples");
    let q = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 10 000 samples: p99 leaves exactly 100 beyond it.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 9_900.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(3), 0.5);
        assert_eq!(tail_percentile(19), 0.5);
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(10_000), 0.95);
        assert_eq!(tail(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
