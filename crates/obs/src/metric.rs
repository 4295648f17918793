//! The three primitive metric types: counters, gauges, histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count (`u64`, wrapping on overflow in
/// release builds like any atomic add — in practice counters count edges,
/// flops, and retries, far below 2^64).
///
/// Handles are `Arc`-shared out of the registry; incrementing is a single
/// relaxed atomic add, safe from any thread.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time `f64` measurement (queue depth, survival ratio,
/// residual). Stored as the bit pattern in an `AtomicU64`.
///
/// Besides plain [`Gauge::set`], a gauge tracks its high-water mark via
/// [`Gauge::record_max`], which only moves the value upward — the pattern
/// used for `engine.queue_depth_hwm`.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` exceeds the current value
    /// (high-water mark update; lock-free CAS loop).
    pub fn record_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if v <= f64::from_bits(cur) {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Bucket bounds are *inclusive upper bounds* in strictly increasing
/// order; an observation lands in the first bucket whose bound is `>=`
/// the value. Values above the last bound land in a dedicated overflow
/// bucket, values below the first bound (including negatives) land in the
/// first bucket. Total count and sum are tracked alongside the buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1; last is overflow
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The configured inclusive upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// A consistent-enough copy of the current state (individual loads are
    /// relaxed; exactness across concurrent writers is not guaranteed,
    /// which is fine for reporting).
    pub(crate) fn snapshot_with_name(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time copy of one histogram, carried in
/// [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registry name of the histogram.
    pub name: String,
    /// Inclusive upper bounds (same length as `buckets` minus the
    /// overflow bucket).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; the final entry is the overflow
    /// bucket (observations above the last bound).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Count in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        *self.buckets.last().expect("histogram has buckets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        g.record_max(0.5); // below current: no-op
        assert_eq!(g.get(), 1.5);
        g.record_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn histogram_zero_lands_in_first_bucket() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.record(0.0);
        let s = h.snapshot_with_name("h");
        assert_eq!(s.buckets, vec![1, 0, 0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 0.0);
    }

    #[test]
    fn histogram_bound_value_is_inclusive() {
        // A value exactly equal to a bound lands in that bound's bucket,
        // including the final (max) bound.
        let h = Histogram::new(&[1.0, 10.0]);
        h.record(1.0);
        h.record(10.0);
        let s = h.snapshot_with_name("h");
        assert_eq!(s.buckets, vec![1, 1, 0]);
        assert_eq!(s.overflow(), 0);
    }

    #[test]
    fn histogram_above_max_goes_to_overflow_bucket() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.record(10.000001);
        h.record(f64::MAX);
        let s = h.snapshot_with_name("h");
        assert_eq!(s.buckets, vec![0, 0, 2]);
        assert_eq!(s.overflow(), 2);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn histogram_negative_clamps_to_first_bucket() {
        let h = Histogram::new(&[1.0]);
        h.record(-5.0);
        let s = h.snapshot_with_name("h");
        assert_eq!(s.buckets, vec![1, 0]);
        assert_eq!(s.sum, -5.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn histogram_rejects_empty_bounds() {
        Histogram::new(&[]);
    }
}
