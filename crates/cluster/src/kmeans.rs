//! k-means with k-means++ seeding on dense row vectors.
//!
//! Used to post-process spectral embeddings (BestWCut and the standard
//! spectral clusterer). Points are rows of an `n × d` matrix stored
//! row-major.

use crate::{ClusterError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for [`kmeans`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansOptions {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Stop when the relative decrease of the objective falls below this.
    pub tol: f64,
    /// Number of restarts; the best objective wins.
    pub n_init: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KMeansOptions {
    fn default() -> Self {
        KMeansOptions {
            k: 8,
            max_iter: 100,
            tol: 1e-6,
            n_init: 3,
            seed: 0x5EED,
        }
    }
}

/// Outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster id per point.
    pub assignments: Vec<u32>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations of the winning restart.
    pub iterations: usize,
}

#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn kmeanspp_seeds(points: &[f64], n: usize, d: usize, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = rng.gen_range(0..n);
    centers.push(points[first * d..(first + 1) * d].to_vec());
    let mut dist2: Vec<f64> = (0..n)
        .map(|i| sq_dist(&points[i * d..(i + 1) * d], &centers[0]))
        .collect();
    while centers.len() < k {
        let total: f64 = dist2.iter().sum();
        let idx = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &w) in dist2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let c = points[idx * d..(idx + 1) * d].to_vec();
        for i in 0..n {
            let nd = sq_dist(&points[i * d..(i + 1) * d], &c);
            if nd < dist2[i] {
                dist2[i] = nd;
            }
        }
        centers.push(c);
    }
    centers
}

fn lloyd(
    points: &[f64],
    n: usize,
    d: usize,
    mut centers: Vec<Vec<f64>>,
    opts: &KMeansOptions,
    rng: &mut StdRng,
) -> KMeansResult {
    let k = centers.len();
    let mut assignments = vec![0u32; n];
    let mut prev_inertia = f64::INFINITY;
    let mut iterations = 0;
    for iter in 1..=opts.max_iter {
        iterations = iter;
        // Assignment step.
        let mut inertia = 0.0;
        for i in 0..n {
            let p = &points[i * d..(i + 1) * d];
            let (mut best_c, mut best_d) = (0usize, f64::INFINITY);
            for (c, center) in centers.iter().enumerate() {
                let dist = sq_dist(p, center);
                if dist < best_d {
                    best_d = dist;
                    best_c = c;
                }
            }
            assignments[i] = best_c as u32;
            inertia += best_d;
        }
        // Update step.
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignments[i] as usize;
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(&points[i * d..(i + 1) * d]) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed empty cluster at a random point.
                let idx = rng.gen_range(0..n);
                centers[c] = points[idx * d..(idx + 1) * d].to_vec();
            } else {
                for (ctr, s) in centers[c].iter_mut().zip(&sums[c]) {
                    *ctr = s / counts[c] as f64;
                }
            }
        }
        if prev_inertia.is_finite() && (prev_inertia - inertia).abs() <= opts.tol * prev_inertia {
            return KMeansResult {
                assignments,
                inertia,
                iterations,
            };
        }
        prev_inertia = inertia;
    }
    KMeansResult {
        assignments,
        inertia: prev_inertia,
        iterations,
    }
}

/// Runs k-means++ / Lloyd on `n` points of dimension `d` stored row-major
/// in `points`.
#[expect(
    clippy::expect_used,
    reason = "the init loop runs n_init.max(1) >= 1 times, so best is always Some"
)]
pub fn kmeans(points: &[f64], n: usize, d: usize, opts: &KMeansOptions) -> Result<KMeansResult> {
    if points.len() != n * d {
        return Err(ClusterError::InvalidConfig(format!(
            "points length {} != n*d = {}",
            points.len(),
            n * d
        )));
    }
    if opts.k == 0 || opts.k > n {
        return Err(ClusterError::InvalidConfig(format!(
            "k = {} out of range for {} points",
            opts.k, n
        )));
    }
    let mut best: Option<KMeansResult> = None;
    for init in 0..opts.n_init.max(1) {
        let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(init as u64));
        let centers = kmeanspp_seeds(points, n, d, opts.k, &mut rng);
        let result = lloyd(points, n, d, centers, opts, &mut rng);
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    Ok(best.expect("at least one init"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> (Vec<f64>, usize) {
        // Tight 2-D blobs around (0,0), (10,0), (0,10); 5 points each.
        let mut pts = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            for i in 0..5 {
                pts.push(cx + 0.01 * i as f64);
                pts.push(cy - 0.01 * i as f64);
            }
        }
        (pts, 15)
    }

    #[test]
    fn separates_clear_blobs() {
        let (pts, n) = three_blobs();
        let r = kmeans(
            &pts,
            n,
            2,
            &KMeansOptions {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // All points of a blob share a label; labels differ across blobs.
        for blob in 0..3 {
            let first = r.assignments[blob * 5];
            for i in 0..5 {
                assert_eq!(r.assignments[blob * 5 + i], first);
            }
        }
        let labels: std::collections::HashSet<u32> = r.assignments.iter().copied().collect();
        assert_eq!(labels.len(), 3);
        assert!(r.inertia < 0.1);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0];
        let r = kmeans(
            &pts,
            3,
            2,
            &KMeansOptions {
                k: 3,
                n_init: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn k_one_gives_total_variance() {
        let pts = vec![0.0, 2.0]; // two 1-D points, mean 1, inertia 2
        let r = kmeans(
            &pts,
            2,
            1,
            &KMeansOptions {
                k: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((r.inertia - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_args() {
        assert!(kmeans(
            &[1.0, 2.0],
            2,
            1,
            &KMeansOptions {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(kmeans(
            &[1.0, 2.0],
            2,
            1,
            &KMeansOptions {
                k: 5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(kmeans(
            &[1.0],
            2,
            1,
            &KMeansOptions {
                k: 1,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let (pts, n) = three_blobs();
        let opts = KMeansOptions {
            k: 3,
            seed: 77,
            ..Default::default()
        };
        let a = kmeans(&pts, n, 2, &opts).unwrap();
        let b = kmeans(&pts, n, 2, &opts).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn duplicate_points_handled() {
        // All points identical: every center collapses, inertia 0.
        let pts = vec![1.0; 10];
        let r = kmeans(
            &pts,
            10,
            1,
            &KMeansOptions {
                k: 3,
                n_init: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.inertia < 1e-12);
    }
}
