//! Random-walk symmetrization (§3.2).
//!
//! `U = (ΠP + PᵀΠ) / 2`, where `P` is the transition matrix of the random
//! walk on `G` and `Π = diag(π)` holds its stationary distribution (computed
//! with teleportation, the paper uses probability 0.05). Gleich \[9\] showed
//! that the undirected normalized cut on `G_U` equals the *directed*
//! normalized cut (Eq. 3) on `G` for every vertex subset, so clustering
//! `G_U` with any NCut-minimizing algorithm reproduces directed spectral
//! clustering — without eigenvectors.
//!
//! Note the edge set of `U` is identical to `A + Aᵀ` (§3.2): only the
//! weights differ. The same Figure-1 drawback therefore applies.

use crate::{Result, SymmetrizedGraph, Symmetrizer};
use std::time::Instant;
use symclust_graph::{DiGraph, UnGraph};
use symclust_obs::MetricsRegistry;
use symclust_sparse::{ops, pagerank, CancelToken, PageRankOptions};

/// Options for [`RandomWalk`].
#[derive(Debug, Clone, Copy)]
pub struct RandomWalkOptions {
    /// Teleport probability for the stationary-distribution computation
    /// (the paper uses 0.05 in all experiments, §4.2).
    pub teleport: f64,
    /// Convergence tolerance of the power iteration.
    pub tol: f64,
    /// Power-iteration budget.
    pub max_iter: usize,
}

impl Default for RandomWalkOptions {
    fn default() -> Self {
        RandomWalkOptions {
            teleport: 0.05,
            tol: 1e-10,
            max_iter: 1000,
        }
    }
}

/// `U = (ΠP + PᵀΠ)/2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomWalk {
    /// Stationary-distribution options.
    pub options: RandomWalkOptions,
}

impl RandomWalk {
    /// Creates the symmetrizer with a specific teleport probability.
    pub fn with_teleport(teleport: f64) -> Self {
        RandomWalk {
            options: RandomWalkOptions {
                teleport,
                ..Default::default()
            },
        }
    }
}

impl Symmetrizer for RandomWalk {
    fn name(&self) -> String {
        "Random Walk".to_string()
    }

    fn symmetrize_observed(
        &self,
        g: &DiGraph,
        token: &CancelToken,
        _metrics: Option<&MetricsRegistry>,
    ) -> Result<SymmetrizedGraph> {
        token.checkpoint()?;
        let start = Instant::now();
        let a = g.adjacency();
        let pr = pagerank(
            a,
            &PageRankOptions {
                teleport: self.options.teleport,
                tol: self.options.tol,
                max_iter: self.options.max_iter,
            },
        )?;
        // M = Π P; then U = (M + Mᵀ)/2.
        let mut m = ops::row_normalize(a);
        ops::scale_rows(&mut m, &pr.pi)?;
        let mt = ops::transpose(&m);
        let u = ops::add_scaled(&m, 0.5, &mt, 0.5)?;
        let mut un = UnGraph::from_symmetric_unchecked(u);
        if let Some(labels) = g.labels() {
            un = un.with_labels(labels.to_vec())?;
        }
        Ok(SymmetrizedGraph::new(un, self.name(), 0.0, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{cycle_graph, figure1_graph};

    #[test]
    fn output_is_symmetric() {
        let g = figure1_graph();
        let s = RandomWalk::default().symmetrize(&g).unwrap();
        assert!(s.adjacency().is_symmetric(1e-12));
    }

    #[test]
    fn same_edge_set_as_plus_transpose() {
        let g = figure1_graph();
        let rw = RandomWalk::default().symmetrize(&g).unwrap();
        let pt = crate::PlusTranspose.symmetrize(&g).unwrap();
        assert_eq!(rw.adjacency().indptr(), pt.adjacency().indptr());
        assert_eq!(rw.adjacency().indices(), pt.adjacency().indices());
        // Figure-1 failure mode persists.
        assert_eq!(rw.adjacency().get(4, 5), 0.0);
    }

    #[test]
    fn cycle_edges_weighted_by_stationary_mass() {
        // On a directed n-cycle, π is uniform (1/n) and P(u, v) = 1, so each
        // undirected edge weight is (1/n · 1 + 0)/2 = 1/(2n).
        let n = 6;
        let g = cycle_graph(n);
        let s = RandomWalk::default().symmetrize(&g).unwrap();
        for i in 0..n {
            let w = s.adjacency().get(i, (i + 1) % n);
            assert!((w - 1.0 / (2.0 * n as f64)).abs() < 1e-6, "edge weight {w}");
        }
    }

    #[test]
    fn total_weight_is_walk_probability_mass() {
        // Σ U(i,j) over all i,j equals Σ π(i) P(i,j) = Σ π(i) over
        // non-dangling nodes; with no dangling nodes that's 1.
        let g = cycle_graph(5);
        let s = RandomWalk::default().symmetrize(&g).unwrap();
        let total: f64 = s.adjacency().values().iter().sum();
        assert!((total - 1.0).abs() < 1e-8);
    }

    #[test]
    fn teleport_is_configurable() {
        let g = figure1_graph();
        let a = RandomWalk::with_teleport(0.05).symmetrize(&g).unwrap();
        let b = RandomWalk::with_teleport(0.5).symmetrize(&g).unwrap();
        // Different teleport → different stationary distribution → weights.
        let da: f64 = a.adjacency().values().iter().sum();
        let db: f64 = b.adjacency().values().iter().sum();
        assert!((da - db).abs() > 1e-6);
    }

    #[test]
    fn handles_dangling_nodes() {
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let s = RandomWalk::default().symmetrize(&g).unwrap();
        assert!(s.adjacency().is_symmetric(1e-12));
        assert!(s.adjacency().get(0, 2) > 0.0);
    }
}
