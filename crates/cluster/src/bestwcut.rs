//! BestWCut — directed spectral clustering by weighted cuts
//! (Meila & Pentney, SDM 2007 — the paper's reference \[17\]).
//!
//! Meila & Pentney generalize normalized cuts to directed graphs through the
//! `WCut` family (Eq. 4 of the paper), parameterized by node-weight vectors
//! `T, T'`. Each weight choice induces a symmetric Laplacian-like operator
//!
//! ```text
//! L_T = I − (Θ^{1/2} P Θ^{-1/2} + Θ^{-1/2} Pᵀ Θ^{1/2}) / 2,   Θ = diag(T)
//! ```
//!
//! (for `T = π`, the stationary distribution, this is exactly Eq. 5 — the
//! directed Laplacian of Zhou et al. and Chung). The spectral relaxation
//! clusters the rows of the bottom-`k` eigenvector embedding, scaled by
//! `Θ^{-1/2}`, with k-means. **Best**WCut tries each candidate weighting and
//! keeps the clustering with the lowest resulting directed WCut — which is
//! also why it needs several expensive eigendecompositions per run, the
//! scalability weakness the paper highlights (it never finished on their
//! Wikipedia dataset; Figure 6b shows orders-of-magnitude slower runtimes
//! than symmetrization + MLR-MCL/Metis/Graclus).

use crate::clustering::Clustering;
use crate::kmeans::{kmeans, KMeansOptions};
use crate::{ClusterError, Result};
use symclust_graph::DiGraph;
use symclust_sparse::{
    lanczos_smallest, ops, pagerank, CsrMatrix, LanczosOptions, PageRankOptions,
};

/// Candidate node-weight vectors for the WCut objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WCutWeights {
    /// `T = π`, the random-walk stationary distribution: recovers the
    /// directed normalized cut of Zhou et al. (Eq. 3/5 of the paper).
    Stationary,
    /// `T = in-degree + out-degree`.
    Degree,
    /// `T = 1` (uniform weights).
    Uniform,
}

impl WCutWeights {
    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            WCutWeights::Stationary => "stationary",
            WCutWeights::Degree => "degree",
            WCutWeights::Uniform => "uniform",
        }
    }
}

/// Options for [`BestWCut`].
#[derive(Debug, Clone)]
pub struct BestWCutOptions {
    /// Number of clusters (and eigenvectors per candidate).
    pub k: usize,
    /// Teleport probability for the stationary distribution.
    pub teleport: f64,
    /// Candidate weightings; the best-scoring clustering wins.
    pub candidates: Vec<WCutWeights>,
    /// k-means settings for the spectral embedding.
    pub kmeans: KMeansOptions,
    /// Lanczos settings.
    pub lanczos: LanczosOptions,
}

impl Default for BestWCutOptions {
    fn default() -> Self {
        BestWCutOptions {
            k: 8,
            teleport: 0.05,
            candidates: vec![
                WCutWeights::Stationary,
                WCutWeights::Degree,
                WCutWeights::Uniform,
            ],
            kmeans: KMeansOptions::default(),
            lanczos: LanczosOptions::default(),
        }
    }
}

/// The Meila–Pentney weighted-cut spectral baseline.
#[derive(Debug, Clone, Default)]
pub struct BestWCut {
    /// Execution options.
    pub options: BestWCutOptions,
}

impl BestWCut {
    /// Creates BestWCut for `k` clusters.
    pub fn with_k(k: usize) -> Self {
        BestWCut {
            options: BestWCutOptions {
                k,
                ..Default::default()
            },
        }
    }

    /// Algorithm name used in experiment tables.
    pub fn name(&self) -> String {
        "BestWCut".to_string()
    }

    fn weight_vector(&self, g: &DiGraph, w: WCutWeights) -> Result<Vec<f64>> {
        let n = g.n_nodes();
        Ok(match w {
            WCutWeights::Stationary => {
                pagerank(
                    g.adjacency(),
                    &PageRankOptions {
                        teleport: self.options.teleport,
                        ..Default::default()
                    },
                )?
                .pi
            }
            WCutWeights::Degree => {
                let out = g.weighted_out_degrees();
                let inn = g.weighted_in_degrees();
                out.iter().zip(&inn).map(|(o, i)| o + i).collect()
            }
            WCutWeights::Uniform => vec![1.0; n],
        })
    }

    /// Clusters a directed graph. This is the paper's comparison baseline —
    /// note the input is the *directed* graph, not a symmetrized one.
    #[expect(
        clippy::expect_used,
        reason = "shape/length preconditions established immediately above; candidate set non-empty by loop bounds"
    )]
    pub fn cluster_digraph(&self, g: &DiGraph) -> Result<Clustering> {
        let k = self.options.k;
        let n = g.n_nodes();
        if k == 0 {
            return Err(ClusterError::InvalidConfig("k must be positive".into()));
        }
        if self.options.candidates.is_empty() {
            return Err(ClusterError::InvalidConfig(
                "need at least one weight candidate".into(),
            ));
        }
        if n == 0 {
            return Ok(Clustering::single_cluster(0));
        }
        if k >= n {
            return Ok(Clustering::singletons(n));
        }
        let mut best: Option<(Clustering, f64)> = None;
        for &cand in &self.options.candidates {
            let t = self.weight_vector(g, cand)?;
            let l = wcut_laplacian(g, &t);
            let eig = lanczos_smallest(&l, k, &self.options.lanczos)?;
            // Scale eigenvectors by Θ^{-1/2} (undo the symmetrizing change
            // of basis), then cluster rows.
            let t_inv_sqrt: Vec<f64> = t
                .iter()
                .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
                .collect();
            let scaled: Vec<Vec<f64>> = eig
                .eigenvectors
                .iter()
                .map(|v| v.iter().zip(&t_inv_sqrt).map(|(x, s)| x * s).collect())
                .collect();
            let kmeans_opts = KMeansOptions {
                k,
                ..self.options.kmeans
            };
            let clustering = cluster_embedding(&scaled, n, &kmeans_opts)?;
            let score = directed_wcut(g, &t, clustering.assignments(), clustering.n_clusters());
            if best.as_ref().is_none_or(|(_, bs)| score < *bs) {
                best = Some((clustering, score));
            }
        }
        Ok(best.expect("at least one candidate").0)
    }
}

/// Clusters rows of a spectral embedding (n × k, row-major after
/// row-normalization) with k-means++.
fn cluster_embedding(
    eigenvectors: &[Vec<f64>],
    n: usize,
    kmeans_opts: &KMeansOptions,
) -> Result<Clustering> {
    let d = eigenvectors.len();
    let mut points = vec![0.0f64; n * d];
    for (j, vec) in eigenvectors.iter().enumerate() {
        for i in 0..n {
            points[i * d + j] = vec[i];
        }
    }
    // Row-normalize (standard for normalized spectral clustering).
    for i in 0..n {
        let row = &mut points[i * d..(i + 1) * d];
        let norm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    let result = kmeans(&points, n, d, kmeans_opts)?;
    Ok(Clustering::from_assignments(&result.assignments))
}

/// Builds the WCut Laplacian `I − (Θ^{1/2}PΘ^{-1/2} + Θ^{-1/2}PᵀΘ^{1/2})/2`.
#[expect(
    clippy::expect_used,
    reason = "shape/length preconditions established immediately above; candidate set non-empty by loop bounds"
)]
fn wcut_laplacian(g: &DiGraph, t: &[f64]) -> CsrMatrix {
    let p = ops::row_normalize(g.adjacency());
    let sqrt_t: Vec<f64> = t.iter().map(|&x| x.max(0.0).sqrt()).collect();
    let inv_sqrt_t: Vec<f64> = sqrt_t
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x } else { 0.0 })
        .collect();
    // M = Θ^{1/2} P Θ^{-1/2}
    let mut m = p;
    ops::scale_rows(&mut m, &sqrt_t).expect("length matches");
    ops::scale_cols(&mut m, &inv_sqrt_t).expect("length matches");
    let mt = ops::transpose(&m);
    let sym = ops::add_scaled(&m, 0.5, &mt, 0.5).expect("same shape");
    let eye = CsrMatrix::identity(g.n_nodes());
    ops::add_scaled(&eye, 1.0, &sym, -1.0).expect("same shape")
}

/// Evaluates the directed weighted cut of a clustering (Eq. 4 summed over
/// clusters, with `T'(i) = T(i)/outdeg(i)` so that `T = π` recovers the
/// directed normalized cut of Eq. 3).
fn directed_wcut(g: &DiGraph, t: &[f64], assignment: &[u32], k: usize) -> f64 {
    let out_deg = g.weighted_out_degrees();
    let mut cluster_t = vec![0.0f64; k];
    for (v, &a) in assignment.iter().enumerate() {
        cluster_t[a as usize] += t[v];
    }
    // Cross-cluster flow in both directions per cluster.
    let mut boundary = vec![0.0f64; k];
    for (u, v, w) in g.edges() {
        let (cu, cv) = (assignment[u] as usize, assignment[v as usize] as usize);
        if cu != cv {
            let flow = if out_deg[u] > 0.0 {
                t[u] * w / out_deg[u]
            } else {
                0.0
            };
            boundary[cu] += flow; // leaves cu
            boundary[cv] += flow; // enters cv
        }
    }
    (0..k)
        .filter(|&c| cluster_t[c] > 0.0)
        .map(|c| boundary[c] / cluster_t[c])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::two_cliques;

    #[test]
    fn wcut_laplacian_is_symmetric_psd_like() {
        let g = two_cliques(4);
        let t = vec![1.0; 8];
        let l = wcut_laplacian(&g, &t);
        assert!(l.is_symmetric(1e-12));
        // Diagonal of I - sym(P) is 1 (no self-loops in P).
        for i in 0..8 {
            assert!((l.get(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques(6);
        let c = BestWCut::with_k(2).cluster_digraph(&g).unwrap();
        assert_eq!(c.n_clusters(), 2);
        for i in 0..6 {
            assert!(c.same_cluster(0, i));
            assert!(c.same_cluster(6, 6 + i));
        }
        assert!(!c.same_cluster(0, 6));
    }

    #[test]
    fn directed_wcut_prefers_good_cuts() {
        let g = two_cliques(5);
        let t = vec![1.0; 10];
        let good: Vec<u32> = (0..10).map(|i| u32::from(i >= 5)).collect();
        let bad: Vec<u32> = (0..10).map(|i| (i % 2) as u32).collect();
        let wg = directed_wcut(&g, &t, &good, 2);
        let wb = directed_wcut(&g, &t, &bad, 2);
        assert!(wg < wb, "good {wg} >= bad {wb}");
    }

    #[test]
    fn directed_wcut_zero_for_single_cluster() {
        let g = two_cliques(3);
        let t = vec![1.0; 6];
        assert_eq!(directed_wcut(&g, &t, &[0; 6], 1), 0.0);
    }

    #[test]
    fn stationary_weights_recover_ncut_dir_form() {
        // For a directed cycle, π is uniform and every edge crosses in a
        // 2-coloring; WCut with stationary weights must be positive and
        // symmetric across the two clusters.
        let g = symclust_graph::generators::cycle_graph(6);
        let bw = BestWCut::with_k(2);
        let t = bw.weight_vector(&g, WCutWeights::Stationary).unwrap();
        assert!((t.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        let assignment: Vec<u32> = (0..6).map(|i| (i % 2) as u32).collect();
        let w = directed_wcut(&g, &t, &assignment, 2);
        assert!(w > 0.0);
    }

    #[test]
    fn candidate_labels() {
        assert_eq!(WCutWeights::Stationary.label(), "stationary");
        assert_eq!(WCutWeights::Degree.label(), "degree");
        assert_eq!(WCutWeights::Uniform.label(), "uniform");
    }

    #[test]
    fn edge_cases() {
        let g = two_cliques(3);
        assert!(BestWCut::with_k(0).cluster_digraph(&g).is_err());
        let mut b = BestWCut::with_k(2);
        b.options.candidates.clear();
        assert!(b.cluster_digraph(&g).is_err());
        let big_k = BestWCut::with_k(100).cluster_digraph(&g).unwrap();
        assert_eq!(big_k.n_clusters(), 6);
    }

    #[test]
    fn single_candidate_works() {
        let g = two_cliques(4);
        let algo = BestWCut {
            options: BestWCutOptions {
                k: 2,
                candidates: vec![WCutWeights::Degree],
                ..Default::default()
            },
        };
        let c = algo.cluster_digraph(&g).unwrap();
        assert_eq!(c.n_clusters(), 2);
    }

    #[test]
    fn cluster_embedding_separates_obvious_blocks() {
        // Two eigenvector columns that cleanly separate nodes 0-2 from 3-5.
        let v1 = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        let v2 = vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        let c = cluster_embedding(
            &[v2, v1],
            6,
            &KMeansOptions {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(c.same_cluster(0, 1) && c.same_cluster(1, 2));
        assert!(c.same_cluster(3, 4) && c.same_cluster(4, 5));
        assert!(!c.same_cluster(0, 3));
    }
}
