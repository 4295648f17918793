//! Undirected weighted graph backed by a symmetric CSR adjacency matrix.
//!
//! Every symmetrization produces an [`UnGraph`]; every stage-2 clustering
//! algorithm consumes one.

use crate::{GraphError, Result};
use symclust_sparse::{CooMatrix, CsrMatrix};

/// A weighted undirected graph.
///
/// The adjacency matrix is stored in full symmetric form (both `(u, v)` and
/// `(v, u)` entries), which lets clustering algorithms stream neighbor lists
/// straight off CSR rows. Self-loops are permitted (some clusterers add
/// them); construction checks symmetry.
#[derive(Debug, Clone)]
pub struct UnGraph {
    adj: CsrMatrix,
    labels: Option<Vec<String>>,
}

impl UnGraph {
    /// Wraps a symmetric adjacency matrix.
    ///
    /// # Errors
    /// Rejects non-square or (numerically) asymmetric matrices.
    pub fn from_adjacency(adj: CsrMatrix) -> Result<Self> {
        if adj.n_rows() != adj.n_cols() {
            return Err(GraphError::Invalid(format!(
                "adjacency matrix must be square, got {}x{}",
                adj.n_rows(),
                adj.n_cols()
            )));
        }
        if !adj.is_symmetric(1e-9) {
            return Err(GraphError::Invalid(
                "adjacency matrix is not symmetric".to_string(),
            ));
        }
        Ok(UnGraph { adj, labels: None })
    }

    /// Wraps a matrix that is symmetric by construction, skipping the check
    /// in release builds. Symmetrizations use this fast path.
    pub fn from_symmetric_unchecked(adj: CsrMatrix) -> Self {
        debug_assert!(
            adj.n_rows() == adj.n_cols() && adj.is_symmetric(1e-9),
            "from_symmetric_unchecked got an asymmetric matrix"
        );
        UnGraph { adj, labels: None }
    }

    /// Builds from undirected unweighted edges; each `(u, v)` inserts both
    /// directions with weight 1.0.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut coo = CooMatrix::with_capacity(n, n, edges.len() * 2);
        for &(u, v) in edges {
            coo.push(u, v, 1.0)?;
            if u != v {
                coo.push(v, u, 1.0)?;
            }
        }
        Ok(UnGraph {
            adj: coo.to_csr(),
            labels: None,
        })
    }

    /// Builds from undirected weighted edges.
    pub fn from_weighted_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut coo = CooMatrix::with_capacity(n, n, edges.len() * 2);
        for &(u, v, w) in edges {
            coo.push(u, v, w)?;
            if u != v {
                coo.push(v, u, w)?;
            }
        }
        Ok(UnGraph {
            adj: coo.to_csr(),
            labels: None,
        })
    }

    /// Attaches node labels.
    pub fn with_labels(mut self, labels: Vec<String>) -> Result<Self> {
        if labels.len() != self.n_nodes() {
            return Err(GraphError::Invalid(format!(
                "{} labels for {} nodes",
                labels.len(),
                self.n_nodes()
            )));
        }
        self.labels = Some(labels);
        Ok(self)
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.adj.n_rows()
    }

    /// Number of undirected edges (off-diagonal stored entries / 2 plus
    /// self-loops).
    pub fn n_edges(&self) -> usize {
        let mut diag = 0usize;
        for r in 0..self.adj.n_rows() {
            if self.adj.get(r, r) != 0.0 {
                diag += 1;
            }
        }
        (self.adj.nnz() - diag) / 2 + diag
    }

    /// The symmetric adjacency matrix.
    #[inline]
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adj
    }

    /// Consumes the graph, returning its adjacency matrix.
    pub fn into_adjacency(self) -> CsrMatrix {
        self.adj
    }

    /// Node labels, if attached.
    pub fn labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }

    /// Label of a node, or its index rendered as a string.
    pub fn label(&self, node: usize) -> String {
        match &self.labels {
            Some(l) => l[node].clone(),
            None => node.to_string(),
        }
    }

    /// Weighted degree (sum of incident edge weights; self-loops counted
    /// once) per node.
    pub fn weighted_degrees(&self) -> Vec<f64> {
        self.adj.row_sums()
    }

    /// Unweighted degree (neighbor count) per node.
    pub fn degrees(&self) -> Vec<usize> {
        self.adj.row_counts()
    }

    /// Neighbors of `node` with edge weights.
    pub fn neighbors(&self, node: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.adj.row_iter(node)
    }

    /// Edge weight between `u` and `v` (0.0 if absent).
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        self.adj.get(u, v)
    }

    /// Total edge weight: Σ w(u, v) over undirected edges.
    pub fn total_weight(&self) -> f64 {
        let mut diag = 0.0;
        for r in 0..self.adj.n_rows() {
            diag += self.adj.get(r, r);
        }
        (self.adj.values().iter().sum::<f64>() - diag) / 2.0 + diag
    }

    /// Number of nodes with no incident edges.
    pub fn n_singletons(&self) -> usize {
        (0..self.n_nodes())
            .filter(|&r| self.adj.row_nnz(r) == 0)
            .count()
    }

    /// The subgraph induced by `nodes` (which must be sorted and unique);
    /// node `i` of the result corresponds to `nodes[i]`. Labels are not
    /// carried over.
    #[expect(
        clippy::expect_used,
        reason = "CSR invariants were checked when the matrix was built"
    )]
    pub fn induced_subgraph(&self, nodes: &[u32]) -> UnGraph {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes not sorted");
        let mut local = vec![u32::MAX; self.n_nodes()];
        for (i, &v) in nodes.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut coo = CooMatrix::new(nodes.len(), nodes.len());
        for &v in nodes {
            for (nb, w) in self.neighbors(v as usize) {
                let lu = local[v as usize];
                let lv = local[nb as usize];
                if lv != u32::MAX {
                    coo.push(lu as usize, lv as usize, w)
                        .expect("indices in range by construction");
                }
            }
        }
        UnGraph::from_symmetric_unchecked(coo.to_csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> UnGraph {
        UnGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn from_edges_inserts_both_directions() {
        let g = path();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.weight(0, 1), 1.0);
        assert_eq!(g.weight(1, 0), 1.0);
    }

    #[test]
    fn self_loop_counts_once() {
        let g = UnGraph::from_edges(2, &[(0, 0), (0, 1)]).unwrap();
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.weight(0, 0), 1.0);
        assert_eq!(g.total_weight(), 2.0);
    }

    #[test]
    fn rejects_asymmetric_matrix() {
        let m = CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        assert!(UnGraph::from_adjacency(m).is_err());
    }

    #[test]
    fn accepts_symmetric_matrix() {
        let m = CsrMatrix::from_dense(&[vec![0.0, 2.0], vec![2.0, 0.0]]);
        let g = UnGraph::from_adjacency(m).unwrap();
        assert_eq!(g.weight(0, 1), 2.0);
    }

    #[test]
    fn weighted_degrees_sum_incident() {
        let g = UnGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        assert_eq!(g.weighted_degrees(), vec![2.0, 5.0, 3.0]);
        assert_eq!(g.degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn total_weight_sums_edges_once() {
        let g = UnGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        assert_eq!(g.total_weight(), 5.0);
    }

    #[test]
    fn singleton_count() {
        let g = UnGraph::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(g.n_singletons(), 2);
    }

    #[test]
    fn labels_roundtrip() {
        let g = path()
            .with_labels(vec!["x".into(), "y".into(), "z".into()])
            .unwrap();
        assert_eq!(g.label(1), "y");
        assert!(path().with_labels(vec![]).is_err());
    }

    #[test]
    fn rejects_non_square() {
        assert!(UnGraph::from_adjacency(CsrMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g =
            UnGraph::from_weighted_edges(5, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0), (3, 4, 5.0)])
                .unwrap();
        let sub = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.n_nodes(), 3);
        assert_eq!(sub.weight(0, 1), 3.0); // old edge 1-2
        assert_eq!(sub.weight(0, 2), 0.0); // 1-4 was not an edge
        assert_eq!(sub.weight(1, 2), 0.0); // 2-4 was not an edge
        assert_eq!(sub.n_edges(), 1);
    }

    #[test]
    fn induced_subgraph_preserves_self_loops() {
        let g = UnGraph::from_weighted_edges(3, &[(0, 0, 7.0), (0, 1, 1.0)]).unwrap();
        let sub = g.induced_subgraph(&[0, 2]);
        assert_eq!(sub.weight(0, 0), 7.0);
        assert_eq!(sub.degrees()[1], 0);
    }
}
