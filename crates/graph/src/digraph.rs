//! Directed graph backed by a CSR out-adjacency matrix.

use crate::{GraphError, Result};
use symclust_sparse::{ops, CooMatrix, CsrMatrix};

/// A weighted directed graph.
///
/// Nodes are `0..n`. The adjacency matrix `A` stores `A[i][j] = w` for each
/// directed edge `i → j` of weight `w` (row = source). Optional string
/// labels support the qualitative experiments (Table 5, case studies).
///
/// ```
/// use symclust_graph::DiGraph;
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// assert!(g.has_edge(0, 1) && !g.has_edge(1, 0));
/// assert_eq!(g.out_degrees(), vec![1, 1, 0]);
/// assert_eq!(g.in_degrees(), vec![0, 1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct DiGraph {
    adj: CsrMatrix,
    labels: Option<Vec<String>>,
}

impl DiGraph {
    /// Wraps a square adjacency matrix as a directed graph.
    pub fn from_adjacency(adj: CsrMatrix) -> Result<Self> {
        if adj.n_rows() != adj.n_cols() {
            return Err(GraphError::Invalid(format!(
                "adjacency matrix must be square, got {}x{}",
                adj.n_rows(),
                adj.n_cols()
            )));
        }
        Ok(DiGraph { adj, labels: None })
    }

    /// Builds a graph with `n` nodes from unweighted edges (weight 1.0 each;
    /// duplicate edges accumulate weight).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut coo = CooMatrix::with_capacity(n, n, edges.len());
        for &(u, v) in edges {
            coo.push(u, v, 1.0)?;
        }
        DiGraph::from_adjacency(coo.to_csr())
    }

    /// Builds a graph with `n` nodes from weighted edges.
    pub fn from_weighted_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut coo = CooMatrix::with_capacity(n, n, edges.len());
        for &(u, v, w) in edges {
            coo.push(u, v, w)?;
        }
        DiGraph::from_adjacency(coo.to_csr())
    }

    /// Attaches human-readable node labels (length must equal node count).
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

    /// Number of stored directed edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.adj.nnz()
    }

    /// The out-adjacency matrix (row = source node).
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

    /// Out-degree (number of out-edges) per node.
    pub fn out_degrees(&self) -> Vec<usize> {
        self.adj.row_counts()
    }

    /// In-degree (number of in-edges) per node.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.adj.col_counts()
    }

    /// Weighted out-degree (sum of out-edge weights) per node.
    pub fn weighted_out_degrees(&self) -> Vec<f64> {
        self.adj.row_sums()
    }

    /// Weighted in-degree (sum of in-edge weights) per node.
    pub fn weighted_in_degrees(&self) -> Vec<f64> {
        self.adj.col_sums()
    }

    /// True if the directed edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.get(u, v) != 0.0
    }

    /// The transpose graph (all edges reversed). Labels are preserved.
    pub fn reverse(&self) -> DiGraph {
        DiGraph {
            adj: ops::transpose(&self.adj),
            labels: self.labels.clone(),
        }
    }

    /// Iterates over all edges as `(source, target, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        self.adj.iter()
    }

    /// Cost predictor for similarity-based symmetrizations: Σᵢ dᵢ², where
    /// dᵢ is the total (in + out) degree of node i (paper §3.6).
    pub fn similarity_flops(&self) -> u128 {
        let out = self.out_degrees();
        let inn = self.in_degrees();
        out.iter()
            .zip(&inn)
            .map(|(&o, &i)| {
                let d = (o + i) as u128;
                d * d
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DiGraph {
        DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_edges_basic() {
        let g = triangle();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn duplicate_edges_accumulate_weight() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.adjacency().get(0, 1), 2.0);
    }

    #[test]
    fn weighted_edges() {
        let g = DiGraph::from_weighted_edges(2, &[(0, 1, 2.5), (1, 0, 0.5)]).unwrap();
        assert_eq!(g.adjacency().get(0, 1), 2.5);
        assert_eq!(g.weighted_out_degrees(), vec![2.5, 0.5]);
        assert_eq!(g.weighted_in_degrees(), vec![0.5, 2.5]);
    }

    #[test]
    fn degrees() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 2)]).unwrap();
        assert_eq!(g.out_degrees(), vec![2, 1, 0, 1]);
        assert_eq!(g.in_degrees(), vec![0, 1, 3, 0]);
    }

    #[test]
    fn reverse_flips_edges_and_keeps_labels() {
        let g = triangle()
            .with_labels(vec!["a".into(), "b".into(), "c".into()])
            .unwrap();
        let r = g.reverse();
        assert!(r.has_edge(1, 0));
        assert!(!r.has_edge(0, 1));
        assert_eq!(r.label(0), "a");
    }

    #[test]
    fn labels_validation() {
        assert!(triangle().with_labels(vec!["a".into()]).is_err());
        let g = triangle();
        assert_eq!(g.label(2), "2");
    }

    #[test]
    fn rejects_non_square_adjacency() {
        let rect = CsrMatrix::zeros(2, 3);
        assert!(DiGraph::from_adjacency(rect).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        assert!(DiGraph::from_edges(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn similarity_flops_counts_squared_degrees() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        // degrees (in+out): node0: 1, node1: 2, node2: 1 -> 1 + 4 + 1 = 6
        assert_eq!(g.similarity_flops(), 6);
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&(0, 1, 1.0)));
    }
}
