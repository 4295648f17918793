//! Internal (ground-truth-free) clustering quality: Newman–Girvan
//! modularity, which the root crate's `Pipeline` reports next to the
//! F-score and the normalized cut.

use symclust_graph::UnGraph;

/// Newman–Girvan modularity of a hard clustering on a weighted undirected
/// graph: `Q = Σ_c (l_c/m − (d_c/2m)²)` with `l_c` the internal edge
/// weight, `d_c` the total degree of cluster `c`, and `m` the total edge
/// weight.
pub fn modularity(g: &UnGraph, assignments: &[u32]) -> f64 {
    assert_eq!(assignments.len(), g.n_nodes());
    let k = assignments
        .iter()
        .map(|&a| a as usize + 1)
        .max()
        .unwrap_or(0);
    let m = g.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let degrees = g.weighted_degrees();
    let mut internal = vec![0.0f64; k]; // undirected internal weight
    let mut degree_sum = vec![0.0f64; k];
    for (v, &a) in assignments.iter().enumerate() {
        degree_sum[a as usize] += degrees[v];
    }
    for (u, v, w) in g.adjacency().iter() {
        let v = v as usize;
        if assignments[u] == assignments[v] && u <= v {
            internal[assignments[u] as usize] += w;
        }
    }
    (0..k)
        .map(|c| internal[c] / m - (degree_sum[c] / (2.0 * m)).powi(2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> UnGraph {
        UnGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]).unwrap()
    }

    #[test]
    fn modularity_of_good_split_is_high() {
        let g = two_triangles();
        let good = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        let bad = modularity(&g, &[0, 1, 0, 1, 0, 1]);
        let trivial = modularity(&g, &[0; 6]);
        assert!(good > bad, "good {good} <= bad {bad}");
        assert!(good > 0.3);
        // Single cluster has modularity 0 by definition.
        assert!(trivial.abs() < 1e-12);
    }

    #[test]
    fn modularity_hand_computed() {
        // Two disjoint edges: perfect split Q = Σ (1/2 - (1/2)²) = 0.5.
        let g = UnGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let q = modularity(&g, &[0, 0, 1, 1]);
        assert!((q - 0.5).abs() < 1e-12, "q = {q}");
    }

    #[test]
    fn empty_assignments() {
        let g = UnGraph::from_edges(0, &[]).unwrap();
        assert_eq!(modularity(&g, &[]), 0.0);
    }
}
