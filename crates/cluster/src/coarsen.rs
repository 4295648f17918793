//! Multilevel coarsening via heavy-edge matching (HEM).
//!
//! Shared by all three multilevel algorithms (MLR-MCL, Metis-like,
//! Graclus-like). Nodes are visited in random order; each unmatched node is
//! matched to the unmatched neighbor with the heaviest connecting edge, and
//! matched pairs collapse into one coarse node. Edge weights between coarse
//! nodes are summed; vertex weights accumulate so balance constraints can be
//! enforced on the original node mass.

use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use symclust_graph::UnGraph;
use symclust_sparse::CooMatrix;

/// Options controlling the coarsening cascade.
#[derive(Debug, Clone, Copy)]
pub struct CoarsenOptions {
    /// Stop when the graph has at most this many nodes.
    pub target_nodes: usize,
    /// Stop if a level shrinks the node count by less than this factor
    /// (guards against star-like graphs that match poorly).
    pub min_shrink: f64,
    /// Maximum number of levels.
    pub max_levels: usize,
    /// RNG seed for the visit order.
    pub seed: u64,
}

impl Default for CoarsenOptions {
    fn default() -> Self {
        CoarsenOptions {
            target_nodes: 1000,
            min_shrink: 0.95,
            max_levels: 30,
            seed: 0xC0A53,
        }
    }
}

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarse graph.
    pub graph: UnGraph,
    /// For each node of the *finer* graph, its coarse node id.
    pub map: Vec<u32>,
    /// Total vertex weight (original node count) per coarse node.
    pub vertex_weights: Vec<f64>,
}

/// Computes one heavy-edge matching pass; returns the fine→coarse map and
/// the number of coarse nodes.
fn heavy_edge_matching(g: &UnGraph, seed: u64) -> (Vec<u32>, usize) {
    let n = g.n_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut mate: Vec<u32> = vec![u32::MAX; n];
    for &u in &order {
        if mate[u] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for (v, w) in g.neighbors(u) {
            if v as usize == u || mate[v as usize] != u32::MAX {
                continue;
            }
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((v, w));
            }
        }
        match best {
            Some((v, _)) => {
                mate[u] = v;
                mate[v as usize] = u as u32;
            }
            None => mate[u] = u as u32, // stays alone
        }
    }
    // Assign coarse ids: the smaller endpoint of each pair owns the id.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for u in 0..n {
        if map[u] != u32::MAX {
            continue;
        }
        let m = mate[u] as usize;
        map[u] = next;
        if m != u {
            map[m] = next;
        }
        next += 1;
    }
    (map, next as usize)
}

/// Collapses `g` according to a fine→coarse map, summing edge and vertex
/// weights. Self-edges created by collapsed pairs are kept (they carry the
/// internal weight, which Graclus-style refinement needs).
fn project_graph(
    g: &UnGraph,
    map: &[u32],
    n_coarse: usize,
    fine_vertex_weights: &[f64],
) -> Result<(UnGraph, Vec<f64>)> {
    let mut coo = CooMatrix::with_capacity(n_coarse, n_coarse, g.adjacency().nnz());
    for (u, v, w) in g.adjacency().iter() {
        let (cu, cv) = (map[u] as usize, map[v as usize] as usize);
        coo.push(cu, cv, w)?;
    }
    let adj = coo.to_csr();
    let mut weights = vec![0.0f64; n_coarse];
    for (u, &c) in map.iter().enumerate() {
        weights[c as usize] += fine_vertex_weights[u];
    }
    Ok((UnGraph::from_symmetric_unchecked(adj), weights))
}

/// Builds the full coarsening cascade. `levels[0]` is the first coarse
/// graph (one HEM pass from the input); the last entry is the coarsest.
/// Returns an empty vec when the input is already at or below target size.
pub fn coarsen_graph(g: &UnGraph, opts: &CoarsenOptions) -> Result<Vec<CoarseLevel>> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current = g.clone();
    let mut current_weights = vec![1.0f64; g.n_nodes()];
    for level in 0..opts.max_levels {
        if current.n_nodes() <= opts.target_nodes {
            break;
        }
        let (map, n_coarse) = heavy_edge_matching(&current, opts.seed.wrapping_add(level as u64));
        if (n_coarse as f64) > opts.min_shrink * current.n_nodes() as f64 {
            break; // matching stalled
        }
        let (coarse, weights) = project_graph(&current, &map, n_coarse, &current_weights)?;
        levels.push(CoarseLevel {
            graph: coarse.clone(),
            map,
            vertex_weights: weights.clone(),
        });
        current = coarse;
        current_weights = weights;
    }
    Ok(levels)
}

/// Lifts a coarse-level assignment back to the finer level.
pub(crate) fn lift_assignment(coarse_assignment: &[u32], map: &[u32]) -> Vec<u32> {
    map.iter().map(|&c| coarse_assignment[c as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_path() -> UnGraph {
        // 0 -5- 1 -1- 2 -5- 3 : HEM should match (0,1) and (2,3).
        UnGraph::from_weighted_edges(4, &[(0, 1, 5.0), (1, 2, 1.0), (2, 3, 5.0)]).unwrap()
    }

    #[test]
    fn hem_prefers_heavy_edges() {
        let g = weighted_path();
        let (map, n) = heavy_edge_matching(&g, 1);
        assert_eq!(n, 2);
        assert_eq!(map[0], map[1]);
        assert_eq!(map[2], map[3]);
        assert_ne!(map[0], map[2]);
    }

    #[test]
    fn hem_isolated_nodes_stay_alone() {
        let g = UnGraph::from_edges(3, &[(0, 1)]).unwrap();
        let (map, n) = heavy_edge_matching(&g, 1);
        assert_eq!(n, 2);
        assert_eq!(map[0], map[1]);
        assert_ne!(map[2], map[0]);
    }

    #[test]
    fn project_sums_weights_and_creates_self_loops() {
        let g = weighted_path();
        let (map, n) = heavy_edge_matching(&g, 1);
        let (coarse, weights) = project_graph(&g, &map, n, &[1.0; 4]).unwrap();
        assert_eq!(coarse.n_nodes(), 2);
        // Internal weight becomes a self-loop of weight 2*5 (both triangle
        // halves of the symmetric matrix collapse onto the diagonal).
        let c0 = map[0] as usize;
        assert_eq!(coarse.adjacency().get(c0, c0), 10.0);
        // The cross edge 1-2 survives with weight 1.
        let c2 = map[2] as usize;
        assert_eq!(coarse.weight(c0, c2), 1.0);
        assert_eq!(weights, vec![2.0, 2.0]);
    }

    #[test]
    fn cascade_reaches_target() {
        // A 64-cycle should coarsen roughly by half per level.
        let edges: Vec<(usize, usize)> = (0..64).map(|i| (i, (i + 1) % 64)).collect();
        let g = UnGraph::from_edges(64, &edges).unwrap();
        let levels = coarsen_graph(
            &g,
            &CoarsenOptions {
                target_nodes: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!levels.is_empty());
        let last = levels.last().unwrap();
        assert!(
            last.graph.n_nodes() <= 20,
            "coarsest = {}",
            last.graph.n_nodes()
        );
        // Vertex weights always sum to the original node count.
        for level in &levels {
            let total: f64 = level.vertex_weights.iter().sum();
            assert_eq!(total, 64.0);
        }
    }

    #[test]
    fn cascade_noop_for_small_graph() {
        let g = weighted_path();
        let levels = coarsen_graph(&g, &CoarsenOptions::default()).unwrap();
        assert!(levels.is_empty());
    }

    #[test]
    fn lift_assignment_follows_map() {
        let coarse = vec![5u32, 9u32];
        let map = vec![0u32, 0, 1, 1];
        assert_eq!(lift_assignment(&coarse, &map), vec![5, 5, 9, 9]);
    }
}
