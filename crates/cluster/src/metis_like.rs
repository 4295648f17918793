//! Multilevel k-way graph partitioning in the style of Metis
//! (Karypis & Kumar, SIAM J. Sci. Comput. 1999).
//!
//! Three phases: (1) coarsen by heavy-edge matching, (2) greedy
//! graph-growing initial partition on the coarsest graph, (3) uncoarsen with
//! boundary greedy (FM-flavored) k-way refinement at every level, moving
//! boundary vertices to the neighboring partition with the highest edge-cut
//! gain subject to a balance constraint on vertex weight.
//!
//! Produces exactly `k` parts, minimizing edge cut — the behavior of the
//! Metis binary the paper benchmarks.

use crate::clustering::Clustering;
use crate::coarsen::{coarsen_graph, CoarsenOptions};
use crate::{ClusterAlgorithm, ClusterError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use symclust_graph::UnGraph;
use symclust_obs::MetricsRegistry;
use symclust_sparse::CancelToken;

/// Options for [`MetisLike`].
#[derive(Debug, Clone, Copy)]
pub struct MetisOptions {
    /// Number of parts to produce.
    pub k: usize,
    /// Allowed imbalance: a part may weigh at most `(1 + imbalance)`
    /// times the average part weight.
    pub imbalance: f64,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// Coarsening seed (also seeds initial-partition tie-breaking).
    pub seed: u64,
}

impl Default for MetisOptions {
    fn default() -> Self {
        MetisOptions {
            k: 8,
            imbalance: 0.10,
            refine_passes: 4,
            seed: 0x11E716,
        }
    }
}

/// Multilevel k-way partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetisLike {
    /// Execution options.
    pub options: MetisOptions,
}

impl MetisLike {
    /// Creates a partitioner for `k` parts.
    pub fn with_k(k: usize) -> Self {
        MetisLike {
            options: MetisOptions {
                k,
                ..Default::default()
            },
        }
    }
}

/// Greedy graph-growing initial partition: grow each part from a seed by
/// repeatedly absorbing the unassigned node most strongly connected to the
/// region, until the part reaches its weight target.
#[expect(
    clippy::expect_used,
    reason = "k is validated positive at entry; max over 0..k is Some"
)]
pub fn region_growing_partition(
    g: &UnGraph,
    vertex_weights: &[f64],
    k: usize,
    seed: u64,
) -> Vec<u32> {
    let n = g.n_nodes();
    let total_weight: f64 = vertex_weights.iter().sum();
    let target = total_weight / k as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);

    let mut assignment = vec![u32::MAX; n];
    let mut order_cursor = 0usize;
    // connection[v] = total edge weight from v into the growing region.
    let mut connection: Vec<f64> = vec![0.0; n];
    for part in 0..k {
        while order_cursor < n && assignment[order[order_cursor]] != u32::MAX {
            order_cursor += 1;
        }
        if order_cursor >= n {
            break;
        }
        connection.iter_mut().for_each(|c| *c = 0.0);
        let seed_node = order[order_cursor];
        assignment[seed_node] = part as u32;
        let mut part_weight = vertex_weights[seed_node];
        let mut frontier: Vec<u32> = Vec::new();
        for (nb, w) in g.neighbors(seed_node) {
            if assignment[nb as usize] == u32::MAX {
                if connection[nb as usize] == 0.0 {
                    frontier.push(nb);
                }
                connection[nb as usize] += w;
            }
        }
        while part_weight < target {
            // Pop the best-connected unassigned frontier node.
            let mut best: Option<(usize, usize, f64)> = None; // (frontier idx, node, conn)
            for (fi, &node) in frontier.iter().enumerate() {
                let node = node as usize;
                if assignment[node] != u32::MAX {
                    continue;
                }
                let c = connection[node];
                if best.is_none_or(|(_, _, bc)| c > bc) {
                    best = Some((fi, node, c));
                }
            }
            let Some((fi, node, _)) = best else {
                break; // region exhausted (disconnected component)
            };
            frontier.swap_remove(fi);
            assignment[node] = part as u32;
            part_weight += vertex_weights[node];
            for (nb, w) in g.neighbors(node) {
                if assignment[nb as usize] == u32::MAX {
                    if connection[nb as usize] == 0.0 {
                        frontier.push(nb);
                    }
                    connection[nb as usize] += w;
                }
            }
        }
    }
    // Leftovers (disconnected remnants) attach to the part they connect to
    // most strongly; isolated leftovers go to the lightest part. Sweep
    // repeatedly so chains hanging off a single attachment point resolve.
    let mut part_weight_tmp = vec![0.0f64; k];
    for (v, &a) in assignment.iter().enumerate() {
        if a != u32::MAX {
            part_weight_tmp[a as usize] += vertex_weights[v];
        }
    }
    loop {
        let mut changed = false;
        let mut any_left = false;
        for v in 0..n {
            if assignment[v] != u32::MAX {
                continue;
            }
            let mut conn = vec![0.0f64; k];
            let mut seen_any = false;
            for (nb, w) in g.neighbors(v) {
                let a = assignment[nb as usize];
                if a != u32::MAX {
                    conn[a as usize] += w;
                    seen_any = true;
                }
            }
            if seen_any {
                let best = (0..k)
                    .max_by(|&a, &b| conn[a].total_cmp(&conn[b]))
                    .expect("k >= 1");
                assignment[v] = best as u32;
                part_weight_tmp[best] += vertex_weights[v];
                changed = true;
            } else {
                any_left = true;
            }
        }
        if !any_left {
            break;
        }
        if !changed {
            // Remaining nodes are isolated from every region: balance them.
            for v in 0..n {
                if assignment[v] == u32::MAX {
                    let lightest = (0..k)
                        .min_by(|&a, &b| part_weight_tmp[a].total_cmp(&part_weight_tmp[b]))
                        .expect("k >= 1");
                    assignment[v] = lightest as u32;
                    part_weight_tmp[lightest] += vertex_weights[v];
                }
            }
            break;
        }
    }
    // Repair empty parts by stealing single nodes from populous parts.
    let mut part_count = vec![0usize; k];
    for &a in assignment.iter() {
        part_count[a as usize] += 1;
    }
    for part in 0..k {
        if part_count[part] > 0 {
            continue;
        }
        let donor = (0..k).max_by_key(|&p| part_count[p]).expect("k >= 1");
        if part_count[donor] <= 1 {
            continue; // cannot repair without emptying another part
        }
        if let Some(victim) = (0..n).find(|&v| assignment[v] as usize == donor) {
            assignment[victim] = part as u32;
            part_count[donor] -= 1;
            part_count[part] += 1;
        }
    }
    assignment
}

/// Grows one region from successive seeds until it reaches `target` total
/// vertex weight; returns a 0/1 side assignment. Unlike simultaneous k-way
/// growing, this cannot strand seeds: when a region's frontier is exhausted
/// (disconnected graph), growth restarts from a fresh unassigned seed.
fn grow_bisection(g: &UnGraph, vertex_weights: &[f64], target: f64, seed: u64) -> Vec<u32> {
    let n = g.n_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut side = vec![1u32; n];
    let mut weight0 = 0.0f64;
    let mut connection = vec![0.0f64; n];
    let mut frontier: Vec<u32> = Vec::new();
    let mut order_cursor = 0usize;
    while weight0 < target {
        // Find the best-connected frontier node still on side 1, or seed.
        let mut best: Option<(usize, usize, f64)> = None;
        for (fi, &node) in frontier.iter().enumerate() {
            let node = node as usize;
            if side[node] == 0 {
                continue;
            }
            let c = connection[node];
            if best.is_none_or(|(_, _, bc)| c > bc) {
                best = Some((fi, node, c));
            }
        }
        let node = match best {
            Some((fi, node, _)) => {
                frontier.swap_remove(fi);
                node
            }
            None => {
                while order_cursor < n && side[order[order_cursor]] == 0 {
                    order_cursor += 1;
                }
                if order_cursor >= n {
                    break;
                }
                order[order_cursor]
            }
        };
        side[node] = 0;
        weight0 += vertex_weights[node];
        for (nb, w) in g.neighbors(node) {
            if side[nb as usize] == 1 {
                if connection[nb as usize] == 0.0 {
                    frontier.push(nb);
                }
                connection[nb as usize] += w;
            }
        }
    }
    side
}

/// Recursive-bisection initial partition: split the graph roughly
/// `k_left : k_right`, refine the two-way cut, and recurse into the induced
/// halves. Far more robust than simultaneous k-way region growing, which can
/// strand seeds inside already-consumed regions.
#[expect(
    clippy::expect_used,
    reason = "k is validated positive at entry; max over 0..k is Some"
)]
pub fn recursive_bisection_partition(
    g: &UnGraph,
    vertex_weights: &[f64],
    k: usize,
    imbalance: f64,
    refine_passes: usize,
    seed: u64,
) -> Vec<u32> {
    let n = g.n_nodes();
    if k <= 1 || n == 0 {
        return vec![0; n];
    }
    let k_left = k / 2;
    let k_right = k - k_left;
    let total: f64 = vertex_weights.iter().sum();
    let target_left = total * k_left as f64 / k as f64;
    let mut side = grow_bisection(g, vertex_weights, target_left, seed);
    // Two-way refinement with side-specific weight caps so odd splits
    // (e.g. 1:2) are respected.
    let caps = [
        target_left * (1.0 + imbalance),
        (total - target_left) * (1.0 + imbalance),
    ];
    kway_refine_caps(
        g,
        vertex_weights,
        &mut side,
        2,
        &caps,
        refine_passes,
        seed ^ 0x9E37,
    );
    // Recurse into each side.
    let mut left_nodes: Vec<u32> = Vec::new();
    let mut right_nodes: Vec<u32> = Vec::new();
    for (v, &s) in side.iter().enumerate() {
        if s == 0 {
            left_nodes.push(v as u32);
        } else {
            right_nodes.push(v as u32);
        }
    }
    let mut assignment = vec![0u32; n];
    let halves = [
        (&left_nodes, k_left, 0u32),
        (&right_nodes, k_right, k_left as u32),
    ];
    for (nodes, sub_k, offset) in halves {
        if nodes.is_empty() {
            continue;
        }
        let sub_weights: Vec<f64> = nodes.iter().map(|&v| vertex_weights[v as usize]).collect();
        let sub_assignment = if sub_k <= 1 {
            vec![0u32; nodes.len()]
        } else {
            let sub = g.induced_subgraph(nodes);
            recursive_bisection_partition(
                &sub,
                &sub_weights,
                sub_k,
                imbalance,
                refine_passes,
                seed.wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(offset as u64 + 1),
            )
        };
        for (i, &v) in nodes.iter().enumerate() {
            assignment[v as usize] = offset + sub_assignment[i];
        }
    }
    // Guarantee k non-empty parts when possible: donate from populous parts.
    let mut part_count = vec![0usize; k];
    for &a in &assignment {
        part_count[a as usize] += 1;
    }
    for part in 0..k {
        if part_count[part] > 0 {
            continue;
        }
        let donor = (0..k).max_by_key(|&p| part_count[p]).expect("k >= 1");
        if part_count[donor] <= 1 {
            continue;
        }
        if let Some(victim) = (0..n).find(|&v| assignment[v] as usize == donor) {
            assignment[victim] = part as u32;
            part_count[donor] -= 1;
            part_count[part] += 1;
        }
    }
    assignment
}

/// Picks the better of the two initial-partition strategies by edge cut
/// after one refinement pass. Recursive bisection is robust on sparse
/// modular graphs (simultaneous growing strands seeds); plain region
/// growing often wins on dense similarity graphs (`experiments --
/// ablations`, ablation 4). Computing both is cheap next to refinement.
pub(crate) fn best_initial_partition(
    g: &UnGraph,
    vertex_weights: &[f64],
    k: usize,
    imbalance: f64,
    refine_passes: usize,
    seed: u64,
) -> Vec<u32> {
    let mut rb =
        recursive_bisection_partition(g, vertex_weights, k, imbalance, refine_passes, seed);
    kway_refine(g, vertex_weights, &mut rb, k, imbalance, 1, seed ^ 21);
    let mut rg = region_growing_partition(g, vertex_weights, k, seed);
    kway_refine(g, vertex_weights, &mut rg, k, imbalance, 1, seed ^ 22);
    let rb_has_all = {
        let mut seen = vec![false; k];
        rb.iter().for_each(|&a| seen[a as usize] = true);
        seen.iter().all(|&s| s)
    };
    let rg_has_all = {
        let mut seen = vec![false; k];
        rg.iter().for_each(|&a| seen[a as usize] = true);
        seen.iter().all(|&s| s)
    };
    match (rb_has_all, rg_has_all) {
        (true, false) => rb,
        (false, true) => rg,
        _ => {
            if edge_cut(g, &rg) < edge_cut(g, &rb) {
                rg
            } else {
                rb
            }
        }
    }
}

/// Edge-cut of a partition: total weight of edges crossing parts.
pub fn edge_cut(g: &UnGraph, assignment: &[u32]) -> f64 {
    let mut cut = 0.0;
    for (u, v, w) in g.adjacency().iter() {
        if (u as u32) < v && assignment[u] != assignment[v as usize] {
            cut += w;
        }
    }
    cut
}

/// One or more passes of boundary greedy k-way refinement. Mutates
/// `assignment`; returns the number of moves made.
pub fn kway_refine(
    g: &UnGraph,
    vertex_weights: &[f64],
    assignment: &mut [u32],
    k: usize,
    imbalance: f64,
    passes: usize,
    seed: u64,
) -> usize {
    let total_weight: f64 = vertex_weights.iter().sum();
    let max_weight = (1.0 + imbalance) * total_weight / k as f64;
    let caps = vec![max_weight; k];
    kway_refine_caps(g, vertex_weights, assignment, k, &caps, passes, seed)
}

/// [`kway_refine`] with a separate weight cap per part (used by recursive
/// bisection for uneven splits). Mutates `assignment`; returns move count.
fn kway_refine_caps(
    g: &UnGraph,
    vertex_weights: &[f64],
    assignment: &mut [u32],
    k: usize,
    max_weights: &[f64],
    passes: usize,
    seed: u64,
) -> usize {
    let n = g.n_nodes();
    let mut part_weight = vec![0.0f64; k];
    let mut part_count = vec![0usize; k];
    for (v, &a) in assignment.iter().enumerate() {
        part_weight[a as usize] += vertex_weights[v];
        part_count[a as usize] += 1;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut total_moves = 0usize;
    // Scratch: connectivity of the current node to each part.
    let mut conn = vec![0.0f64; k];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..passes {
        order.shuffle(&mut rng);
        let mut moves = 0usize;
        for &v in &order {
            let own = assignment[v] as usize;
            if part_count[own] <= 1 {
                continue; // never empty a part
            }
            touched.clear();
            let mut is_boundary = false;
            for (nb, w) in g.neighbors(v) {
                if nb as usize == v {
                    continue;
                }
                let p = assignment[nb as usize] as usize;
                if conn[p] == 0.0 {
                    touched.push(p as u32);
                }
                conn[p] += w;
                if p != own {
                    is_boundary = true;
                }
            }
            if is_boundary {
                let own_conn = conn[own];
                let mut best: Option<(usize, f64)> = None;
                for &p in &touched {
                    let p = p as usize;
                    if p == own {
                        continue;
                    }
                    let gain = conn[p] - own_conn;
                    if gain > 1e-12
                        && part_weight[p] + vertex_weights[v] <= max_weights[p]
                        && best.is_none_or(|(_, bg)| gain > bg)
                    {
                        best = Some((p, gain));
                    }
                }
                if let Some((p, _)) = best {
                    part_weight[own] -= vertex_weights[v];
                    part_count[own] -= 1;
                    part_weight[p] += vertex_weights[v];
                    part_count[p] += 1;
                    assignment[v] = p as u32;
                    moves += 1;
                }
            }
            for &p in &touched {
                conn[p as usize] = 0.0;
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

impl ClusterAlgorithm for MetisLike {
    fn name(&self) -> String {
        "Metis".to_string()
    }

    fn cluster_observed(
        &self,
        g: &UnGraph,
        token: &CancelToken,
        _metrics: Option<&MetricsRegistry>,
    ) -> Result<Clustering> {
        token.checkpoint()?;
        let k = self.options.k;
        let n = g.n_nodes();
        if k == 0 {
            return Err(ClusterError::InvalidConfig("k must be positive".into()));
        }
        if n == 0 {
            return Ok(Clustering::single_cluster(0));
        }
        if k >= n {
            return Ok(Clustering::singletons(n));
        }
        // Coarsen, but never below ~10 nodes per part.
        let coarsen_opts = CoarsenOptions {
            target_nodes: (10 * k).max(200),
            seed: self.options.seed,
            ..Default::default()
        };
        let levels = coarsen_graph(g, &coarsen_opts)?;
        let (coarsest, coarsest_weights) = match levels.last() {
            Some(l) => (&l.graph, l.vertex_weights.clone()),
            None => (g, vec![1.0; n]),
        };

        let mut assignment = best_initial_partition(
            coarsest,
            &coarsest_weights,
            k,
            self.options.imbalance,
            self.options.refine_passes,
            self.options.seed,
        );
        kway_refine(
            coarsest,
            &coarsest_weights,
            &mut assignment,
            k,
            self.options.imbalance,
            self.options.refine_passes,
            self.options.seed ^ 1,
        );

        // Uncoarsen with refinement at each level.
        for level_idx in (0..levels.len()).rev() {
            let (fine_graph, fine_weights): (&UnGraph, Vec<f64>) = if level_idx == 0 {
                (g, vec![1.0; n])
            } else {
                (
                    &levels[level_idx - 1].graph,
                    levels[level_idx - 1].vertex_weights.clone(),
                )
            };
            let map = &levels[level_idx].map;
            assignment = crate::coarsen::lift_assignment(&assignment, map);
            kway_refine(
                fine_graph,
                &fine_weights,
                &mut assignment,
                k,
                self.options.imbalance,
                self.options.refine_passes,
                self.options.seed ^ (level_idx as u64 + 2),
            );
        }
        Ok(Clustering::from_assignments(&assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_ring(c: usize, k: usize) -> UnGraph {
        let mut edges = Vec::new();
        for ci in 0..c {
            let base = ci * k;
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j));
                }
            }
            edges.push((base + k - 1, (base + k) % (c * k)));
        }
        UnGraph::from_edges(c * k, &edges).unwrap()
    }

    #[test]
    fn produces_exactly_k_balanced_parts() {
        let g = clique_ring(8, 6);
        let c = MetisLike::with_k(8).cluster_ungraph(&g).unwrap();
        assert_eq!(c.n_clusters(), 8);
        let sizes = c.sizes();
        for &s in &sizes {
            assert!((3..=9).contains(&s), "sizes {sizes:?}");
        }
    }

    #[test]
    fn cuts_cliques_cleanly() {
        let g = clique_ring(4, 8);
        let c = MetisLike::with_k(4).cluster_ungraph(&g).unwrap();
        // Edge cut should be exactly the 4 bridge edges.
        let cut = edge_cut(&g, c.assignments());
        assert_eq!(cut, 4.0, "cut = {cut}");
    }

    #[test]
    fn refinement_reduces_cut() {
        let g = clique_ring(4, 6);
        // Deliberately bad partition: stripes across cliques.
        let mut assignment: Vec<u32> = (0..24).map(|i| (i % 4) as u32).collect();
        let before = edge_cut(&g, &assignment);
        kway_refine(&g, &[1.0; 24], &mut assignment, 4, 0.3, 8, 3);
        let after = edge_cut(&g, &assignment);
        assert!(after < before, "cut {before} -> {after}");
    }

    #[test]
    fn region_growing_covers_all_nodes() {
        let g = clique_ring(3, 5);
        let a = region_growing_partition(&g, &[1.0; 15], 3, 1);
        assert!(a.iter().all(|&x| x < 3));
        for part in 0..3u32 {
            assert!(a.contains(&part), "part {part} empty");
        }
    }

    #[test]
    fn multilevel_on_larger_graph() {
        let g = clique_ring(32, 8); // 256 nodes
        let c = MetisLike::with_k(32).cluster_ungraph(&g).unwrap();
        assert_eq!(c.n_clusters(), 32);
        // Most cliques should be intact.
        let mut intact = 0;
        for clique in 0..32 {
            let first = c.cluster_of(clique * 8);
            if (0..8).all(|i| c.cluster_of(clique * 8 + i) == first) {
                intact += 1;
            }
        }
        assert!(intact >= 24, "only {intact}/32 cliques intact");
    }

    #[test]
    fn k_equal_n_gives_singletons() {
        let g = clique_ring(2, 3);
        let c = MetisLike::with_k(6).cluster_ungraph(&g).unwrap();
        assert_eq!(c.n_clusters(), 6);
    }

    #[test]
    fn rejects_k_zero_and_handles_empty() {
        let g = clique_ring(2, 3);
        assert!(MetisLike::with_k(0).cluster_ungraph(&g).is_err());
        let empty = UnGraph::from_edges(0, &[]).unwrap();
        let c = MetisLike::with_k(3).cluster_ungraph(&empty).unwrap();
        assert_eq!(c.n_nodes(), 0);
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = UnGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let c = MetisLike::with_k(3).cluster_ungraph(&g).unwrap();
        assert_eq!(c.n_clusters(), 3);
    }

    #[test]
    fn edge_cut_hand_computed() {
        let g = UnGraph::from_weighted_edges(4, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)]).unwrap();
        let cut = edge_cut(&g, &[0, 0, 1, 1]);
        assert_eq!(cut, 3.0);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0.0);
    }
}
