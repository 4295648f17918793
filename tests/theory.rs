//! Tests of the mathematical identities the paper's framework rests on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symclust::core::{
    Bibliometric, BibliometricOptions, DegreeDiscounted, RandomWalk, Symmetrizer,
};
use symclust::eval::{directed_normalized_cut, normalized_cut};
use symclust::graph::DiGraph;

/// A doubly-stochastic-after-normalization digraph: every node has
/// out-degree and in-degree exactly `d` (union of `d` circulant shifts),
/// so the uniform distribution is stationary for the walk both with and
/// without teleportation.
fn circulant(n: usize, shifts: &[usize]) -> DiGraph {
    let mut edges = Vec::new();
    for i in 0..n {
        for &s in shifts {
            edges.push((i, (i + s) % n));
        }
    }
    DiGraph::from_edges(n, &edges).expect("valid edges")
}

/// Gleich's theorem (§3.2 of the paper): for `U = (ΠP + PᵀΠ)/2`, the
/// undirected normalized cut of any vertex subset in `U` equals the
/// directed normalized cut (Eq. 3) of the same subset in `G`, whenever `π`
/// is stationary for `P`.
#[test]
fn gleich_equivalence_of_random_walk_symmetrization() {
    let g = circulant(24, &[1, 3, 7]);
    let sym = RandomWalk::default().symmetrize(&g).expect("symmetrize");
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        // Random nonempty proper subset as a 2-clustering.
        let assignment: Vec<u32> = (0..24).map(|_| rng.gen_range(0..2u32)).collect();
        if assignment.iter().all(|&a| a == 0) || assignment.iter().all(|&a| a == 1) {
            continue;
        }
        let undirected = normalized_cut(sym.graph(), &assignment);
        let directed = directed_normalized_cut(&g, &assignment, 0.05).unwrap();
        assert!(
            (undirected - directed).abs() < 1e-6,
            "NCut_U = {undirected} vs NCut_dir = {directed}"
        );
    }
}

/// Kessler/Small counting semantics (§2.2): on an unweighted graph,
/// `AAᵀ(i,j)` is the number of common out-neighbors and `AᵀA(i,j)` the
/// number of common in-neighbors; the Bibliometric weight is their sum.
#[test]
fn bibliometric_counts_common_neighbors() {
    let mut rng = StdRng::seed_from_u64(17);
    let n = 40;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(0.1) {
                edges.push((u, v));
            }
        }
    }
    let g = DiGraph::from_edges(n, &edges).expect("valid edges");
    let sym = Bibliometric {
        options: BibliometricOptions {
            add_identity: false,
            ..Default::default()
        },
    }
    .symmetrize(&g)
    .expect("symmetrize");
    let a = g.adjacency();
    for i in 0..n {
        for j in (i + 1)..n {
            let common_out = (0..n)
                .filter(|&k| a.get(i, k) != 0.0 && a.get(j, k) != 0.0)
                .count();
            let common_in = (0..n)
                .filter(|&k| a.get(k, i) != 0.0 && a.get(k, j) != 0.0)
                .count();
            assert_eq!(
                sym.adjacency().get(i, j),
                (common_out + common_in) as f64,
                "pair ({i},{j})"
            );
        }
    }
}

/// Eq. 6–8: the Degree-discounted weight computed by the factored SpGEMM
/// path matches the definition evaluated directly.
#[test]
fn degree_discounted_matches_definition() {
    let mut rng = StdRng::seed_from_u64(23);
    let n = 30;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(0.12) {
                edges.push((u, v));
            }
        }
    }
    let g = DiGraph::from_edges(n, &edges).expect("valid edges");
    let sym = DegreeDiscounted::default()
        .symmetrize(&g)
        .expect("symmetrize");
    let a = g.adjacency();
    let out_deg: Vec<f64> = g.weighted_out_degrees();
    let in_deg: Vec<f64> = g.weighted_in_degrees();
    let disc = |d: f64| if d > 0.0 { d.powf(-0.5) } else { 0.0 };
    for i in 0..n {
        for j in (i + 1)..n {
            let mut bd = 0.0;
            let mut cd = 0.0;
            for k in 0..n {
                bd += a.get(i, k) * a.get(j, k) * disc(in_deg[k]);
                cd += a.get(k, i) * a.get(k, j) * disc(out_deg[k]);
            }
            let expected =
                disc(out_deg[i]) * disc(out_deg[j]) * bd + disc(in_deg[i]) * disc(in_deg[j]) * cd;
            let got = sym.adjacency().get(i, j);
            assert!(
                (got - expected).abs() < 1e-9,
                "pair ({i},{j}): {got} vs {expected}"
            );
        }
    }
}

/// §3.2 also implies: the total edge weight of the random-walk
/// symmetrization equals the stationary probability mass on non-dangling
/// nodes (each walk step is counted once).
#[test]
fn random_walk_total_weight_is_walk_mass() {
    let g = circulant(15, &[1, 4]);
    let sym = RandomWalk::default().symmetrize(&g).expect("symmetrize");
    let total: f64 = sym.adjacency().values().iter().sum();
    assert!((total - 1.0).abs() < 1e-8, "total = {total}");
}

/// The directed normalized cut of the Figure-1 cluster {4,5} is high even
/// though the cluster is meaningful — the motivating observation of §2.1.1
/// — while its degree-discounted similarity is the strongest in the graph.
#[test]
fn figure1_high_ncut_but_high_similarity() {
    let g = symclust::graph::generators::figure1_graph();
    let mut assignment = vec![0u32; 9];
    assignment[4] = 1;
    assignment[5] = 1;
    let ncut_term = directed_normalized_cut(&g, &assignment, 0.05).unwrap();
    assert!(ncut_term > 0.9);
    let dd = DegreeDiscounted::default()
        .symmetrize(&g)
        .expect("symmetrize");
    let w45 = dd.adjacency().get(4, 5);
    let max_w = dd
        .adjacency()
        .values()
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    assert!(
        (w45 - max_w).abs() < 1e-12,
        "w(4,5) = {w45} is not the maximum {max_w}"
    );
}
