//! Small deterministic graphs used throughout tests, examples and docs.

use crate::DiGraph;

/// The idealized graph of the paper's **Figure 1**.
///
/// Nodes 4 and 5 form a natural cluster even though they do not link to one
/// another: they point to the same nodes (6, 7, 8) and are pointed to by the
/// same nodes (1, 2, 3). Node 0 plays the "genus page" role from the
/// Guzmania case study (§5.7): it points at both 4 and 5 and is pointed back
/// at by both.
///
/// A low-directed-normalized-cut objective scores the cluster `{4, 5}`
/// poorly (a random walk leaves it in one step with high probability), while
/// in-/out-link-similarity symmetrizations connect 4 and 5 strongly.
#[expect(
    clippy::expect_used,
    reason = "static, compile-time-known edge lists and label counts"
)]
pub fn figure1_graph() -> DiGraph {
    let edges = [
        // common in-link sources
        (1, 4),
        (1, 5),
        (2, 4),
        (2, 5),
        (3, 4),
        (3, 5),
        // common out-link targets
        (4, 6),
        (4, 7),
        (4, 8),
        (5, 6),
        (5, 7),
        (5, 8),
        // the "genus" node: mutual links with both cluster members
        (0, 4),
        (0, 5),
        (4, 0),
        (5, 0),
    ];
    DiGraph::from_edges(9, &edges).expect("static edge list is valid")
}

/// A labeled miniature of the Wikipedia **Guzmania** case study (§5.7,
/// Figure 10): plant-species pages that never link to one another but share
/// all their in-links and out-links, plus unrelated filler pages.
///
/// Layout: nodes 0..n_species are species pages; then "Guzmania" (genus),
/// "Poales" (order), "Ecuador", "Bromeliaceae"; then a hub ("Plant") that
/// everything links to; then a few unrelated pages forming a chain.
#[expect(
    clippy::expect_used,
    reason = "static, compile-time-known edge lists and label counts"
)]
pub fn guzmania_graph(n_species: usize) -> DiGraph {
    assert!(n_species >= 2, "need at least two species");
    let genus = n_species;
    let poales = n_species + 1;
    let ecuador = n_species + 2;
    let brome = n_species + 3;
    let hub = n_species + 4;
    let filler0 = n_species + 5;
    let n = n_species + 8;
    let mut edges = Vec::new();
    for s in 0..n_species {
        // Every species points at its genus, order, country, family and the
        // generic hub; the genus points back at every species.
        for &t in &[genus, poales, ecuador, brome, hub] {
            edges.push((s, t));
        }
        edges.push((genus, s));
    }
    // Taxonomy backbone.
    edges.push((genus, brome));
    edges.push((brome, poales));
    edges.push((poales, hub));
    edges.push((ecuador, hub));
    // Unrelated filler chain that also cites the hub.
    for f in filler0..n - 1 {
        edges.push((f, f + 1));
        edges.push((f, hub));
    }
    edges.push((n - 1, hub));
    let mut labels: Vec<String> = (0..n_species)
        .map(|i| format!("Guzmania sp. {i}"))
        .collect();
    labels.extend(
        ["Guzmania", "Poales", "Ecuador", "Bromeliaceae", "Plant"]
            .iter()
            .map(|s| s.to_string()),
    );
    for i in 0..3 {
        labels.push(format!("Unrelated {i}"));
    }
    DiGraph::from_edges(n, &edges)
        .expect("static edge list is valid")
        .with_labels(labels)
        .expect("label count matches")
}

/// Two directed cliques of size `k` joined by a single edge; the classic
/// well-separated-clusters sanity check. Nodes `0..k` form clique A,
/// `k..2k` clique B, with one bridge edge `k-1 → k`.
#[expect(
    clippy::expect_used,
    reason = "static, compile-time-known edge lists and label counts"
)]
pub fn two_cliques(k: usize) -> DiGraph {
    assert!(k >= 2);
    let mut edges = Vec::new();
    for base in [0, k] {
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    edges.push((base + i, base + j));
                }
            }
        }
    }
    edges.push((k - 1, k));
    DiGraph::from_edges(2 * k, &edges).expect("static edge list is valid")
}

/// Directed cycle on `n` nodes.
#[expect(
    clippy::expect_used,
    reason = "static, compile-time-known edge lists and label counts"
)]
pub fn cycle_graph(n: usize) -> DiGraph {
    assert!(n >= 2);
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    DiGraph::from_edges(n, &edges).expect("static edge list is valid")
}

/// Star: nodes `1..n` all point at node 0.
#[expect(
    clippy::expect_used,
    reason = "static, compile-time-known edge lists and label counts"
)]
pub fn star_graph(n: usize) -> DiGraph {
    assert!(n >= 2);
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (i, 0)).collect();
    DiGraph::from_edges(n, &edges).expect("static edge list is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percent_symmetric_links;

    #[test]
    fn figure1_shape() {
        let g = figure1_graph();
        assert_eq!(g.n_nodes(), 9);
        assert_eq!(g.n_edges(), 16);
        // The defining property: 4 and 5 do NOT link to each other...
        assert!(!g.has_edge(4, 5));
        assert!(!g.has_edge(5, 4));
        // ...but share in-links and out-links.
        for s in 1..=3 {
            assert!(g.has_edge(s, 4) && g.has_edge(s, 5));
        }
        for t in 6..=8 {
            assert!(g.has_edge(4, t) && g.has_edge(5, t));
        }
        // Mutual link with the genus node.
        assert!(g.has_edge(0, 4) && g.has_edge(4, 0));
    }

    #[test]
    fn guzmania_species_share_links_but_not_each_other() {
        let g = guzmania_graph(5);
        assert_eq!(g.label(0), "Guzmania sp. 0");
        assert_eq!(g.label(5), "Guzmania");
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert!(!g.has_edge(a, b), "species {a} links species {b}");
                }
            }
            // Every species has a mutual link with the genus.
            assert!(g.has_edge(a, 5) && g.has_edge(5, a));
        }
    }

    #[test]
    fn two_cliques_shape() {
        let g = two_cliques(3);
        assert_eq!(g.n_nodes(), 6);
        assert_eq!(g.n_edges(), 2 * 6 + 1);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
        // Cliques are fully reciprocal except for the bridge edge.
        let ps = percent_symmetric_links(&g);
        assert!(ps > 90.0 && ps < 100.0);
    }

    #[test]
    fn cycle_and_star() {
        let c = cycle_graph(5);
        assert_eq!(c.n_edges(), 5);
        assert!(c.has_edge(4, 0));
        let s = star_graph(4);
        assert_eq!(s.n_edges(), 3);
        assert_eq!(s.in_degrees()[0], 3);
    }
}
