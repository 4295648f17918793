//! Degree-discounted similarity for bipartite graphs and multipartite
//! chains.
//!
//! The paper's conclusion names "extending our approaches to bi-partite and
//! multi-partite graphs" as a promising avenue; this module implements that
//! extension. A bipartite graph (users × items, papers × venues, documents
//! × terms) has an `n × m` biadjacency matrix `B` relating *left* nodes to
//! *right* nodes. Two left nodes are similar when they connect to the same
//! right nodes — exactly the bibliographic-coupling intuition — and hub
//! right-nodes (items everyone buys, terms every document contains) inflate
//! raw co-occurrence counts exactly like hub pages inflate `AAᵀ`.
//!
//! The degree-discounted left-similarity therefore mirrors Eq. 6:
//!
//! ```text
//! S_left  = Dl^{-α} · B · Dr^{-β} · Bᵀ · Dl^{-α}
//! S_right = Dr^{-β} · Bᵀ · Dl^{-α} · B · Dr^{-β}
//! ```
//!
//! with `Dl`, `Dr` the left/right degree matrices. `α = β = 0.5` again
//! makes this a cosine-style normalization.
//!
//! A chain-structured multi-partite graph has layers `0..=L` with a
//! biadjacency matrix `Bᵢ` relating layer `i` to layer `i+1` (users → items
//! → tags). Two layer-0 nodes are similar when the meta-path through the
//! chain lands them on the same terminal-layer nodes, every traversed node
//! discounted by (a power of) its degree so blockbuster items and umbrella
//! tags contribute little:
//!
//! ```text
//! X = D₀⁻ᵅ · B₀ · D₁⁻ᵝ · B₁ · ... · B_{L-1} · D_L^{-β/2}
//! S = X · Xᵀ
//! ```
//!
//! which is the bipartite projection for a single link. Both are
//! constructors of [`SimilarityFactors`]; the result is an undirected
//! similarity graph over one side, ready for any stage-2 clusterer.

use crate::degree_discounted::{DiscountExponent, SimilarityFactors};
use crate::{Result, SymmetrizeError, SymmetrizedGraph};
use std::time::Instant;
use symclust_graph::UnGraph;
use symclust_sparse::{CsrMatrix, Tuning};

/// A bipartite graph with `n_left` left nodes and `n_right` right nodes.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    biadjacency: CsrMatrix,
}

impl BipartiteGraph {
    /// Wraps an `n_left × n_right` biadjacency matrix.
    pub fn from_biadjacency(biadjacency: CsrMatrix) -> BipartiteGraph {
        BipartiteGraph { biadjacency }
    }

    /// Builds from `(left, right)` edges.
    pub fn from_edges(
        n_left: usize,
        n_right: usize,
        edges: &[(usize, usize)],
    ) -> Result<BipartiteGraph> {
        let mut coo = symclust_sparse::CooMatrix::with_capacity(n_left, n_right, edges.len());
        for &(l, r) in edges {
            coo.push(l, r, 1.0).map_err(SymmetrizeError::Sparse)?;
        }
        Ok(BipartiteGraph {
            biadjacency: coo.to_csr(),
        })
    }

    /// Number of left nodes.
    pub fn n_left(&self) -> usize {
        self.biadjacency.n_rows()
    }

    /// Number of right nodes.
    pub fn n_right(&self) -> usize {
        self.biadjacency.n_cols()
    }

    /// Number of bipartite edges.
    pub fn n_edges(&self) -> usize {
        self.biadjacency.nnz()
    }

    /// The biadjacency matrix.
    pub fn biadjacency(&self) -> &CsrMatrix {
        &self.biadjacency
    }
}

/// Which side of the bipartite graph to project the similarity onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BipartiteSide {
    /// Similarity among left (row) nodes.
    Left,
    /// Similarity among right (column) nodes.
    Right,
}

/// Options for [`bipartite_degree_discounted`] and
/// [`chain_degree_discounted`].
#[derive(Debug, Clone, Copy)]
pub struct BipartiteOptions {
    /// Discount on the projected side's own degrees (α).
    pub own_discount: DiscountExponent,
    /// Discount on the degrees of every layer the path passes through:
    /// the shared-neighbor side, or a chain's later layers (β).
    pub shared_discount: DiscountExponent,
    /// Prune threshold applied during the product.
    pub threshold: f64,
}

impl Default for BipartiteOptions {
    fn default() -> Self {
        BipartiteOptions {
            own_discount: DiscountExponent::Power(0.5),
            shared_discount: DiscountExponent::Power(0.5),
            threshold: 0.0,
        }
    }
}

/// Options for [`chain_degree_discounted`]: a bipartite graph is a chain
/// of one link.
pub type ChainOptions = BipartiteOptions;

/// A chain of biadjacency matrices: `links[i]` relates layer `i` (rows) to
/// layer `i+1` (columns).
#[derive(Debug, Clone)]
pub struct MultipartiteChain {
    links: Vec<CsrMatrix>,
}

impl MultipartiteChain {
    /// Builds a chain, validating that consecutive dimensions agree.
    pub fn new(links: Vec<CsrMatrix>) -> Result<MultipartiteChain> {
        if links.is_empty() {
            return Err(SymmetrizeError::InvalidConfig(
                "chain needs at least one link".into(),
            ));
        }
        for (i, pair) in links.windows(2).enumerate() {
            if pair[0].n_cols() != pair[1].n_rows() {
                return Err(SymmetrizeError::InvalidConfig(format!(
                    "link {i} has {} columns but link {} has {} rows",
                    pair[0].n_cols(),
                    i + 1,
                    pair[1].n_rows()
                )));
            }
        }
        Ok(MultipartiteChain { links })
    }

    /// The biadjacency matrices.
    pub fn links(&self) -> &[CsrMatrix] {
        &self.links
    }
}

/// The thresholded similarity graph of one-term factors.
fn project(factors: SimilarityFactors, threshold: f64) -> Result<UnGraph> {
    let (s, _) = factors.full_with(threshold, None, Tuning::default(), None, None)?;
    Ok(UnGraph::from_symmetric_unchecked(s))
}

/// Computes the degree-discounted similarity graph over one side of a
/// bipartite graph; its nodes are that side's.
pub fn bipartite_degree_discounted(
    g: &BipartiteGraph,
    side: BipartiteSide,
    opts: &BipartiteOptions,
) -> Result<SymmetrizedGraph> {
    let start = Instant::now();
    let graph = project(SimilarityFactors::bipartite(g, side, opts)?, opts.threshold)?;
    Ok(SymmetrizedGraph::new(
        graph,
        "Bipartite degree-discounted".to_string(),
        opts.threshold,
        start.elapsed(),
    ))
}

/// Computes the degree-discounted meta-path similarity among layer-0 nodes
/// of a multipartite chain.
pub fn chain_degree_discounted(chain: &MultipartiteChain, opts: &ChainOptions) -> Result<UnGraph> {
    project(SimilarityFactors::chain(chain, opts)?, opts.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_sparse::CooMatrix;

    /// Users 0,1 buy items 0,1; users 2,3 buy items 2,3; everyone buys the
    /// hub item 4.
    fn two_communities_with_hub() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            4,
            5,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
                (0, 4),
                (1, 4),
                (2, 4),
                (3, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions() {
        let g = two_communities_with_hub();
        assert_eq!(g.n_left(), 4);
        assert_eq!(g.n_right(), 5);
        assert_eq!(g.n_edges(), 12);
    }

    #[test]
    fn left_projection_is_symmetric_and_discounts_hub() {
        let g = two_communities_with_hub();
        let p = bipartite_degree_discounted(&g, BipartiteSide::Left, &BipartiteOptions::default())
            .unwrap();
        let s = p.graph().adjacency();
        assert!(s.is_symmetric(1e-12));
        // Within-community similarity: two shared specific items + the hub.
        // Cross-community: hub only. The former must dominate.
        assert!(
            s.get(0, 1) > 2.0 * s.get(0, 2),
            "within {} vs cross {}",
            s.get(0, 1),
            s.get(0, 2)
        );
    }

    #[test]
    fn undiscounted_projection_counts_shared_neighbors() {
        let g = two_communities_with_hub();
        let opts = BipartiteOptions {
            own_discount: DiscountExponent::Power(0.0),
            shared_discount: DiscountExponent::Power(0.0),
            threshold: 0.0,
        };
        let p = bipartite_degree_discounted(&g, BipartiteSide::Left, &opts).unwrap();
        // Users 0,1 share items {0,1,4} → count 3; users 0,2 share {4} → 1.
        assert_eq!(p.graph().adjacency().get(0, 1), 3.0);
        assert_eq!(p.graph().adjacency().get(0, 2), 1.0);
    }

    #[test]
    fn right_projection_clusters_items() {
        let g = two_communities_with_hub();
        let p = bipartite_degree_discounted(&g, BipartiteSide::Right, &BipartiteOptions::default())
            .unwrap();
        let s = p.graph().adjacency();
        assert_eq!(p.graph().n_nodes(), 5);
        // Items 0 and 1 share buyers {0,1}: strongly similar. Items 0 and 2
        // share none directly (only via hub item? no — right projection
        // counts shared LEFT neighbors; 0 and 2 have disjoint buyers).
        assert!(s.get(0, 1) > 0.0);
        assert_eq!(s.get(0, 2), 0.0);
    }

    #[test]
    fn threshold_prunes_hub_only_pairs() {
        let g = two_communities_with_hub();
        let full =
            bipartite_degree_discounted(&g, BipartiteSide::Left, &BipartiteOptions::default())
                .unwrap();
        let hub_only = full.graph().adjacency().get(0, 2);
        let within = full.graph().adjacency().get(0, 1);
        let mid = (hub_only + within) / 2.0;
        let pruned = bipartite_degree_discounted(
            &g,
            BipartiteSide::Left,
            &BipartiteOptions {
                threshold: mid,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(pruned.graph().adjacency().get(0, 2), 0.0);
        assert!(pruned.graph().adjacency().get(0, 1) > 0.0);
        assert_eq!(pruned.threshold(), mid);
    }

    #[test]
    fn projection_feeds_clustering() {
        // End-to-end: project then verify the two planted communities are
        // separable by connected components after hub pruning.
        let g = two_communities_with_hub();
        let p = bipartite_degree_discounted(
            &g,
            BipartiteSide::Left,
            &BipartiteOptions {
                threshold: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        let (labels, count) = symclust_graph::stats::connected_components(p.graph());
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        assert!(BipartiteGraph::from_edges(2, 2, &[(0, 5)]).is_err());
    }

    fn link(rows: usize, cols: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        CooMatrix::from_triplets(rows, cols, edges.iter().map(|&(r, c)| (r, c, 1.0)))
            .unwrap()
            .to_csr()
    }

    #[test]
    fn single_link_chain_matches_bipartite_projection() {
        let edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (0, 3)];
        let b = link(4, 4, &edges);
        let chain = MultipartiteChain::new(vec![b.clone()]).unwrap();
        let s = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        let bip = bipartite_degree_discounted(
            &BipartiteGraph::from_biadjacency(b),
            BipartiteSide::Left,
            &BipartiteOptions::default(),
        )
        .unwrap();
        assert_eq!(s.adjacency(), bip.adjacency());
    }

    #[test]
    fn three_layer_chain_links_users_through_tags() {
        // Users 0,1 buy items 0,1; users 2,3 buy items 2,3.
        // Items 0,1 share tag 0; items 2,3 share tag 1.
        let users_items = link(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        );
        let items_tags = link(4, 2, &[(0, 0), (1, 0), (2, 1), (3, 1)]);
        let chain = MultipartiteChain::new(vec![users_items, items_tags]).unwrap();
        let s = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        // Users 0,1 reach tag 0; users 2,3 reach tag 1: within-community
        // similarity positive, cross-community zero.
        assert!(s.weight(0, 1) > 0.0);
        assert!(s.weight(2, 3) > 0.0);
        assert_eq!(s.weight(0, 2), 0.0);
        assert_eq!(s.weight(1, 3), 0.0);
    }

    #[test]
    fn umbrella_tags_are_discounted() {
        // All four items share umbrella tag 0; items 0,1 also share the
        // niche tag 1 and items 2,3 the niche tag 2.
        let users_items = link(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let items_tags = link(
            4,
            3,
            &[
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (0, 1),
                (1, 1),
                (2, 2),
                (3, 2),
            ],
        );
        let chain = MultipartiteChain::new(vec![users_items, items_tags]).unwrap();
        let s = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        // Within-pair similarity (via umbrella + niche) must exceed
        // cross-pair similarity (umbrella only).
        assert!(
            s.weight(0, 1) > s.weight(0, 2),
            "within {} vs cross {}",
            s.weight(0, 1),
            s.weight(0, 2)
        );
        // With no discount the umbrella tag contributes as much as a niche.
        let raw = chain_degree_discounted(
            &chain,
            &ChainOptions {
                own_discount: DiscountExponent::Power(0.0),
                shared_discount: DiscountExponent::Power(0.0),
                threshold: 0.0,
            },
        )
        .unwrap();
        let ratio_disc = s.weight(0, 1) / s.weight(0, 2);
        let ratio_raw = raw.weight(0, 1) / raw.weight(0, 2);
        assert!(
            ratio_disc > ratio_raw,
            "discounting should sharpen the contrast: {ratio_disc} vs {ratio_raw}"
        );
    }

    #[test]
    fn rejects_mismatched_chain() {
        let a = link(2, 3, &[(0, 0)]);
        let b = link(4, 2, &[(0, 0)]);
        assert!(MultipartiteChain::new(vec![a, b]).is_err());
        assert!(MultipartiteChain::new(vec![]).is_err());
    }

    #[test]
    fn threshold_prunes() {
        let users_items = link(3, 2, &[(0, 0), (1, 0), (2, 1)]);
        let chain = MultipartiteChain::new(vec![users_items]).unwrap();
        let full = chain_degree_discounted(&chain, &ChainOptions::default()).unwrap();
        assert!(full.weight(0, 1) > 0.0);
        let pruned = chain_degree_discounted(
            &chain,
            &ChainOptions {
                threshold: full.weight(0, 1) * 1.01,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(pruned.weight(0, 1), 0.0);
    }
}
