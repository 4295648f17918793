//! Bibliometric symmetrization (§3.3): `U = AAᵀ + AᵀA`.
//!
//! `AAᵀ` is Kessler's bibliographic-coupling matrix — entry `(i, j)` counts
//! the out-links `i` and `j` share — and `AᵀA` is Small's co-citation matrix
//! counting shared in-links. Their sum connects exactly the node pairs with
//! shared links, fixing the Figure-1 drawback of `A + Aᵀ`. The paper notes
//! the combined `AAᵀ + AᵀA` had not been used for clustering before.
//!
//! Following the paper, `A := A + I` is applied first (configurable) so that
//! original edges survive: with the identity added, `i → j` contributes
//! `A(i,·)·A(j,·) ≥ A(i,j)·A(j,j) = A(i,j)` to the coupling count.
//!
//! On power-law graphs hub nodes make this matrix both dense and
//! hub-dominated (§3.4/§3.5) — the motivation for degree discounting.
//! Table 4's p = 0 row reads it the other way round: Bibliometric *is*
//! Degree-discounted with α = β = 0 (and `+I`), and it is built by that
//! one factor build ([`BibliometricOptions::as_degree_discounted`]).

use crate::degree_discounted::symmetrize_discounted;
use crate::{DegreeDiscountedOptions, DiscountExponent, Result, SymmetrizedGraph, Symmetrizer};
use symclust_graph::DiGraph;
use symclust_obs::MetricsRegistry;
use symclust_sparse::{CancelToken, Tuning};

/// Options for [`Bibliometric`].
#[derive(Debug, Clone)]
pub struct BibliometricOptions {
    /// Apply `A := A + I` before multiplying (paper §3.3). Default true.
    pub add_identity: bool,
    /// Prune threshold applied to the fused sum `AAᵀ + AᵀA` during the
    /// multiply (Table 2 uses e.g. 25 for Wikipedia, 0 for Cora).
    /// Default 0.
    pub threshold: f64,
    /// Memory budget as a cap on the stored nnz of the similarity matrix.
    /// When the Gustavson upper bound exceeds it, the product degrades to
    /// an adaptively thresholded multiply instead of aborting; the result
    /// is flagged [`SymmetrizedGraph::degraded`]. Default `None` (exact).
    pub nnz_budget: Option<usize>,
    /// How the SpGEMM kernel runs (threads, accumulator, panel plan).
    /// Never changes the output; the default is [`Tuning::from_env`].
    pub tuning: Tuning,
}

impl Default for BibliometricOptions {
    fn default() -> Self {
        BibliometricOptions {
            add_identity: true,
            threshold: 0.0,
            nnz_budget: None,
            tuning: Tuning::default(),
        }
    }
}

impl BibliometricOptions {
    /// The same similarity as Degree-discounted options: α = β =
    /// `Power(0.0)`, whose factors are exactly 1, so `X = A (+ I)` and
    /// `Y = Xᵀ` bit for bit.
    pub fn as_degree_discounted(&self) -> DegreeDiscountedOptions {
        DegreeDiscountedOptions {
            alpha: DiscountExponent::Power(0.0),
            beta: DiscountExponent::Power(0.0),
            threshold: self.threshold,
            add_identity: self.add_identity,
            nnz_budget: self.nnz_budget,
            tuning: self.tuning.clone(),
        }
    }
}

/// `U = AAᵀ + AᵀA` (bibliographic coupling + co-citation).
#[derive(Debug, Clone, Default)]
pub struct Bibliometric {
    /// Execution options.
    pub options: BibliometricOptions,
}

impl Bibliometric {
    /// Creates the symmetrizer with a prune threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        Bibliometric {
            options: BibliometricOptions {
                threshold,
                ..Default::default()
            },
        }
    }
}

impl Symmetrizer for Bibliometric {
    fn name(&self) -> String {
        "Bibliometric".to_string()
    }

    fn symmetrize_observed(
        &self,
        g: &DiGraph,
        token: &CancelToken,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<SymmetrizedGraph> {
        let opts = self.options.as_degree_discounted();
        symmetrize_discounted(g, &opts, self.name(), token, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{figure1_graph, star_graph};

    fn no_identity() -> Bibliometric {
        Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                ..Default::default()
            },
        }
    }

    #[test]
    fn kernel_thread_default_is_one_value_everywhere() {
        // Serial-vs-parallel is chosen by `Tuning::threads` alone, so the
        // three defaults must agree — under any `SYMCLUST_*`.
        let kernel = symclust_sparse::SpgemmOptions::default().tuning;
        assert_eq!(BibliometricOptions::default().tuning, kernel);
        assert_eq!(crate::DegreeDiscountedOptions::default().tuning, kernel);
    }

    #[test]
    fn connects_figure1_pair() {
        let g = figure1_graph();
        let s = no_identity().symmetrize(&g).unwrap();
        // Nodes 4 and 5 share 3 out-links (6,7,8) + node 0, and 3 in-links
        // (1,2,3) + node 0: coupling 4, co-citation 4 → weight 8.
        assert_eq!(s.adjacency().get(4, 5), 8.0);
    }

    #[test]
    fn counts_match_definitions() {
        // A: 0->2, 1->2 ; coupling(0,1) = 1 shared out-link, cocitation = 0.
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let s = no_identity().symmetrize(&g).unwrap();
        assert_eq!(s.adjacency().get(0, 1), 1.0);
        // Node 2 is commonly pointed-to: cocitation(2, x) = 0 for others...
        assert_eq!(s.adjacency().get(0, 2), 0.0);
    }

    #[test]
    fn add_identity_preserves_original_edges() {
        let g = figure1_graph();
        let without = no_identity().symmetrize(&g).unwrap();
        // Edge 1→4 exists but 1 and 4 share no links: absent without +I.
        assert_eq!(without.adjacency().get(1, 4), 0.0);
        let with = Bibliometric::default().symmetrize(&g).unwrap();
        assert!(with.adjacency().get(1, 4) > 0.0, "original edge lost");
    }

    #[test]
    fn output_is_symmetric() {
        let g = figure1_graph();
        let s = Bibliometric::default().symmetrize(&g).unwrap();
        assert!(s.adjacency().is_symmetric(1e-12));
    }

    #[test]
    fn hub_creates_dense_rows() {
        // Star: all leaves point at 0 → co-citation connects every leaf
        // pair: the quadratic blow-up the paper warns about.
        let g = star_graph(10);
        let s = no_identity().symmetrize(&g).unwrap();
        for i in 1..10 {
            for j in (i + 1)..10 {
                assert_eq!(s.adjacency().get(i, j), 1.0);
            }
        }
        // 9 leaves, all pairs connected: 36 undirected edges.
        assert_eq!(s.n_edges(), 36);
    }

    #[test]
    fn threshold_prunes_weak_pairs() {
        let g = figure1_graph();
        let s = Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                threshold: 3.0,
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        // (4,5) has weight 8, survives; weaker pairs pruned.
        assert_eq!(s.adjacency().get(4, 5), 8.0);
        // (1,2) share out-links {4,5} → weight 2 < 3, pruned.
        assert_eq!(s.adjacency().get(1, 2), 0.0);
        assert_eq!(s.threshold(), 3.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = figure1_graph();
        let serial = Bibliometric::default().symmetrize(&g).unwrap();
        let parallel = Bibliometric {
            options: BibliometricOptions {
                tuning: Tuning {
                    threads: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert_eq!(serial.adjacency(), parallel.adjacency());
    }

    #[test]
    fn generous_budget_is_exact_and_not_degraded() {
        let g = figure1_graph();
        let exact = Bibliometric::default().symmetrize(&g).unwrap();
        let budgeted = Bibliometric {
            options: BibliometricOptions {
                nnz_budget: Some(1_000_000),
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert!(!budgeted.degraded());
        assert_eq!(exact.adjacency(), budgeted.adjacency());
    }

    #[test]
    fn tight_budget_degrades_on_hub_graph() {
        // Star: co-citation densifies into all leaf pairs; a tiny budget
        // must force the thresholded fallback rather than abort.
        let g = star_graph(40);
        let s = Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                nnz_budget: Some(20),
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert!(s.degraded(), "tiny budget on a hub graph must degrade");
        assert!(s.adjacency().is_symmetric(1e-12));
        // Deterministic: rerunning yields the identical graph.
        let again = Bibliometric {
            options: BibliometricOptions {
                add_identity: false,
                nnz_budget: Some(20),
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert_eq!(s.adjacency(), again.adjacency());
    }

    #[test]
    fn diagonal_is_dropped() {
        let g = figure1_graph();
        let s = Bibliometric::default().symmetrize(&g).unwrap();
        for i in 0..g.n_nodes() {
            assert_eq!(s.adjacency().get(i, i), 0.0);
        }
    }
}
