//! Degree-discounted symmetrization (§3.4) — the paper's novel contribution.
//!
//! The Bibliometric matrix over-credits hub nodes: sharing a link with a hub
//! is frequent, hence uninformative (Figure 3). The degree-discounted
//! similarity divides each shared-link contribution by (powers of) the
//! degrees involved:
//!
//! ```text
//! Bd(i,j) = Σ_k A(i,k)·A(j,k) / (Do(i)^α · Di(k)^β · Do(j)^α)
//! Cd(i,j) = Σ_k A(k,i)·A(k,j) / (Di(i)^β · Do(k)^α · Di(j)^β)
//! Ud      = Bd + Cd
//! ```
//!
//! i.e. `Ud = Do⁻ᵅADi⁻ᵝAᵀDo⁻ᵅ + Di⁻ᵝAᵀDo⁻ᵅADi⁻ᵝ` (Eq. 6–8). The paper
//! finds `α = β = 0.5` best — equivalent to L2-normalizing the rows/columns
//! before taking dot products, i.e. a cosine-like similarity — with `1.0`
//! an excessive penalty, `0.25` insufficient, and a logarithmic (IDF-style)
//! discount also insufficient (Table 4 reproduces this sweep).
//!
//! Both products are computed factored: `Bd = X·Xᵀ` with
//! `X = Do⁻ᵅ A Di^{-β/2}`, so the discounts are applied in O(nnz) and the
//! expensive multiply runs through the fused symmetric kernel
//! ([`symclust_sparse::spgemm_syrk_sum`]): both `X·Xᵀ` terms are
//! accumulated upper-triangle-only in a single pass, thresholded on the
//! fly, and mirrored — the full dense-ish similarity matrix (and both
//! intermediate products) are never materialized (§3.5).

use crate::{Result, SymmetrizeError, SymmetrizedGraph, Symmetrizer};
use std::time::Instant;
use symclust_graph::{DiGraph, UnGraph};
use symclust_obs::MetricsRegistry;
use symclust_sparse::{
    ops, spgemm_syrk_sum, CancelToken, CsrMatrix, SpgemmOptions, SyrkTerm, Tuning,
};

/// How a node's degree discounts its similarity contributions (Table 4 rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiscountExponent {
    /// Multiply by `degree^(-p)`; `p = 0` disables discounting, `p = 0.5`
    /// is the paper's recommendation.
    Power(f64),
    /// IDF-style logarithmic discount: multiply by `1 / (1 + ln(degree))`.
    Log,
}

impl DiscountExponent {
    /// The multiplicative discount factor for a node of degree `d`.
    ///
    /// `Power(0.0)` is the Table 4 `p = 0` row — no discounting at all —
    /// so it returns `d⁰ = 1` for *every* degree, including zero.
    /// Other exponents return 0 for zero-degree nodes: they contribute
    /// nothing anyway, and this keeps `0^(-p)` from producing infinities.
    pub fn factor(&self, d: f64) -> f64 {
        if let DiscountExponent::Power(p) = *self {
            if p == 0.0 {
                return 1.0;
            }
        }
        if d <= 0.0 {
            return 0.0;
        }
        match *self {
            DiscountExponent::Power(p) => d.powf(-p),
            DiscountExponent::Log => 1.0 / (1.0 + d.ln()),
        }
    }

    /// Human-readable form for experiment tables.
    pub fn label(&self) -> String {
        match *self {
            DiscountExponent::Power(p) => format!("{p}"),
            DiscountExponent::Log => "log".to_string(),
        }
    }
}

/// Options for [`DegreeDiscounted`].
#[derive(Debug, Clone)]
pub struct DegreeDiscountedOptions {
    /// Out-degree discount α (applied to the two endpoint nodes of the
    /// coupling term and the intermediate node of the co-citation term).
    pub alpha: DiscountExponent,
    /// In-degree discount β.
    pub beta: DiscountExponent,
    /// Prune threshold applied during each SpGEMM and to the final sum
    /// (Table 2 uses e.g. 0.01 for Wikipedia).
    pub threshold: f64,
    /// Apply `A := A + I` first (off by default; the paper describes the
    /// `+I` trick for Bibliometric).
    pub add_identity: bool,
    /// Memory budget as a cap on the stored nnz of the similarity matrix.
    /// When the Gustavson upper bound exceeds it, the product degrades to
    /// an adaptively thresholded multiply instead of aborting; the result
    /// is flagged [`SymmetrizedGraph::degraded`]. Default `None` (exact).
    pub nnz_budget: Option<usize>,
    /// How the SpGEMM kernel runs (threads, accumulator, panel plan).
    /// Never changes the output; the default is [`Tuning::from_env`].
    pub tuning: Tuning,
}

impl Default for DegreeDiscountedOptions {
    fn default() -> Self {
        DegreeDiscountedOptions {
            alpha: DiscountExponent::Power(0.5),
            beta: DiscountExponent::Power(0.5),
            threshold: 0.0,
            add_identity: false,
            nnz_budget: None,
            tuning: Tuning::default(),
        }
    }
}

/// `Ud = Do⁻ᵅADi⁻ᵝAᵀDo⁻ᵅ + Di⁻ᵝAᵀDo⁻ᵅADi⁻ᵝ` (Eq. 8).
///
/// ```
/// use symclust_core::{DegreeDiscounted, Symmetrizer};
/// use symclust_graph::generators::figure1_graph;
/// // Nodes 4 and 5 share all links but never link to each other...
/// let g = figure1_graph();
/// let sym = DegreeDiscounted::default().symmetrize(&g).unwrap();
/// // ...yet their degree-discounted similarity is positive.
/// assert!(sym.adjacency().get(4, 5) > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DegreeDiscounted {
    /// Execution options.
    pub options: DegreeDiscountedOptions,
}

impl DegreeDiscounted {
    /// Creates the symmetrizer with the paper-default α = β = 0.5 and the
    /// given prune threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        DegreeDiscounted {
            options: DegreeDiscountedOptions {
                threshold,
                ..Default::default()
            },
        }
    }

    /// Creates the symmetrizer with power-law exponents `alpha`, `beta`.
    pub fn with_exponents(alpha: f64, beta: f64) -> Self {
        DegreeDiscounted {
            options: DegreeDiscountedOptions {
                alpha: DiscountExponent::Power(alpha),
                beta: DiscountExponent::Power(beta),
                ..Default::default()
            },
        }
    }
}

/// The factored form of the degree-discounted similarity:
/// `Ud = X·Xᵀ + Y·Yᵀ` with `X = Rₒᵅ A √(Rᵢᵝ)` and `Y = Rᵢᵝ Aᵀ √(Rₒᵅ)`,
/// where `R` are diagonal discount matrices.
///
/// Exposing the factors lets callers compute *individual rows* of the
/// similarity matrix cheaply — the basis for the paper's sample-based
/// threshold selection (§5.3.1, [`crate::prune::select_threshold`]).
#[derive(Debug, Clone)]
pub struct SimilarityFactors {
    x: CsrMatrix,
    xt: CsrMatrix,
    y: CsrMatrix,
    yt: CsrMatrix,
}

impl SimilarityFactors {
    /// Builds the discount factors for a graph.
    pub fn build(g: &DiGraph, opts: &DegreeDiscountedOptions) -> Result<SimilarityFactors> {
        let a = if opts.add_identity {
            ops::add_diagonal(g.adjacency(), 1.0)?
        } else {
            g.adjacency().clone()
        };
        let out_deg = a.row_sums();
        let in_deg = a.col_sums();
        let f_out: Vec<f64> = out_deg.iter().map(|&d| opts.alpha.factor(d)).collect();
        let f_in: Vec<f64> = in_deg.iter().map(|&d| opts.beta.factor(d)).collect();
        let f_out_sqrt: Vec<f64> = f_out.iter().map(|f| f.sqrt()).collect();
        let f_in_sqrt: Vec<f64> = f_in.iter().map(|f| f.sqrt()).collect();

        // X = diag(f_out) · A · diag(sqrt(f_in))
        let mut x = a.clone();
        ops::scale_rows(&mut x, &f_out)?;
        ops::scale_cols(&mut x, &f_in_sqrt)?;
        // Y = diag(f_in) · Aᵀ · diag(sqrt(f_out))
        let mut y = ops::transpose(&a);
        ops::scale_rows(&mut y, &f_in)?;
        ops::scale_cols(&mut y, &f_out_sqrt)?;
        let xt = ops::transpose(&x);
        let yt = ops::transpose(&y);
        Ok(SimilarityFactors { x, xt, y, yt })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.x.n_rows()
    }

    /// Computes row `i` of `Ud` (diagonal excluded) as `(column, value)`
    /// pairs sorted by column. Cost: O(Σ over i's links of the linked
    /// node's degree) — independent of the rest of the matrix.
    pub fn row(&self, i: usize) -> Vec<(u32, f64)> {
        let n = self.n_nodes();
        let mut acc = vec![0.0f64; n];
        let mut touched: Vec<u32> = Vec::new();
        for (factor, factor_t) in [(&self.x, &self.xt), (&self.y, &self.yt)] {
            for (k, v) in factor.row_iter(i) {
                for (j, w) in factor_t.row_iter(k as usize) {
                    if acc[j as usize] == 0.0 {
                        touched.push(j);
                    }
                    acc[j as usize] += v * w;
                }
            }
        }
        touched.sort_unstable();
        touched
            .into_iter()
            .filter(|&j| j as usize != i)
            .map(|j| (j, acc[j as usize]))
            .filter(|&(_, v)| v != 0.0)
            .collect()
    }

    /// Computes the full similarity matrix with on-the-fly thresholding.
    ///
    /// Both `X·Xᵀ` terms run through the fused symmetric kernel in a
    /// single upper-triangle pass: the *sum* `Bd + Cd` is formed in the
    /// accumulators and thresholded at exactly `threshold` during
    /// emission, then mirrored. (The earlier two-product implementation
    /// thresholded each term at `threshold / 2` before adding, which
    /// could lose entries with true sum in `[t, 1.5t)`; fusing removes
    /// that approximation along with both intermediate matrices.)
    pub fn full(&self, threshold: f64, n_threads: usize) -> Result<CsrMatrix> {
        let tuning = Tuning {
            threads: n_threads,
            ..Tuning::from_env()
        };
        self.full_with(threshold, None, tuning, None, None)
            .map(|r| r.0)
    }

    /// [`full`](Self::full) under an explicit [`Tuning`], an optional cap
    /// of `nnz_budget` stored entries (past which the multiply degrades to
    /// an adaptively thresholded one), a token polled inside the SpGEMM
    /// row loops and a registry for the kernel counters. Returns the
    /// matrix and whether degradation occurred.
    fn full_with(
        &self,
        threshold: f64,
        nnz_budget: Option<usize>,
        tuning: Tuning,
        token: Option<&CancelToken>,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<(CsrMatrix, bool)> {
        let opts = SpgemmOptions {
            threshold,
            drop_diagonal: true,
            nnz_budget,
            tuning,
        };
        let terms = [
            SyrkTerm {
                x: &self.x,
                xt: &self.xt,
            },
            SyrkTerm {
                x: &self.y,
                xt: &self.yt,
            },
        ];
        let u = spgemm_syrk_sum(&terms, &opts, token, metrics)?;
        Ok((u.matrix, u.degraded))
    }
}

impl Symmetrizer for DegreeDiscounted {
    fn name(&self) -> String {
        "Degree-discounted".to_string()
    }

    fn symmetrize_observed(
        &self,
        g: &DiGraph,
        token: &CancelToken,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<SymmetrizedGraph> {
        if let DiscountExponent::Power(p) = self.options.alpha {
            if p < 0.0 {
                return Err(SymmetrizeError::InvalidConfig(format!(
                    "negative discount exponent alpha = {p}"
                )));
            }
        }
        if let DiscountExponent::Power(p) = self.options.beta {
            if p < 0.0 {
                return Err(SymmetrizeError::InvalidConfig(format!(
                    "negative discount exponent beta = {p}"
                )));
            }
        }
        let start = Instant::now();
        let factors = SimilarityFactors::build(g, &self.options)?;
        let (u, degraded) = factors.full_with(
            self.options.threshold,
            self.options.nnz_budget,
            self.options.tuning.clone(),
            Some(token),
            metrics,
        )?;
        let mut un = UnGraph::from_symmetric_unchecked(u);
        if let Some(labels) = g.labels() {
            un = un.with_labels(labels.to_vec())?;
        }
        Ok(
            SymmetrizedGraph::new(un, self.name(), self.options.threshold, start.elapsed())
                .with_degraded(degraded),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{figure1_graph, star_graph};

    #[test]
    fn matches_hand_computed_formula() {
        // A: 0→2, 1→2. Out-degrees: 1,1,0. In-degrees: 0,0,2.
        // Bd(0,1) = 1 / (1^0.5 · 2^0.5 · 1^0.5) = 1/√2. Cd(0,1) = 0.
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let s = DegreeDiscounted::default().symmetrize(&g).unwrap();
        let expected = 1.0 / 2.0f64.sqrt();
        assert!((s.adjacency().get(0, 1) - expected).abs() < 1e-12);
    }

    #[test]
    fn alpha_beta_zero_recovers_bibliometric_values() {
        let g = figure1_graph();
        let dd = DegreeDiscounted::with_exponents(0.0, 0.0)
            .symmetrize(&g)
            .unwrap();
        let bib = crate::Bibliometric {
            options: crate::BibliometricOptions {
                add_identity: false,
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert_eq!(dd.adjacency(), bib.adjacency());
    }

    #[test]
    fn output_is_symmetric() {
        let g = figure1_graph();
        let s = DegreeDiscounted::default().symmetrize(&g).unwrap();
        assert!(s.adjacency().is_symmetric(1e-9));
    }

    #[test]
    fn figure1_pair_strongly_connected() {
        let g = figure1_graph();
        let s = DegreeDiscounted::default().symmetrize(&g).unwrap();
        let w45 = s.adjacency().get(4, 5);
        assert!(w45 > 0.0);
        // (4,5) should be among the strongest pairs in the graph: they share
        // everything. Compare with (1,2), which share only out-links {4,5}.
        assert!(w45 > s.adjacency().get(1, 2));
    }

    #[test]
    fn hub_contributions_are_discounted() {
        // Star + one shared non-hub target: sharing the low-in-degree target
        // must contribute more than sharing the hub.
        // Nodes 1..=8 → 0 (hub); nodes 1, 2 also → 9 (in-degree 2).
        let mut edges: Vec<(usize, usize)> = (1..=8).map(|i| (i, 0)).collect();
        edges.push((1, 9));
        edges.push((2, 9));
        let g = DiGraph::from_edges(10, &edges).unwrap();
        let s = DegreeDiscounted::default().symmetrize(&g).unwrap();
        // Similarity(1,2) includes hub term 1/(√2·√8·√2) and target term
        // 1/(√2·√2·√2); similarity(3,4) only the hub term 1/(1·√8·1).
        let via_both = s.adjacency().get(1, 2);
        let via_hub_only = s.adjacency().get(3, 4);
        assert!(via_both > via_hub_only);
        let expected_hub_only = 1.0 / 8.0f64.sqrt();
        assert!((via_hub_only - expected_hub_only).abs() < 1e-12);
    }

    #[test]
    fn stronger_discount_shrinks_hub_weights() {
        let g = star_graph(20);
        let half = DegreeDiscounted::with_exponents(0.5, 0.5)
            .symmetrize(&g)
            .unwrap();
        let full = DegreeDiscounted::with_exponents(1.0, 1.0)
            .symmetrize(&g)
            .unwrap();
        // Leaf pairs share the hub; the 1.0 exponent discounts them harder.
        assert!(full.adjacency().get(1, 2) < half.adjacency().get(1, 2));
    }

    #[test]
    fn log_discount_is_between_zero_and_half_for_hubs() {
        let d = 1000.0;
        let none = DiscountExponent::Power(0.0).factor(d);
        let log = DiscountExponent::Log.factor(d);
        let half = DiscountExponent::Power(0.5).factor(d);
        assert!(log < none);
        assert!(log > half, "log discount should be gentler than sqrt");
        assert_eq!(DiscountExponent::Log.label(), "log");
        assert_eq!(DiscountExponent::Power(0.5).label(), "0.5");
    }

    #[test]
    fn zero_degree_factor_is_zero() {
        assert_eq!(DiscountExponent::Power(0.5).factor(0.0), 0.0);
        assert_eq!(DiscountExponent::Log.factor(0.0), 0.0);
    }

    #[test]
    fn power_zero_is_a_noop_discount_even_for_zero_degree() {
        // Table 4's p = 0 row: no discounting, d⁰ = 1 for every degree.
        assert_eq!(DiscountExponent::Power(0.0).factor(0.0), 1.0);
        assert_eq!(DiscountExponent::Power(0.0).factor(1.0), 1.0);
        assert_eq!(DiscountExponent::Power(0.0).factor(1000.0), 1.0);
    }

    #[test]
    fn power_zero_recovers_bibliometric_with_isolated_nodes() {
        // Regression for the Table 4 p = 0 row: a graph with an isolated
        // node (degree 0 both ways) and a sink (out-degree 0). With
        // p = 0 the discount must be a strict no-op, so the similarity
        // equals plain Bibliometric.
        let g = DiGraph::from_edges(5, &[(0, 2), (1, 2), (0, 3)]).unwrap(); // node 4 isolated
        let dd = DegreeDiscounted::with_exponents(0.0, 0.0)
            .symmetrize(&g)
            .unwrap();
        let bib = crate::Bibliometric {
            options: crate::BibliometricOptions {
                add_identity: false,
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert_eq!(dd.adjacency(), bib.adjacency());
        // Shared out-link (0,1): one common target, undiscounted weight 1.
        assert_eq!(dd.adjacency().get(0, 1), 1.0);
    }

    #[test]
    fn factor_rows_match_full_matrix() {
        let g = figure1_graph();
        let opts = DegreeDiscountedOptions::default();
        let factors = SimilarityFactors::build(&g, &opts).unwrap();
        let full = factors.full(0.0, 1).unwrap();
        for i in 0..g.n_nodes() {
            let row = factors.row(i);
            assert_eq!(row.len(), full.row_nnz(i), "row {i} length");
            for (j, v) in row {
                assert!((full.get(i, j as usize) - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn threshold_is_applied() {
        let g = figure1_graph();
        let full = DegreeDiscounted::default().symmetrize(&g).unwrap();
        let max_w = full
            .adjacency()
            .values()
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        let pruned = DegreeDiscounted::with_threshold(max_w * 0.9)
            .symmetrize(&g)
            .unwrap();
        assert!(pruned.n_edges() < full.n_edges());
        for &v in pruned.adjacency().values() {
            assert!(v >= max_w * 0.9);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let g = figure1_graph();
        let serial = DegreeDiscounted::default().symmetrize(&g).unwrap();
        let parallel = DegreeDiscounted {
            options: DegreeDiscountedOptions {
                tuning: Tuning {
                    threads: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert_eq!(serial.adjacency().indices(), parallel.adjacency().indices());
        for (a, b) in serial
            .adjacency()
            .values()
            .iter()
            .zip(parallel.adjacency().values())
        {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn tight_budget_degrades_and_generous_budget_is_exact() {
        let g = star_graph(40);
        let exact = DegreeDiscounted::default().symmetrize(&g).unwrap();
        let generous = DegreeDiscounted {
            options: DegreeDiscountedOptions {
                nnz_budget: Some(1_000_000),
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert!(!generous.degraded());
        assert_eq!(exact.adjacency(), generous.adjacency());
        let tight = DegreeDiscounted {
            options: DegreeDiscountedOptions {
                nnz_budget: Some(20),
                ..Default::default()
            },
        }
        .symmetrize(&g)
        .unwrap();
        assert!(tight.degraded());
        assert!(tight.adjacency().is_symmetric(1e-9));
    }

    #[test]
    fn rejects_negative_exponents() {
        let g = figure1_graph();
        assert!(DegreeDiscounted::with_exponents(-1.0, 0.5)
            .symmetrize(&g)
            .is_err());
        assert!(DegreeDiscounted::with_exponents(0.5, -0.1)
            .symmetrize(&g)
            .is_err());
    }
}
