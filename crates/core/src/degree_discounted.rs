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

use crate::bipartite::{
    BipartiteGraph, BipartiteOptions, BipartiteSide, ChainOptions, MultipartiteChain,
};
use crate::{Result, SymmetrizeError, SymmetrizedGraph, Symmetrizer};
use std::sync::Arc;
use std::time::Instant;
use symclust_graph::{DiGraph, UnGraph};
use symclust_obs::MetricsRegistry;
use symclust_sparse::{
    ops, spgemm, spgemm_syrk_sum, CancelToken, CsrMatrix, SpgemmOptions, SyrkTerm, Tuning,
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

/// The factored form of every similarity in the degree-discounted family,
/// `U = Σ XXᵀ` over one or two terms `X = diag(r) · M · diag(√c)`:
/// [`build`](Self::build) for Eq. 8 (Bibliometric is its α = β = 0, `+I`
/// case), and [`bipartite`](Self::bipartite) and [`chain`](Self::chain)
/// for one term on a biadjacency matrix or a meta-path product.
///
/// Exposing the factors lets callers compute *individual rows* of the
/// similarity matrix cheaply — the basis for the paper's sample-based
/// threshold selection (§5.3.1, [`crate::prune::select_threshold`]).
#[derive(Debug, Clone)]
pub struct SimilarityFactors {
    /// Each `X` beside its literal transpose: the precondition of the
    /// SYRK kernel's bit-exact mirror (DESIGN.md §12). Shared, so that
    /// two terms can hold one matrix.
    terms: Vec<(Arc<CsrMatrix>, Arc<CsrMatrix>)>,
}

/// `X = diag(row) · m · diag(√col)`, scaled on a copy of `m`, and its
/// literal transpose. A `None` scale is all ones and its pass is skipped:
/// `x · 1.0 = x` moves no bit. The copy is deliberate: scaling `m` in
/// place frees the factor buffers in another order, and `sym-kron`'s peak
/// RSS then read ≈ 15 % higher with the same live bytes (glibc's dynamic
/// mmap threshold).
fn term(
    m: &CsrMatrix,
    row: Option<&[f64]>,
    col: Option<&[f64]>,
) -> Result<(Arc<CsrMatrix>, Arc<CsrMatrix>)> {
    let mut x = m.clone();
    if let Some(row) = row {
        ops::scale_rows(&mut x, row)?;
    }
    if let Some(col) = col {
        ops::scale_cols(&mut x, &col.iter().map(|f| f.sqrt()).collect::<Vec<_>>())?;
    }
    let xt = ops::transpose(&x);
    Ok((Arc::new(x), Arc::new(xt)))
}

/// The factors `exp` gives `degrees`, or `None` for `Power(0.0)`, whose
/// factor is exactly 1 for every degree (Table 4's p = 0 row). Every
/// member reads its exponents here, so this is the one check that a power
/// is finite and non-negative (`d.powf(-NaN)` makes every weight NaN).
fn discount(exp: DiscountExponent, degrees: impl FnOnce() -> Vec<f64>) -> Result<Option<Vec<f64>>> {
    match exp {
        DiscountExponent::Power(p) if !(p.is_finite() && p >= 0.0) => {
            Err(SymmetrizeError::InvalidConfig(format!(
                "discount exponent {p} must be finite and non-negative"
            )))
        }
        DiscountExponent::Power(0.0) => Ok(None),
        _ => Ok(Some(degrees().iter().map(|&d| exp.factor(d)).collect())),
    }
}

impl SimilarityFactors {
    /// Eq. 8: `X = Do⁻ᵅ A Di^{-β/2}` and `Y = Di⁻ᵝ Aᵀ Do^{-α/2}`.
    pub fn build(g: &DiGraph, opts: &DegreeDiscountedOptions) -> Result<SimilarityFactors> {
        let a = if opts.add_identity {
            ops::add_diagonal(g.adjacency(), 1.0)?
        } else {
            g.adjacency().clone()
        };
        let f_out = discount(opts.alpha, || a.row_sums())?;
        let f_in = discount(opts.beta, || a.col_sums())?;
        let at = ops::transpose(&a);
        let terms = if f_out.is_none() && f_in.is_none() {
            // α = β = 0: `Y = Aᵀ = Xᵀ`, so the second term is the first
            // one swapped and `A`, `Aᵀ` are held once each.
            let (x, xt) = (Arc::new(a), Arc::new(at));
            vec![(x.clone(), xt.clone()), (xt, x)]
        } else {
            vec![
                term(&a, f_out.as_deref(), f_in.as_deref())?,
                term(&at, f_in.as_deref(), f_out.as_deref())?,
            ]
        };
        Ok(SimilarityFactors { terms })
    }

    /// One side of a bipartite graph: `X = Down⁻ᵅ · M · Dshared^{-β/2}`
    /// with `M = B` for the left side and `Bᵀ` for the right.
    pub fn bipartite(
        g: &BipartiteGraph,
        side: BipartiteSide,
        opts: &BipartiteOptions,
    ) -> Result<SimilarityFactors> {
        let m = match side {
            BipartiteSide::Left => g.biadjacency().clone(),
            BipartiteSide::Right => ops::transpose(g.biadjacency()),
        };
        Self::walk(m, &[], opts)
    }

    /// Layer 0 of a multipartite chain, through every link.
    pub fn chain(chain: &MultipartiteChain, opts: &ChainOptions) -> Result<SimilarityFactors> {
        let links = chain.links();
        Self::walk(links[0].clone(), &links[1..], opts)
    }

    /// The meta-path walk `first · rest[0] ⋯` of the [`bipartite`
    /// module](crate::bipartite) docs: one term whose columns take the
    /// terminal layer's discount, split across the two sides of `XXᵀ`.
    fn walk(
        first: CsrMatrix,
        rest: &[CsrMatrix],
        opts: &BipartiteOptions,
    ) -> Result<SimilarityFactors> {
        let mut in_deg = first.col_sums();
        let mut x = first;
        if let Some(f) = discount(opts.own_discount, || x.row_sums())? {
            ops::scale_rows(&mut x, &f)?;
        }
        // An intermediate layer is discounted once, by its incoming plus
        // its outgoing mass.
        for link in rest {
            let via_deg = || {
                in_deg
                    .iter()
                    .zip(link.row_sums())
                    .map(|(i, o)| i + o)
                    .collect()
            };
            if let Some(f) = discount(opts.shared_discount, via_deg)? {
                ops::scale_cols(&mut x, &f)?;
            }
            x = spgemm(&x, link, &SpgemmOptions::default(), None, None)?.matrix;
            in_deg = link.col_sums();
        }
        let terminal = discount(opts.shared_discount, || in_deg)?;
        Ok(SimilarityFactors {
            terms: vec![term(&x, None, terminal.as_deref())?],
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.terms[0].0.n_rows()
    }

    /// Computes row `i` of `U` (diagonal excluded) as `(column, value)`
    /// pairs sorted by column. Cost: O(Σ over i's links of the linked
    /// node's degree) — independent of the rest of the matrix. It
    /// accumulates in a plain dense vector and shares no code with the
    /// SYRK kernel, so it is the reference every member is checked against.
    pub fn row(&self, i: usize) -> Vec<(u32, f64)> {
        let n = self.n_nodes();
        let mut acc = vec![0.0f64; n];
        let mut touched: Vec<u32> = Vec::new();
        for (x, xt) in &self.terms {
            for (k, v) in x.row_iter(i) {
                for (j, w) in xt.row_iter(k as usize) {
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
    /// Every term runs through the fused symmetric kernel in a single
    /// upper-triangle pass: the *sum* is formed in the accumulators and
    /// thresholded at exactly `threshold` during emission, then mirrored.
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
    /// matrix and whether degradation occurred. The crate's one
    /// `spgemm_syrk_sum` call.
    pub(crate) fn full_with(
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
        let terms: Vec<SyrkTerm> = self
            .terms
            .iter()
            .map(|(x, xt)| SyrkTerm { x, xt })
            .collect();
        let u = spgemm_syrk_sum(&terms, &opts, token, metrics)?;
        Ok((u.matrix, u.degraded))
    }
}

/// Builds `opts`'s factors and symmetrizes `g` through them under the
/// method name `name`: the body of both [`DegreeDiscounted`] and
/// [`Bibliometric`](crate::Bibliometric).
pub(crate) fn symmetrize_discounted(
    g: &DiGraph,
    opts: &DegreeDiscountedOptions,
    name: String,
    token: &CancelToken,
    metrics: Option<&MetricsRegistry>,
) -> Result<SymmetrizedGraph> {
    let start = Instant::now();
    let factors = SimilarityFactors::build(g, opts)?;
    let (u, degraded) = factors.full_with(
        opts.threshold,
        opts.nnz_budget,
        opts.tuning.clone(),
        Some(token),
        metrics,
    )?;
    let mut un = UnGraph::from_symmetric_unchecked(u);
    if let Some(labels) = g.labels() {
        un = un.with_labels(labels.to_vec())?;
    }
    Ok(SymmetrizedGraph::new(un, name, opts.threshold, start.elapsed()).with_degraded(degraded))
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
        symmetrize_discounted(g, &self.options, self.name(), token, metrics)
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
        use crate::bipartite::{BipartiteGraph, BipartiteOptions, BipartiteSide};
        use crate::bipartite::{ChainOptions, MultipartiteChain};
        let g = figure1_graph();
        let dd = |alpha, beta, add_identity| {
            SimilarityFactors::build(
                &g,
                &DegreeDiscountedOptions {
                    alpha,
                    beta,
                    add_identity,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let (half, one, log) = (
            DiscountExponent::Power(0.5),
            DiscountExponent::Power(1.0),
            DiscountExponent::Log,
        );
        let mut family = Vec::new();
        for add_identity in [false, true] {
            for exp in [half, one, log] {
                family.push(dd(exp, exp, add_identity));
            }
        }
        let bib = crate::BibliometricOptions::default().as_degree_discounted();
        family.push(SimilarityFactors::build(&g, &bib).unwrap());
        let b = g.adjacency().clone();
        let bip = BipartiteGraph::from_biadjacency(b.clone());
        for side in [BipartiteSide::Left, BipartiteSide::Right] {
            family.push(
                SimilarityFactors::bipartite(&bip, side, &BipartiteOptions::default()).unwrap(),
            );
        }
        let chain = MultipartiteChain::new(vec![b.clone(), b]).unwrap();
        family.push(SimilarityFactors::chain(&chain, &ChainOptions::default()).unwrap());

        for (m, factors) in family.iter().enumerate() {
            let full = factors.full(0.0, 1).unwrap();
            for i in 0..factors.n_nodes() {
                let row = factors.row(i);
                let cols: Vec<u32> = row.iter().map(|&(j, _)| j).collect();
                let full_cols: Vec<u32> = full.row_iter(i).map(|(j, _)| j).collect();
                assert_eq!(cols, full_cols, "member {m} row {i} columns");
                for (j, v) in row {
                    assert!(
                        (full.get(i, j as usize) - v).abs() < 1e-12,
                        "member {m} row {i} col {j}"
                    );
                }
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
    fn every_member_rejects_non_finite_exponents() {
        use crate::bipartite::{
            bipartite_degree_discounted, BipartiteGraph, BipartiteOptions, BipartiteSide,
        };
        use crate::bipartite::{chain_degree_discounted, ChainOptions, MultipartiteChain};
        let g = figure1_graph();
        let bip = BipartiteGraph::from_biadjacency(g.adjacency().clone());
        let chain = MultipartiteChain::new(vec![g.adjacency().clone()]).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let bad = DiscountExponent::Power(bad);
            for (alpha, beta) in [
                (bad, DiscountExponent::Power(0.5)),
                (DiscountExponent::Log, bad),
            ] {
                let opts = DegreeDiscountedOptions {
                    alpha,
                    beta,
                    ..Default::default()
                };
                let dd = DegreeDiscounted {
                    options: opts.clone(),
                };
                assert!(dd.symmetrize(&g).is_err());
                assert!(crate::select_threshold(&g, &opts, 5.0, 4, 1).is_err());
                let bip_opts = BipartiteOptions {
                    own_discount: alpha,
                    shared_discount: beta,
                    threshold: 0.0,
                };
                assert!(bipartite_degree_discounted(&bip, BipartiteSide::Left, &bip_opts).is_err());
                let chain_opts = ChainOptions {
                    own_discount: alpha,
                    shared_discount: beta,
                    threshold: 0.0,
                };
                assert!(chain_degree_discounted(&chain, &chain_opts).is_err());
            }
        }
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
