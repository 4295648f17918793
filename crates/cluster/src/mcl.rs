//! Regularized Markov Clustering (R-MCL).
//!
//! The flow-simulation core of MLR-MCL (Satuluri & Parthasarathy, KDD 2009).
//! Classic MCL alternates *expansion* (`M := M·M`) and *inflation*
//! (element-wise power then renormalization); R-MCL replaces self-expansion
//! with multiplication by the fixed canonical transition matrix `M_G`
//! (`M := M·M_G` in the row-stochastic convention used here), which
//! regularizes flows toward the graph topology and avoids MCL's tendency to
//! produce massive attractor imbalance.
//!
//! Rows of `M` are kept sparse by per-row pruning (drop entries below a
//! fraction of the row maximum, keep at most `max_row_nnz`), the standard
//! MCL scalability device.
//!
//! The expansion is not a kernel of this module: [`expand_inflate_prune`]
//! is a client of `symclust-sparse`'s row runner
//! ([`run_rows_with_epilogue`]) and supplies only the per-row epilogue —
//! pre-cut, select, inflate, cut off, keep the top `max_row_nnz`, sort,
//! normalise. The Gustavson accumulation (dense rows of `M_G` as
//! contiguous AXPYs), the per-row cancellation poll and the panic-to-error
//! boundary are the runner's.
//!
//! The epilogue's cost is proportional to what it keeps, not to what the
//! accumulator touched. First, inflation is monotone, so an entry below
//! `vmax · θ^(1/r)` (θ = `prune_threshold`, r = `inflation`, `vmax` the
//! row's un-inflated maximum) is below `row_max · θ` after inflation and
//! is dropped *before* its `powf`. Then, when more than k = `max_row_nnz`
//! entries are left, the gap rule picks the k largest raw values on a copy
//! and checks that their powers must lie strictly above all the others';
//! if so, only those k are inflated. Both steps keep a relative margin of
//! 1e-9 on the safe side of `pow`'s < 1 ulp error, so the output bytes are
//! those of the plain inflate-everything pass (DESIGN.md §12 has the
//! argument and the traps). The counters `mcl.touched` / `mcl.inflated` /
//! `mcl.kept` report the share of the expansion that reaches `powf` for
//! any run.

use crate::clustering::Clustering;
use crate::{ClusterError, Result};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;
use symclust_graph::stats::UnionFind;
use symclust_graph::UnGraph;
use symclust_obs::{Counter, MetricsRegistry};
use symclust_sparse::spgemm::run_rows_with_epilogue;
use symclust_sparse::{ops, CancelToken, CsrMatrix};

symclust_obs::metric_names! {
    /// Stable metric names recorded by the R-MCL iteration (DESIGN.md §11).
    pub mod metric_names {
        /// R-MCL iteration loops completed (one per flow run, across levels).
        pub const RUNS: &str = "mcl.runs";
        /// Total expand–inflate–prune iterations performed.
        pub const ITERATIONS: &str = "mcl.iterations";
        /// Runs whose assignment stabilized within the iteration budget.
        pub const CONVERGED_RUNS: &str = "mcl.converged_runs";
        /// Runs that exhausted the budget without stabilizing.
        pub const NONCONVERGED_RUNS: &str = "mcl.nonconverged_runs";
        /// Gauge: fraction of nodes whose cluster assignment changed in the
        /// last iteration of the most recent run (0 at convergence).
        pub const FINAL_RESIDUAL: &str = "mcl.final_residual";
        /// Accumulated entries handed to the row epilogue (the expansion's
        /// output width, summed over rows and iterations).
        pub const TOUCHED: &str = "mcl.touched";
        /// `powf` calls: the entries that survived the pre-inflation cut, or,
        /// on a row where the gap rule holds, the top `max_row_nnz` and the
        /// rule's two test calls. `INFLATED / TOUCHED` is the share of the
        /// epilogue's input it pays for.
        pub const INFLATED: &str = "mcl.inflated";
        /// Entries emitted into the next flow matrix.
        pub const KEPT: &str = "mcl.kept";
        /// Span: one expand-inflate-prune step (one observation per iteration).
        pub const EXPAND_SPAN: &str = "mcl.expand";
        /// Span: one convergence vote — `extract_clusters` plus the label diff.
        pub const VOTE_SPAN: &str = "mcl.vote";
    }
}

/// Options for [`rmcl`].
#[derive(Debug, Clone, Copy)]
pub struct MclOptions {
    /// Inflation exponent `r > 1`. Higher inflation yields more, smaller
    /// clusters; this is how MLR-MCL's output granularity is (indirectly)
    /// controlled, as the paper notes in §4.2.
    pub inflation: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Per-row relative prune threshold: entries below
    /// `prune_threshold * row_max` are dropped after inflation.
    pub prune_threshold: f64,
    /// Keep at most this many entries per row after pruning.
    pub max_row_nnz: usize,
    /// Cap on the canonical flow matrix's row width: hub rows of `M_G` are
    /// truncated to their `max_graph_row_nnz` heaviest entries (then
    /// renormalized). Hub rows spread vanishing flow everywhere — it is
    /// pruned right after inflation anyway — but each expansion pays for
    /// the full fan-out; capping bounds the per-iteration cost at
    /// `n · max_row_nnz · max_graph_row_nnz`.
    pub max_graph_row_nnz: usize,
    /// Declare convergence after the cluster assignment is stable for this
    /// many consecutive iterations.
    pub stable_iterations: usize,
}

impl Default for MclOptions {
    fn default() -> Self {
        MclOptions {
            inflation: 2.0,
            max_iter: 40,
            prune_threshold: 1e-3,
            max_row_nnz: 64,
            max_graph_row_nnz: 512,
            stable_iterations: 2,
        }
    }
}

impl MclOptions {
    /// Rejects settings the flow iteration cannot run with.
    pub(crate) fn validate(&self) -> Result<()> {
        // `NaN <= 1.0` is false: the finiteness test is what rejects NaN.
        if self.inflation <= 1.0 || !self.inflation.is_finite() {
            return Err(ClusterError::InvalidConfig(format!(
                "inflation must be finite and exceed 1.0, got {}",
                self.inflation
            )));
        }
        if !(0.0..=1.0).contains(&self.prune_threshold) {
            return Err(ClusterError::InvalidConfig(format!(
                "prune_threshold must lie in [0, 1], got {}",
                self.prune_threshold
            )));
        }
        if self.max_row_nnz == 0 {
            return Err(ClusterError::InvalidConfig(
                "max_row_nnz must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of an R-MCL run.
#[derive(Debug, Clone)]
pub struct MclResult {
    /// The extracted hard clustering.
    pub clustering: Clustering,
    /// The converged flow matrix (row-stochastic).
    pub flow: CsrMatrix,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the assignment stabilized within the budget.
    pub converged: bool,
}

/// Builds the canonical flow matrix `M_G`: adjacency plus self-loops
/// (weight = the node's maximum incident edge weight, so self-flow is
/// comparable to the strongest neighbor flow), row-normalized. Rows wider
/// than `max_graph_row_nnz` are truncated to their heaviest entries before
/// normalization (see [`MclOptions::max_graph_row_nnz`]); self-loops carry
/// the row maximum so they always survive truncation.
#[expect(
    clippy::expect_used,
    reason = "operands constructed with identical shape on the preceding lines"
)]
pub(crate) fn canonical_flow_capped(g: &UnGraph, max_graph_row_nnz: usize) -> CsrMatrix {
    let a = g.adjacency();
    let n = a.n_rows();
    let mut loop_weights = CsrMatrix::identity(n);
    {
        let values = loop_weights.values_mut();
        for (row, v) in values.iter_mut().enumerate() {
            let row_max = a.row_values(row).iter().cloned().fold(0.0f64, f64::max);
            *v = if row_max > 0.0 { row_max } else { 1.0 };
        }
    }
    let mut with_loops =
        ops::add(&ops::drop_diagonal(a), &loop_weights).expect("same-shape add cannot fail");
    if max_graph_row_nnz > 0 {
        with_loops = ops::top_k_per_row(&with_loops, max_graph_row_nnz);
    }
    ops::row_normalize(&with_loops)
}

/// [`canonical_flow_capped`] with the default row cap.
pub fn canonical_flow(g: &UnGraph) -> CsrMatrix {
    canonical_flow_capped(g, MclOptions::default().max_graph_row_nnz)
}

/// Applies inflation (element-wise power `r`), per-row pruning and
/// renormalization to a row-stochastic matrix.
pub fn inflate_and_prune(m: &CsrMatrix, opts: &MclOptions) -> CsrMatrix {
    let n = m.n_rows();
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for row in 0..n {
        scratch.clear();
        let mut row_max = 0.0f64;
        for (c, v) in m.row_iter(row) {
            let p = v.powf(opts.inflation);
            if p > row_max {
                row_max = p;
            }
            scratch.push((c, p));
        }
        let cutoff = row_max * opts.prune_threshold;
        scratch.retain(|&(_, v)| v >= cutoff && v > 0.0);
        if scratch.len() > opts.max_row_nnz {
            scratch.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
            scratch.truncate(opts.max_row_nnz);
            scratch.sort_unstable_by_key(|&(c, _)| c);
        }
        let sum: f64 = scratch.iter().map(|&(_, v)| v).sum();
        if sum > 0.0 {
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v / sum);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts_unchecked(n, m.n_cols(), indptr, indices, values)
}

/// Orphan-repair level: a self-attracted node that attracts nobody else
/// joins its strongest other target if that flow is at least this fraction
/// of its self-flow.
pub const ORPHAN_REATTACH_THRESHOLD: f64 = 0.5;

/// Relative safety margin of the pre-inflation cut: seven orders of
/// magnitude above what libm's `pow` (< 1 ulp) and the handful of roundings
/// between the cut and the exact cutoff can add up to.
const PRE_CUT_MARGIN: f64 = 1e-9;

/// Per-call constants of the epilogue's pre-inflation cut.
#[derive(Clone, Copy)]
struct PreCut {
    /// `θ^(1/r) · (1 − margin)`: a row's entries below `vmax · factor`
    /// cannot reach `row_max · θ` once inflated.
    factor: f64,
    /// Smallest row maximum the argument covers: below it `vmax^r · θ`
    /// leaves the normal range, the exact cutoff rounds in subnormals (or
    /// to 0, keeping every positive entry) and a relative margin means
    /// nothing.
    min_vmax: f64,
}

impl PreCut {
    /// `None` when the cutoff cannot drop anything the cut could foresee:
    /// θ = 0 keeps every positive entry and θ = 1 keeps exactly the ties
    /// with the *computed* maximum power, which only `powf` can name.
    fn new(opts: &MclOptions) -> Option<PreCut> {
        let theta = opts.prune_threshold;
        if !(theta > 0.0 && theta < 1.0) {
            return None;
        }
        let root = 1.0 / opts.inflation;
        Some(PreCut {
            factor: theta.powf(root) * (1.0 - PRE_CUT_MARGIN),
            min_vmax: (f64::MIN_POSITIVE / theta).powf(root) * (1.0 + PRE_CUT_MARGIN),
        })
    }
}

thread_local! {
    /// The gap rule's copy of a row's raw values. One per thread, grown to
    /// its high-water mark: the epilogue is a plain `Fn` the row runner
    /// calls with the row alone, so there is no worker-owned scratch to
    /// hand it without widening the runner's public signature.
    static RAW_VALUES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The gap rule. `vk` is the row's `k`-th largest raw value and `vb` the
/// `(k+1)`-th. Returns `Some(vk)` when `0 < vb < vk`, `powf(vb)` is normal,
/// `powf(vk)` is finite and `powf(vk) > powf(vb) · (1 + margin)`. Then the
/// entries with `v ≥ vk` are exactly `k`, and their computed powers lie
/// strictly above every other entry's: `pow` is within 1 ulp of `x^r`, far
/// inside the margin, so no monotonicity of `pow` is needed. Counts its
/// `powf` calls into `powf_calls`.
fn top_k_gap(
    entries: &[(u32, f64)],
    k: usize,
    inflation: f64,
    powf_calls: &mut usize,
) -> Option<f64> {
    RAW_VALUES.with_borrow_mut(|raw| {
        raw.clear();
        raw.extend(entries.iter().map(|&(_, v)| v));
        let (head, vk, tail) = raw.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        let vk = *vk;
        let vb = tail.iter().copied().max_by(f64::total_cmp)?;
        // A NaN sorts above every number and `v >= vk` would drop it.
        if !(0.0 < vb && vb < vk) || head.iter().any(|v| v.is_nan()) {
            return None;
        }
        *powf_calls += 1;
        let pb = vb.powf(inflation);
        if !pb.is_normal() {
            return None;
        }
        *powf_calls += 1;
        let pk = vk.powf(inflation);
        (pk.is_finite() && pk > pb * (1.0 + PRE_CUT_MARGIN)).then_some(vk)
    })
}

/// What one row's epilogue paid for.
#[derive(Debug, Default, Clone, Copy)]
struct RowWork {
    /// `powf` calls.
    inflated: usize,
    /// Whether the gap rule held, so only the top `k` were inflated.
    top_k_first: bool,
}

/// The R-MCL row epilogue: turns one accumulated row of `M · M_G`, in the
/// accumulator's first-touch order, into the row of the next flow matrix.
///
/// Pre-cut (no `powf`), then, when more than `max_row_nnz` = k entries are
/// left and the gap rule ([`top_k_gap`]) holds, keep only the k largest.
/// Then inflate → `row_max` of the *computed* powers → exact
/// `>= row_max · θ` cutoff → top k → column sort → normalise. On the gap
/// path the top-k step has nothing left to drop and no tie to break. When
/// the rule fails, every removal before the selection is an
/// order-preserving `retain`: `select_nth_unstable_by` keeps whichever tied
/// flows it meets first, so the survivors' sequence is part of the output
/// bytes.
fn inflate_prune_row(
    entries: &mut Vec<(u32, f64)>,
    opts: &MclOptions,
    pre_cut: Option<PreCut>,
) -> RowWork {
    if let Some(cut) = pre_cut {
        let vmax = entries.iter().fold(0.0f64, |m, &(_, v)| m.max(v));
        let floor = vmax * cut.factor;
        if vmax >= cut.min_vmax && floor.is_normal() {
            entries.retain(|&(_, v)| v >= floor);
        }
    }
    let mut work = RowWork::default();
    if entries.len() > opts.max_row_nnz {
        let gap = top_k_gap(
            entries,
            opts.max_row_nnz,
            opts.inflation,
            &mut work.inflated,
        );
        if let Some(vk) = gap {
            entries.retain(|&(_, v)| v >= vk);
            work.top_k_first = true;
        }
    }
    // Inflate + threshold against the inflated row maximum.
    let mut row_max = 0.0f64;
    entries.retain_mut(|(_, v)| {
        if *v > 0.0 {
            work.inflated += 1;
            *v = v.powf(opts.inflation);
            if *v > row_max {
                row_max = *v;
            }
        }
        *v > 0.0
    });
    let cutoff = row_max * opts.prune_threshold;
    entries.retain(|&(_, v)| v >= cutoff);
    if entries.len() > opts.max_row_nnz {
        // Partial selection of the top entries, then sort only those.
        let k = opts.max_row_nnz;
        entries.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1));
        entries.truncate(k);
    }
    entries.sort_unstable_by_key(|&(c, _)| c);
    let sum: f64 = entries.iter().map(|&(_, v)| v).sum();
    if sum > 0.0 {
        for (_, v) in entries.iter_mut() {
            *v /= sum;
        }
    } else {
        entries.clear();
    }
    work
}

/// Handles to the epilogue's work counters, resolved once per run so a row
/// costs three relaxed adds and no registry lookup.
pub(crate) struct EpilogueWork {
    touched: Arc<Counter>,
    inflated: Arc<Counter>,
    kept: Arc<Counter>,
}

impl EpilogueWork {
    fn new(metrics: &MetricsRegistry) -> Self {
        EpilogueWork {
            touched: metrics.counter(metric_names::TOUCHED),
            inflated: metrics.counter(metric_names::INFLATED),
            kept: metrics.counter(metric_names::KEPT),
        }
    }
}

/// Fused expansion + inflation + pruning: computes one R-MCL iteration
/// `M' = inflate_and_prune(M · M_G)` without materializing the expanded
/// matrix. The expanded row (potentially `max_row_nnz × avg_degree` wide)
/// goes straight from the Gustavson accumulator into the row epilogue,
/// which drops what the cutoff is bound to drop before inflating it and
/// never sorts the wide intermediate by column; the result is bit-identical
/// to inflating every entry first.
///
/// Runs on one thread; `token`, when given, is polled before every row.
pub fn expand_inflate_prune(
    m: &CsrMatrix,
    m_g: &CsrMatrix,
    opts: &MclOptions,
    token: Option<&CancelToken>,
) -> Result<CsrMatrix> {
    expand_inflate_prune_on(m, m_g, opts, 1, token, None)
}

/// [`expand_inflate_prune`] on `n_threads` workers of the sparse crate's
/// pool, counting its work into `work` when given. The output does not
/// depend on the thread count: each row's epilogue sees its entries in the
/// accumulator's first-touch order however rows are scheduled, which is
/// what keeps the unstable top-k selection — uniform-block flows are full
/// of tied values — picking the same survivors.
pub(crate) fn expand_inflate_prune_on(
    m: &CsrMatrix,
    m_g: &CsrMatrix,
    opts: &MclOptions,
    n_threads: usize,
    token: Option<&CancelToken>,
    work: Option<&EpilogueWork>,
) -> Result<CsrMatrix> {
    let pre_cut = PreCut::new(opts);
    Ok(run_rows_with_epilogue(
        m,
        m_g,
        n_threads,
        token,
        |_row, entries| {
            let touched = entries.len();
            let row = inflate_prune_row(entries, opts, pre_cut);
            if let Some(work) = work {
                work.touched.add(touched as u64);
                work.inflated.add(row.inflated as u64);
                work.kept.add(entries.len() as u64);
            }
        },
    )?)
}

/// Extracts a hard clustering from a flow matrix.
///
/// Each node attaches to its highest-flow column (its *attractor*), and
/// attraction chains merge via union–find — the standard R-MCL reading.
/// One subtlety: R-MCL's regularization keeps a persistent trickle of flow
/// across cluster boundaries (the fixed operator `M_G` re-injects bridge
/// edges every iteration), and for symmetric clique-like clusters the flow
/// equilibrium is a *uniform block* whose argmax is decided by noise. A
/// boundary node can then be self-attracted while nothing else attracts it,
/// stranding it as a spurious singleton. The repair pass reattaches such
/// orphans to their strongest non-self target when that flow is comparable
/// ([`ORPHAN_REATTACH_THRESHOLD`]) to the self-flow.
pub fn extract_clusters(flow: &CsrMatrix) -> Clustering {
    let n = flow.n_rows();
    let mut attractor: Vec<u32> = (0..n as u32).collect();
    let mut best_other: Vec<Option<(u32, f64)>> = vec![None; n];
    let mut self_flow = vec![0.0f64; n];
    for row in 0..n {
        let mut best: Option<(u32, f64)> = None;
        for (c, v) in flow.row_iter(row) {
            if c as usize == row {
                self_flow[row] = v;
            } else if best_other[row].is_none_or(|(_, bv)| v > bv) {
                best_other[row] = Some((c, v));
            }
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((c, v));
            }
        }
        if let Some((a, _)) = best {
            attractor[row] = a;
        }
    }
    // Count incoming attractions to detect orphans.
    let mut attracted = vec![false; n];
    for (row, &a) in attractor.iter().enumerate() {
        if a as usize != row {
            attracted[a as usize] = true;
        }
    }
    let mut uf = UnionFind::new(n);
    for row in 0..n {
        let mut target = attractor[row] as usize;
        if target == row && !attracted[row] {
            if let Some((other, v)) = best_other[row] {
                if v >= ORPHAN_REATTACH_THRESHOLD * self_flow[row] {
                    target = other as usize;
                }
            }
        }
        uf.union(row, target);
    }
    let (labels, _) = uf.into_component_labels();
    Clustering::from_assignments(&labels)
}

/// Runs the R-MCL iteration `M := inflate(M · M_G)` starting from `m0`, or
/// from `M_G` itself when `m0` is `None` (read in place, not cloned).
/// Returns the final flow, iterations used and whether it converged.
/// `token` is polled before every row of every expand-inflate-prune step,
/// so a runaway flow computation stops within one row of it tripping.
pub(crate) fn rmcl_iterate_with(
    m_g: &CsrMatrix,
    m0: Option<CsrMatrix>,
    opts: &MclOptions,
    max_iter: usize,
    token: Option<&CancelToken>,
    metrics: Option<&MetricsRegistry>,
) -> Result<(CsrMatrix, usize, bool)> {
    let mut m = m0;
    let mut prev_assignment: Option<Vec<u32>> = None;
    let mut stable = 0usize;
    let mut iterations = 0usize;
    // Convergence residual: fraction of nodes whose assignment changed in
    // the latest iteration (1.0 before the first comparison is possible).
    let mut residual = 1.0f64;
    let mut converged = false;
    let work = metrics.map(EpilogueWork::new);
    for iter in 1..=max_iter {
        iterations = iter;
        let expand_start = Instant::now();
        let flow = m.insert(expand_inflate_prune_on(
            m.as_ref().unwrap_or(m_g),
            m_g,
            opts,
            1,
            token,
            work.as_ref(),
        )?);
        let vote_start = Instant::now();
        let assignment = extract_clusters(flow).assignments().to_vec();
        let changed = match prev_assignment.as_deref() {
            Some(prev) => prev.iter().zip(&assignment).filter(|(a, b)| a != b).count(),
            None => assignment.len(),
        };
        if let Some(metrics) = metrics {
            let vote = vote_start.elapsed().as_secs_f64();
            let expand = vote_start.duration_since(expand_start).as_secs_f64();
            metrics.observe_span_secs(metric_names::EXPAND_SPAN, expand);
            metrics.observe_span_secs(metric_names::VOTE_SPAN, vote);
        }
        residual = changed as f64 / assignment.len().max(1) as f64;
        if changed == 0 && prev_assignment.is_some() {
            stable += 1;
            if stable >= opts.stable_iterations {
                converged = true;
                break;
            }
        } else {
            stable = 0;
        }
        prev_assignment = Some(assignment);
    }
    if let Some(metrics) = metrics {
        metrics.counter(metric_names::RUNS).inc();
        metrics
            .counter(metric_names::ITERATIONS)
            .add(iterations as u64);
        if converged {
            metrics.counter(metric_names::CONVERGED_RUNS).inc();
        } else {
            metrics.counter(metric_names::NONCONVERGED_RUNS).inc();
        }
        metrics.gauge(metric_names::FINAL_RESIDUAL).set(residual);
    }
    let flow = m.unwrap_or_else(|| m_g.clone());
    Ok((flow, iterations, converged))
}

/// Runs single-level R-MCL on an undirected graph.
pub fn rmcl(g: &UnGraph, opts: &MclOptions) -> Result<MclResult> {
    opts.validate()?;
    let m_g = canonical_flow_capped(g, opts.max_graph_row_nnz);
    let (flow, iterations, converged) =
        rmcl_iterate_with(&m_g, None, opts, opts.max_iter, None, None)?;
    let clustering = extract_clusters(&flow).with_converged(converged);
    Ok(MclResult {
        clustering,
        flow,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn two_cliques_un(k: usize) -> UnGraph {
        let mut edges = Vec::new();
        for base in [0, k] {
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((k - 1, k)); // bridge
        UnGraph::from_edges(2 * k, &edges).unwrap()
    }

    #[test]
    fn canonical_flow_is_row_stochastic_with_loops() {
        let g = two_cliques_un(3);
        let m = canonical_flow(&g);
        for row in 0..m.n_rows() {
            let sum: f64 = m.row_values(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(m.get(row, row) > 0.0, "missing self-loop on {row}");
        }
    }

    #[test]
    fn canonical_flow_isolated_node_self_loops() {
        let g = UnGraph::from_edges(3, &[(0, 1)]).unwrap();
        let m = canonical_flow(&g);
        assert_eq!(m.get(2, 2), 1.0);
    }

    #[test]
    fn inflation_sharpens_rows() {
        let m = CsrMatrix::from_dense(&[vec![0.8, 0.2], vec![0.5, 0.5]]);
        let opts = MclOptions {
            inflation: 2.0,
            prune_threshold: 0.0,
            ..Default::default()
        };
        let i = inflate_and_prune(&m, &opts);
        // 0.8² / (0.8² + 0.2²) ≈ 0.941
        assert!((i.get(0, 0) - 0.64 / 0.68).abs() < 1e-12);
        assert!((i.get(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pruning_caps_row_width() {
        let m = CsrMatrix::from_dense(&[vec![0.4, 0.3, 0.2, 0.1]]);
        let opts = MclOptions {
            max_row_nnz: 2,
            prune_threshold: 0.0,
            inflation: 1.5,
            ..Default::default()
        };
        let p = inflate_and_prune(&m, &opts);
        assert_eq!(p.row_nnz(0), 2);
        let sum: f64 = p.row_values(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // The two largest entries survive.
        assert!(p.get(0, 0) > 0.0 && p.get(0, 1) > 0.0);
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques_un(5);
        let r = rmcl(&g, &MclOptions::default()).unwrap();
        assert!(r.converged, "did not converge in {} iters", r.iterations);
        assert_eq!(r.clustering.n_clusters(), 2);
        for i in 0..5 {
            assert!(r.clustering.same_cluster(0, i));
            assert!(r.clustering.same_cluster(5, 5 + i));
        }
        assert!(!r.clustering.same_cluster(0, 5));
    }

    #[test]
    fn flow_rows_remain_stochastic() {
        let g = two_cliques_un(4);
        let r = rmcl(&g, &MclOptions::default()).unwrap();
        for row in 0..r.flow.n_rows() {
            let sum: f64 = r.flow.row_values(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {row} sums to {sum}");
        }
    }

    #[test]
    fn higher_inflation_gives_more_clusters() {
        // A ring of 4 small cliques lightly connected.
        let mut edges = Vec::new();
        let k = 4;
        for c in 0..4 {
            let base = c * k;
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j));
                }
            }
            edges.push((base + k - 1, (base + k) % (4 * k)));
        }
        let g = UnGraph::from_edges(4 * k, &edges).unwrap();
        let low = rmcl(
            &g,
            &MclOptions {
                inflation: 1.2,
                ..Default::default()
            },
        )
        .unwrap();
        let high = rmcl(
            &g,
            &MclOptions {
                inflation: 3.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            high.clustering.n_clusters() >= low.clustering.n_clusters(),
            "high inflation {} clusters < low inflation {}",
            high.clustering.n_clusters(),
            low.clustering.n_clusters()
        );
        assert_eq!(high.clustering.n_clusters(), 4);
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let g = UnGraph::from_edges(4, &[(0, 1)]).unwrap();
        let r = rmcl(&g, &MclOptions::default()).unwrap();
        assert_eq!(r.clustering.n_clusters(), 3);
        assert!(r.clustering.same_cluster(0, 1));
        assert!(!r.clustering.same_cluster(2, 3));
    }

    #[test]
    fn rejects_zero_row_cap() {
        let g = UnGraph::from_edges(2, &[(0, 1)]).unwrap();
        let opts = MclOptions {
            max_row_nnz: 0,
            ..Default::default()
        };
        assert!(matches!(
            rmcl(&g, &opts),
            Err(ClusterError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_bad_inflation_and_threshold() {
        let g = two_cliques_un(3);
        let run = |edit: fn(&mut MclOptions)| {
            let mut opts = MclOptions::default();
            edit(&mut opts);
            (opts, rmcl(&g, &opts))
        };
        let bad: [fn(&mut MclOptions); 6] = [
            |o| o.inflation = 1.0,
            |o| o.inflation = f64::NAN,
            |o| o.inflation = f64::INFINITY,
            |o| o.prune_threshold = f64::NAN,
            |o| o.prune_threshold = 1.5,
            |o| o.prune_threshold = -1e-9,
        ];
        for edit in bad {
            let (opts, result) = run(edit);
            assert!(
                matches!(result, Err(ClusterError::InvalidConfig(_))),
                "accepted {opts:?}"
            );
        }
        // The closed ends of the threshold range stay legal.
        let ends: [fn(&mut MclOptions); 2] =
            [|o| o.prune_threshold = 0.0, |o| o.prune_threshold = 1.0];
        for edit in ends {
            let (opts, result) = run(edit);
            assert!(result.unwrap().flow.nnz() >= 6, "{opts:?} emptied the flow");
        }
    }

    fn value_bits(m: &CsrMatrix) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    /// The epilogue as it was before the pre-inflation cut (commit
    /// 8ee0566), kept verbatim as the reference the cut must not move a
    /// bit of: every touched entry is inflated, then cut off.
    fn inflate_everything_row(entries: &mut Vec<(u32, f64)>, opts: &MclOptions) {
        let mut row_max = 0.0f64;
        entries.retain_mut(|(_, v)| {
            if *v > 0.0 {
                *v = v.powf(opts.inflation);
                if *v > row_max {
                    row_max = *v;
                }
            }
            *v > 0.0
        });
        let cutoff = row_max * opts.prune_threshold;
        entries.retain(|&(_, v)| v >= cutoff);
        if entries.len() > opts.max_row_nnz {
            let k = opts.max_row_nnz;
            entries.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1));
            entries.truncate(k);
        }
        entries.sort_unstable_by_key(|&(c, _)| c);
        let sum: f64 = entries.iter().map(|&(_, v)| v).sum();
        if sum > 0.0 {
            for (_, v) in entries.iter_mut() {
                *v /= sum;
            }
        } else {
            entries.clear();
        }
    }

    /// One step of the kernel under test and of the reference, both
    /// through the sparse crate's row runner; returns the step's output
    /// after asserting the two agree bit for bit.
    fn assert_step_matches_reference(
        m: &CsrMatrix,
        m_g: &CsrMatrix,
        opts: &MclOptions,
        n_threads: usize,
    ) -> CsrMatrix {
        let new = expand_inflate_prune_on(m, m_g, opts, n_threads, None, None).unwrap();
        let reference = run_rows_with_epilogue(m, m_g, n_threads, None, |_row, entries| {
            inflate_everything_row(entries, opts)
        })
        .unwrap();
        assert_eq!(new.indptr(), reference.indptr(), "{opts:?} x{n_threads}");
        assert_eq!(new.indices(), reference.indices(), "{opts:?} x{n_threads}");
        assert_eq!(
            value_bits(&new),
            value_bits(&reference),
            "{opts:?} x{n_threads}"
        );
        new
    }

    /// Edge weights a decade apart: rows of `M · M_G` then span enough
    /// orders of magnitude for every cutoff below to bite, and the few
    /// distinct weights leave them full of tied values.
    fn decade_weighted_graph(n: usize, raw: &[(usize, usize, u32)]) -> UnGraph {
        let edges: Vec<(usize, usize, f64)> = raw
            .iter()
            .map(|&(u, v, w)| (u % n, v % n, 10f64.powi(-(w as i32))))
            .collect();
        UnGraph::from_weighted_edges(n, &edges).unwrap()
    }

    const THETAS: [f64; 5] = [0.0, 1e-6, 1e-3, 0.3, 1.0];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn pre_cut_epilogue_keeps_the_reference_bits(
            n in 70usize..150,
            raw in proptest::collection::vec((0usize..150, 0usize..150, 0u32..4), 300..1200),
            theta_idx in 0usize..5,
            inflation in 1.01f64..6.0,
            max_row_nnz in 3usize..12,
        ) {
            let m_g = canonical_flow(&decade_weighted_graph(n, &raw));
            let opts = MclOptions {
                inflation,
                prune_threshold: THETAS[theta_idx],
                max_row_nnz,
                ..Default::default()
            };
            for n_threads in [1, 3] {
                // Three steps: the first sees M_G's wide rows, the later
                // ones capped rows with renormalised, drifting values.
                let mut m = m_g.clone();
                for _ in 0..3 {
                    m = assert_step_matches_reference(&m, &m_g, &opts, n_threads);
                }
            }
        }
    }

    /// A 1 × n product whose single accumulated row is exactly `values`.
    fn single_row(values: &[f64]) -> (CsrMatrix, CsrMatrix) {
        let one = CsrMatrix::from_dense(&[vec![1.0]]);
        (one, CsrMatrix::from_dense(&[values.to_vec()]))
    }

    fn ulps_away(x: f64, ulps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + ulps) as u64)
    }

    #[test]
    fn entries_at_the_cut_boundary_keep_the_reference_bits() {
        let vmax = 0.4375;
        for (theta, inflation) in [
            (1e-3, 2.0),
            (0.3, 1.5),
            (1e-6, 5.9),
            (0.5, 3.0),
            (0.3, 1.01),
        ] {
            for max_row_nnz in [4, 64] {
                let opts = MclOptions {
                    inflation,
                    prune_threshold: theta,
                    max_row_nnz,
                    ..Default::default()
                };
                let cut = PreCut::new(&opts).expect("θ in (0, 1)");
                // Where the exact cutoff decides, and where the pre-cut does.
                let exact = vmax * theta.powf(1.0 / inflation);
                let floor = vmax * cut.factor;
                let mut values = vec![0.01, vmax, 0.3, 0.3, exact * 0.5, vmax];
                for centre in [exact, floor] {
                    for ulps in [0, 1, 2, 1_000_000] {
                        values.push(ulps_away(centre, ulps));
                        values.push(ulps_away(centre, -ulps));
                    }
                }
                let (one, row) = single_row(&values);
                let out = assert_step_matches_reference(&one, &row, &opts, 1);
                assert!(out.nnz() >= 2 && out.nnz() < values.len());
                // The cut did skip work on this row, and not the maximum.
                let mut entries: Vec<(u32, f64)> = (0u32..).zip(values.iter().copied()).collect();
                let work = inflate_prune_row(&mut entries, &opts, Some(cut));
                assert!(work.inflated < values.len(), "pre-cut removed nothing");
                // Where the gap rule holds, `powf` runs on the top k and on
                // the two gap values only. Otherwise it runs on everything
                // the cut left, which includes the 8 values above it.
                let gap_expected = max_row_nnz == 4 && theta != 0.5;
                assert_eq!(work.top_k_first, gap_expected, "θ {theta}, r {inflation}");
                if work.top_k_first {
                    assert_eq!(work.inflated, max_row_nnz + 2);
                } else {
                    assert!(
                        work.inflated >= 2 + 8,
                        "pre-cut removed an entry above the boundary"
                    );
                }
            }
        }
    }

    /// A ring of cliques of the given sizes, each joined to the next by
    /// one edge.
    fn clique_ring(sizes: &[usize]) -> UnGraph {
        let n: usize = sizes.iter().sum();
        let mut edges = Vec::new();
        let mut base = 0;
        for &s in sizes {
            for i in 0..s {
                for j in (i + 1)..s {
                    edges.push((base + i, base + j));
                }
            }
            edges.push((base + s - 1, (base + s) % n));
            base += s;
        }
        UnGraph::from_edges(n, &edges).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn gap_rule_and_its_fallback_keep_the_reference_bits_on_clique_blocks(
            max_row_nnz in 3usize..10,
            extra in 1usize..6,
            more in proptest::collection::vec(3usize..16, 1..6),
            theta_idx in 0usize..3,
            inflation in 1.01f64..2.5,
        ) {
            // Inside a clique the first step's row is the clique's columns,
            // all tied, plus the two bridge neighbours' smaller flow. A
            // clique of exactly k nodes has a gap below its top k; a larger
            // one ties across the k boundary and must fall back.
            let mut sizes = vec![max_row_nnz, max_row_nnz + extra];
            sizes.extend(more);
            let m_g = canonical_flow(&clique_ring(&sizes));
            let opts = MclOptions {
                inflation,
                prune_threshold: THETAS[theta_idx],
                max_row_nnz,
                ..Default::default()
            };
            let pre_cut = PreCut::new(&opts);
            let (gap_rows, fallback_rows) = (AtomicUsize::new(0), AtomicUsize::new(0));
            for n_threads in [1, 3] {
                let mut m = m_g.clone();
                for _ in 0..3 {
                    run_rows_with_epilogue(&m, &m_g, n_threads, None, |_row, entries| {
                        let work = inflate_prune_row(entries, &opts, pre_cut);
                        if work.top_k_first {
                            gap_rows.fetch_add(1, Ordering::Relaxed);
                        } else if work.inflated > max_row_nnz {
                            // More than k `powf`s without the gap rule: the
                            // row selected its top k after inflating.
                            fallback_rows.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .unwrap();
                    m = assert_step_matches_reference(&m, &m_g, &opts, n_threads);
                }
            }
            proptest::prop_assert!(gap_rows.into_inner() > 0, "the gap rule never held");
            proptest::prop_assert!(fallback_rows.into_inner() > 0, "no row fell back");
        }
    }

    #[test]
    fn underflowing_cutoff_takes_the_guard() {
        // v ~ 1e-160 squares into the subnormals and `row_max · θ` rounds
        // there too: the exact pass keeps what a relative margin cannot
        // predict, so the pre-cut must stand aside.
        let values = [1.0e-160, 3.0e-161, 2.5e-162, 1.0e-163, 9.9e-161, 1.0e-160];
        let opts = MclOptions::default();
        let (one, row) = single_row(&values);
        assert_step_matches_reference(&one, &row, &opts, 1);
        let mut entries: Vec<(u32, f64)> = (0u32..).zip(values).collect();
        let work = inflate_prune_row(&mut entries, &opts, PreCut::new(&opts));
        assert_eq!(
            work.inflated,
            values.len(),
            "the guard must skip the pre-cut"
        );
    }

    #[test]
    fn work_counters_show_what_the_cut_saved() {
        // A fixed pseudo-random graph from the property test's family.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let raw: Vec<(usize, usize, u32)> = (0..900)
            .map(|_| (next(120), next(120), next(4) as u32))
            .collect();
        let g = decade_weighted_graph(120, &raw);
        let opts = MclOptions {
            max_row_nnz: 8,
            max_iter: 3,
            ..Default::default()
        };
        let m_g = canonical_flow(&g);
        let metrics = MetricsRegistry::new();
        let (flow, iterations, _) =
            rmcl_iterate_with(&m_g, None, &opts, opts.max_iter, None, Some(&metrics)).unwrap();
        let snap = metrics.snapshot();
        let touched = snap.counter(metric_names::TOUCHED).unwrap();
        let inflated = snap.counter(metric_names::INFLATED).unwrap();
        let kept = snap.counter(metric_names::KEPT).unwrap();
        // The pre-cut skipped entries, the exact cutoff or the row cap
        // dropped more, and every row ended at the cap.
        assert!(inflated < touched, "{inflated} of {touched} inflated");
        assert!(kept < inflated, "{kept} kept of {inflated} inflated");
        assert!(kept >= flow.nnz() as u64);
        assert_eq!(flow.nnz(), 120 * 8);
        for name in [metric_names::EXPAND_SPAN, metric_names::VOTE_SPAN] {
            assert_eq!(snap.span(name).unwrap().count, iterations as u64, "{name}");
        }
    }

    #[test]
    fn parallel_kernel_matches_serial() {
        // 40 cliques of 8: enough rows for the pool to schedule several
        // blocks, and a row cap below the clique size so the top-k
        // selection runs over tied flows.
        let mut edges = Vec::new();
        for base in (0..320).step_by(8) {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push((base + i, base + j));
                }
            }
            edges.push((base + 7, (base + 8) % 320));
        }
        let g = UnGraph::from_edges(320, &edges).unwrap();
        let m_g = canonical_flow(&g);
        let opts = MclOptions {
            max_row_nnz: 5,
            ..Default::default()
        };
        let serial = expand_inflate_prune(&m_g, &m_g, &opts, None).unwrap();
        let parallel = expand_inflate_prune_on(&m_g, &m_g, &opts, 3, None, None).unwrap();
        assert_eq!(serial.indptr(), parallel.indptr());
        assert_eq!(serial.indices(), parallel.indices());
        assert_eq!(value_bits(&serial), value_bits(&parallel));
    }

    #[test]
    fn parallel_kernel_small_input_falls_back() {
        let g = two_cliques_un(3);
        let m_g = canonical_flow(&g);
        let opts = MclOptions::default();
        let serial = expand_inflate_prune(&m_g, &m_g, &opts, None).unwrap();
        let parallel = expand_inflate_prune_on(&m_g, &m_g, &opts, 8, None, None).unwrap();
        assert_eq!(serial.indptr(), parallel.indptr());
        assert_eq!(serial.indices(), parallel.indices());
        assert_eq!(value_bits(&serial), value_bits(&parallel));
    }

    #[test]
    fn extract_clusters_follows_attractors() {
        // Row 0 flows to 1, row 1 to 1, row 2 to 2: clusters {0,1}, {2}.
        let m = CsrMatrix::from_dense(&[
            vec![0.2, 0.8, 0.0],
            vec![0.1, 0.9, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let c = extract_clusters(&m);
        assert_eq!(c.n_clusters(), 2);
        assert!(c.same_cluster(0, 1));
        assert!(!c.same_cluster(0, 2));
    }
}
