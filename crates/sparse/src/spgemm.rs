//! Sparse matrix–matrix multiplication (SpGEMM).
//!
//! Gustavson's row-wise algorithm: row `i` of `C = A·B` is the linear
//! combination of the rows of `B` selected by the non-zeros of row `i` of
//! `A`, accumulated per row in the dense scratch of [`crate::accum`].
//! The prune threshold is applied *during* emission, which is what makes
//! the paper's Degree-discounted symmetrization tractable on hub-heavy
//! graphs: the full product is never materialized (§3.5 of the paper).
//!
//! There is one row body per product — [`gustavson_row`] here, the
//! upper-triangle SYRK row in [`crate::syrk`] — and it accumulates a
//! **column range** of its row. The in-memory multiply runs it over the
//! whole row; the out-of-core path in [`crate::panel`] runs the same
//! function over one panel's columns. Two drivers feed the row bodies to
//! the one worker pool in [`crate::sched`]: [`run_rows`] schedules 64-row
//! blocks (a single worker takes all rows as one block, whose buffers
//! become the output without a copy), the panel driver schedules tiles.
//! Blocks are reassembled in index order, so the output and every work
//! counter are bit-identical for any thread count.
//!
//! [`drive`] is the funnel under both public entry points — [`spgemm`] and
//! [`crate::syrk::spgemm_syrk_sum`]: it compares the Gustavson bound with
//! the optional nnz budget and picks the degraded adaptive-threshold loop,
//! the panel driver, or the row-block driver. [`run_rows_with_epilogue`]
//! exposes the row-block driver with a caller-supplied per-row epilogue in
//! place of the threshold filter; R-MCL's expand → inflate → prune step is
//! its client. Its rows of `B` that fill at least a quarter of their
//! column span are copied once per call into zero-filled dense spans
//! ([`DenseSpans`]) and added as contiguous AXPYs. The stored entries get
//! the scatter's products and adds, and the zeros add nothing, so the
//! epilogue sees the scatter's bits in the scatter's order.

use crate::accum::{scatter_scaled, touch_masked, DenseAccum};
use crate::cancel::CancelToken;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::panel::run_panels;
use crate::sched::{run_blocks, worker_count, DEFAULT_BLOCK_ROWS};
use crate::syrk::mirror_upper;
use crate::tuning::Tuning;
use crate::Result;
use symclust_obs::MetricsRegistry;

symclust_obs::metric_names! {
    /// Stable metric names recorded by the SpGEMM kernels (DESIGN.md §11).
    pub mod metric_names {
        /// Kernel invocations (one per top-level SpGEMM call).
        pub const CALLS: &str = "spgemm.calls";
        /// Output rows produced.
        pub const ROWS: &str = "spgemm.rows";
        /// Exact multiply-add count performed. The SYRK kernels count only the
        /// upper-triangle multiply-adds they actually perform — roughly half of
        /// the general kernel's count for the same product.
        pub const FLOPS: &str = "spgemm.flops";
        /// Distinct accumulator entries touched before thresholding
        /// (intermediate nnz).
        pub const NNZ_INTERMEDIATE: &str = "spgemm.nnz_intermediate";
        /// Entries emitted into the output (final nnz). For the SYRK kernels
        /// this counts the upper-triangle entries the row pass emits; the
        /// mirrored lower copies are tallied separately under
        /// [`SYRK_MIRRORED_NNZ`].
        pub const NNZ_FINAL: &str = "spgemm.nnz_final";
        /// Accumulated entries not emitted (threshold, exact zero, or dropped
        /// diagonal).
        pub const THRESHOLD_DROPPED: &str = "spgemm.threshold_dropped";
        /// Times the memory budget forced the degraded adaptive-threshold
        /// path instead of an exact multiply.
        pub const DEGRADED_FALLBACKS: &str = "spgemm.degraded_fallbacks";
        /// Mid-run output compactions performed by the degraded path.
        pub const BUDGET_COMPACTIONS: &str = "spgemm.budget_compactions";
        /// Invocations of the symmetric `X·Xᵀ` (SYRK) kernel family. Each also
        /// counts once under [`CALLS`].
        pub const SYRK_CALLS: &str = "spgemm.syrk_calls";
        /// Lower-triangle entries materialized by the SYRK mirror pass (the
        /// multiply-adds the symmetric kernel *skipped*; full output nnz is
        /// [`NNZ_FINAL`] + this).
        pub const SYRK_MIRRORED_NNZ: &str = "spgemm.syrk_mirrored_nnz";
        /// Span: the row pass that accumulates and emits every output row —
        /// in memory, by panels or degraded (one observation per product).
        pub const ROW_PASS_SPAN: &str = "spgemm.row_pass";
        /// Span: the SYRK mirror pass that fills the lower triangle in place
        /// (one observation per SYRK product; none for a general product).
        pub const MIRROR_SPAN: &str = "spgemm.mirror";
        /// Row blocks executed by a worker other than their initial owner
        /// under the work-stealing scheduler. Scheduling-dependent: varies
        /// with thread count and machine load (not pinned by golden counts),
        /// but a persistently high ratio versus total blocks on a skewed graph
        /// is the load-balancing at work.
        pub const SCHED_STEALS: &str = "spgemm.sched_steals";
        /// Panel-pair tiles executed by the out-of-core panel path (0 when the
        /// in-memory path ran). A function of the matrix shape and the
        /// configured panel size only, so deterministic and pinned.
        pub const PANELS: &str = "spgemm.panels";
        /// Tiles whose partial products were spilled to scratch files under
        /// the panel byte budget. The spill plan is decided from a
        /// structure-only estimate *before* execution (see [`crate::panel`]),
        /// so the count never depends on scheduling or thread count.
        pub const PANEL_SPILLS: &str = "spgemm.panel_spills";
        /// Bytes written to spill files: 12 bytes (`u32` column + `f64` value)
        /// per spilled intermediate entry. Deterministic for a fixed input,
        /// panel size and budget.
        pub const SPILL_BYTES: &str = "spgemm.spill_bytes";
    }
}

/// Work counts accumulated in plain locals during a kernel run and
/// flushed to the registry once per call — the atomics are never touched
/// in the row loop.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SpgemmCounts {
    pub(crate) rows: u64,
    pub(crate) flops: u64,
    pub(crate) touched: u64,
    pub(crate) emitted: u64,
    pub(crate) panels: u64,
    pub(crate) panel_spills: u64,
    pub(crate) spill_bytes: u64,
    /// Blocks executed by a worker other than their initial owner (0 on
    /// one worker). The one scheduling-dependent count.
    pub(crate) steals: u64,
}

impl SpgemmCounts {
    pub(crate) fn merge(&mut self, other: &SpgemmCounts) {
        self.rows += other.rows;
        self.flops += other.flops;
        self.touched += other.touched;
        self.emitted += other.emitted;
        self.panels += other.panels;
        self.panel_spills += other.panel_spills;
        self.spill_bytes += other.spill_bytes;
        self.steals += other.steals;
    }

    pub(crate) fn flush(&self, metrics: Option<&MetricsRegistry>) {
        let Some(m) = metrics else { return };
        m.counter(metric_names::CALLS).inc();
        m.counter(metric_names::ROWS).add(self.rows);
        m.counter(metric_names::FLOPS).add(self.flops);
        m.counter(metric_names::NNZ_INTERMEDIATE).add(self.touched);
        m.counter(metric_names::NNZ_FINAL).add(self.emitted);
        m.counter(metric_names::THRESHOLD_DROPPED)
            .add(self.touched - self.emitted);
        m.counter(metric_names::PANELS).add(self.panels);
        m.counter(metric_names::PANEL_SPILLS).add(self.panel_spills);
        m.counter(metric_names::SPILL_BYTES).add(self.spill_bytes);
        m.counter(metric_names::SCHED_STEALS).add(self.steals);
    }
}

/// What an SpGEMM call computes (`threshold`, `drop_diagonal`,
/// `nnz_budget`) and, in one field, how it runs ([`Tuning`]).
#[derive(Debug, Clone, Default)]
pub struct SpgemmOptions {
    /// Entries with value strictly below this threshold are discarded from
    /// the output (applied to the final accumulated value of each entry).
    /// Must be finite and non-negative; the multiply rejects anything else
    /// with [`SparseError::InvalidArgument`].
    pub threshold: f64,
    /// When true, diagonal entries of the output are discarded. Similarity
    /// matrices use this: self-similarity carries no clustering signal.
    pub drop_diagonal: bool,
    /// Output-size budget in stored entries. If the Gustavson upper bound
    /// on the output nnz fits, the multiply is exact. Otherwise it degrades
    /// gracefully instead of aborting: it runs on one thread with an
    /// *adaptive* threshold — whenever the accumulated output exceeds the
    /// budget, the threshold is raised to the magnitude that keeps roughly
    /// half the budget's strongest entries and the output built so far is
    /// compacted. The result is a deterministic, thresholded approximation
    /// whose memory never grows past O(budget) plus one accumulator row,
    /// flagged [`SpgemmOutput::degraded`]. Default `None` (always exact).
    pub nnz_budget: Option<usize>,
    /// Threads and panel plan. Never changes the output; the
    /// default is [`Tuning::from_env`].
    pub tuning: Tuning,
}

/// A product plus its degradation provenance.
#[derive(Debug, Clone)]
pub struct SpgemmOutput {
    /// The (possibly additionally thresholded) product.
    pub matrix: CsrMatrix,
    /// Whether [`SpgemmOptions::nnz_budget`] forced a degraded (adaptively
    /// thresholded) computation instead of the exact one.
    pub degraded: bool,
    /// The threshold in effect when the last row was produced. Equals
    /// `opts.threshold` when not degraded.
    pub threshold_used: f64,
    /// The Gustavson upper bound on the exact output nnz: every
    /// multiply-add produces at most one output entry, so the FLOP count
    /// of the row pass bounds the output size. This is what the budget is
    /// compared against *before* anything output-sized is allocated.
    pub estimated_nnz: usize,
}

fn check_dims(a: &CsrMatrix, b: &CsrMatrix) -> Result<()> {
    if a.n_cols() != b.n_rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (b.n_rows(), b.n_cols()),
        });
    }
    Ok(())
}

/// Whether an accumulated entry survives emission for output row `row`.
/// The tests are joined by `&`, not `&&`, so the answer is computed
/// without a branch: the SYRK row adds it to a length.
#[inline]
pub(crate) fn emits(v: f64, j: u32, row: usize, opts: &SpgemmOptions) -> bool {
    (v != 0.0) & (v.abs() >= opts.threshold) & !(opts.drop_diagonal & (j as usize == row))
}

/// The column range `[lo, hi)` of an output row that one call of a row
/// body accumulates. The in-memory drivers pass the whole row; a panel
/// tile passes its column panel. Restricting a row's scatter/gather to a
/// sorted column subrange preserves, for every output column, the exact
/// sequence of `f64` adds the whole-row call performs (see
/// [`crate::panel`]), so concatenating a row's ranges in order is the
/// whole row, bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColRange {
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    /// Whether this range counts the row under `rows`. Exactly one range
    /// of each row does; FLOPs / touched / emitted are counted by every
    /// range over its own columns and sum to the whole-row totals.
    pub(crate) owner: bool,
}

impl ColRange {
    /// The whole row.
    pub(crate) fn full(n_cols: usize) -> Self {
        ColRange {
            lo: 0,
            hi: n_cols,
            owner: true,
        }
    }

    /// Restricts one sorted factor row to the range. Rows that already lie
    /// inside it — every row of a whole-row call — skip the binary search.
    #[inline]
    pub(crate) fn clip<'a>(&self, cols: &'a [u32], vals: &'a [f64]) -> (&'a [u32], &'a [f64]) {
        let start = match cols.first() {
            Some(&j) if (j as usize) < self.lo => cols.partition_point(|&j| (j as usize) < self.lo),
            _ => 0,
        };
        let end = match cols.last() {
            Some(&j) if j as usize >= self.hi => cols.partition_point(|&j| (j as usize) < self.hi),
            _ => cols.len(),
        };
        (&cols[start..end], &vals[start..end])
    }
}

/// What a Gustavson row does with its accumulated entries.
pub(crate) enum Finish<'a, E> {
    /// Emit, in ascending column order, the entries that pass the options'
    /// threshold and diagonal filter.
    Filter(&'a SpgemmOptions),
    /// Hand the row to a caller epilogue and emit what it leaves (see
    /// [`run_rows_with_epilogue`]). The rows of `B` that `spans` holds
    /// accumulate as contiguous AXPYs.
    Epilogue(&'a E, &'a DenseSpans),
}

/// A row of `B` is stored as a dense span when its nnz is at least
/// `1 / DENSE_SPAN_FILL` of its column span (`last − first + 1`). So the
/// spans together hold at most `DENSE_SPAN_FILL · nnz(B)` values.
const DENSE_SPAN_FILL: usize = 4;

/// The rows of `B` dense enough within their column span, copied once per
/// [`run_rows_with_epilogue`] call into contiguous `f64` spans with zeros
/// where `B` stores nothing, each with a bit mask of its stored columns.
/// An epilogue row then adds such a row with one AXPY instead of one
/// indexed read-modify-write per entry, and finds its first touches a
/// 64-column word at a time (DESIGN.md §16, "Dense spans").
pub(crate) struct DenseSpans {
    /// `offsets[k]..offsets[k + 1]` is row `k`'s span in `values`. It is
    /// empty for a row kept sparse.
    offsets: Vec<usize>,
    values: Vec<f64>,
    /// `mask_offsets[k]..mask_offsets[k + 1]` is row `k`'s stored columns
    /// in `masks`, one bit per column, in whole words from word
    /// `first / 64` on.
    mask_offsets: Vec<usize>,
    masks: Vec<u64>,
}

impl DenseSpans {
    pub(crate) fn new(b: &CsrMatrix) -> Self {
        // Row `k`'s first and last column when it is stored densely:
        // `nnz · DENSE_SPAN_FILL ≥ last − first + 1`.
        let dense = |k: usize| {
            let cols = b.row_indices(k);
            let (&first, &last) = (cols.first()?, cols.last()?);
            let (first, last) = (first as usize, last as usize);
            (cols.len() * DENSE_SPAN_FILL > last - first).then_some((first, last))
        };
        // Sized first and allocated once: the buffers are rebuilt on every
        // call, and growing them would hold two copies at once.
        let mut offsets = Vec::with_capacity(b.n_rows() + 1);
        let mut mask_offsets = Vec::with_capacity(b.n_rows() + 1);
        let (mut n_values, mut n_words) = (0, 0);
        offsets.push(0);
        mask_offsets.push(0);
        for k in 0..b.n_rows() {
            if let Some((first, last)) = dense(k) {
                n_values += last - first + 1;
                n_words += last / 64 - first / 64 + 1;
            }
            offsets.push(n_values);
            mask_offsets.push(n_words);
        }
        let (mut values, mut masks) = (vec![0.0; n_values], vec![0u64; n_words]);
        for k in 0..b.n_rows() {
            let Some((first, _)) = dense(k) else { continue };
            let (at, mask_at) = (offsets[k], mask_offsets[k]);
            for (&j, &v) in b.row_indices(k).iter().zip(b.row_values(k)) {
                let j = j as usize;
                values[at + j - first] = v;
                masks[mask_at + j / 64 - first / 64] |= 1 << (j % 64);
            }
        }
        DenseSpans {
            offsets,
            values,
            mask_offsets,
            masks,
        }
    }

    /// Row `k`'s dense span, starting at its first column, and its mask;
    /// `None` when the row is kept sparse.
    #[inline]
    fn row(&self, k: usize) -> Option<(&[f64], &[u64])> {
        let values = &self.values[self.offsets[k]..self.offsets[k + 1]];
        let mask = &self.masks[self.mask_offsets[k]..self.mask_offsets[k + 1]];
        (!values.is_empty()).then_some((values, mask))
    }
}

/// The `Finish` of a multiply without an epilogue.
type NoEpilogue = fn(usize, &mut Vec<(u32, f64)>);

/// The row's Gustavson multiply-add count: the §3.6-style upper bound on
/// the row's intermediate width (every product touches at most one
/// distinct column). Summed over the rows, it is the output-size estimate
/// [`drive`] compares with the nnz budget.
pub(crate) fn gustavson_width(a: &CsrMatrix, b: &CsrMatrix, row: usize) -> usize {
    a.row_indices(row)
        .iter()
        .map(|&k| b.row_nnz(k as usize))
        .sum()
}

/// The Gustavson row body: accumulates columns `cols` of row `row` of
/// `A·B` and appends what `finish` emits to `(indices, values)`, in
/// ascending column order.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gustavson_row<E>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    row: usize,
    cols: ColRange,
    scratch: &mut RowScratch,
    finish: &Finish<'_, E>,
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
    counts: &mut SpgemmCounts,
) where
    E: Fn(usize, &mut Vec<(u32, f64)>),
{
    let emitted_before = indices.len();
    // Spans hold whole rows of `B`, so only a whole-row call uses them.
    let spans = match finish {
        Finish::Filter(_) => None,
        Finish::Epilogue(_, spans) => {
            let whole_row = cols.lo == 0 && cols.hi == b.n_cols();
            (whole_row && !spans.values.is_empty()).then_some(*spans)
        }
    };
    if cols.owner {
        counts.rows += 1;
    }
    let RowScratch {
        acc,
        touched,
        pairs,
        seen,
    } = scratch;
    acc.begin_row();
    touched.clear();
    if spans.is_some() {
        seen.fill(0);
    }
    let width = cols.hi - cols.lo;
    for (k, av) in a.row_iter(row) {
        let k = k as usize;
        let (bcols, bvals) = cols.clip(b.row_indices(k), b.row_values(k));
        counts.flops += bcols.len() as u64;
        // ∞ · 0.0 is NaN: only a finite `av` may add the span's zeros.
        let span = spans.and_then(|s| s.row(k)).filter(|_| av.is_finite());
        let Some((span, mask)) = span else {
            scatter_scaled(acc, touched, av, bcols, bvals);
            continue;
        };
        // First touches in the scatter's order, until every column of the
        // output is touched; then one AXPY does the adds. At stored
        // positions it is the scatter's product and add. At the others it
        // adds `av · 0.0 = ±0.0`, which leaves a touched slot alone: its
        // sum started at +0.0, and in round-to-nearest such a sum never
        // becomes -0.0.
        let lo = bcols[0] as usize;
        if touched.len() < width {
            touch_masked(acc, seen, touched, lo / 64, mask);
        }
        acc.axpy(lo, av, span);
    }
    counts.touched += touched.len() as u64;
    match finish {
        Finish::Filter(opts) => {
            touched.sort_unstable();
            for &j in touched.iter() {
                let v = acc.get(j);
                if emits(v, j, row, opts) {
                    indices.push(j);
                    values.push(v);
                }
            }
        }
        Finish::Epilogue(epilogue, _) => {
            pairs.clear();
            pairs.extend(touched.iter().map(|&j| (j, acc.get(j))));
            epilogue(row, pairs);
            debug_assert!(
                pairs.windows(2).all(|w| w[0].0 < w[1].0),
                "a row epilogue must leave its entries in ascending column order"
            );
            for &(j, v) in pairs.iter() {
                indices.push(j);
                values.push(v);
            }
        }
    }
    counts.emitted += (indices.len() - emitted_before) as u64;
}

/// Per-worker scratch for the general Gustavson kernel: the dense
/// epoch-stamped accumulator, its duplicate-free touched-column list, and
/// the `(column, value)` buffer an epilogue edits its row in. Both buffers
/// are reused across every row the worker executes, so each is allocated
/// at its high-water mark once. `seen` holds, one bit per column, the
/// columns a row has touched through dense-span masks (see
/// [`touch_masked`]).
pub(crate) struct RowScratch {
    acc: DenseAccum,
    touched: Vec<u32>,
    pairs: Vec<(u32, f64)>,
    seen: Vec<u64>,
}

impl RowScratch {
    pub(crate) fn new(n_cols: usize) -> Self {
        RowScratch {
            acc: DenseAccum::new(n_cols),
            touched: Vec::new(),
            pairs: Vec::new(),
            seen: vec![0; n_cols.div_ceil(64)],
        }
    }
}

/// Consecutive output rows restricted to one column range: the unit of
/// work both drivers hand the pool (a row block, or a panel tile).
/// `row_lens[i]` entries of `(indices, values)` belong to the `i`-th row,
/// in row-major, ascending-column order.
#[derive(Debug, Default)]
pub(crate) struct RowBlock {
    pub(crate) row_lens: Vec<u32>,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f64>,
}

/// Runs `row_kernel` over `rows`, polling `token` before each row.
/// `row_kernel(row, indices, values)` appends the row's entries.
pub(crate) fn fill_block(
    rows: std::ops::Range<usize>,
    token: Option<&CancelToken>,
    mut row_kernel: impl FnMut(usize, &mut Vec<u32>, &mut Vec<f64>),
) -> Result<RowBlock> {
    let mut block = RowBlock {
        row_lens: Vec::with_capacity(rows.len()),
        ..Default::default()
    };
    for row in rows {
        if let Some(t) = token {
            t.checkpoint()?;
        }
        let before = block.indices.len();
        row_kernel(row, &mut block.indices, &mut block.values);
        block.row_lens.push((block.indices.len() - before) as u32);
    }
    Ok(block)
}

/// Output triple (plus work counters) of a driver run, shared between the
/// general and SYRK entry points.
#[derive(Debug)]
pub(crate) struct RowKernelOutput {
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f64>,
    pub(crate) counts: SpgemmCounts,
}

/// The row-block driver: runs `kernel` over every output row, whole rows,
/// under the worker pool, and assembles the rows in order.
///
/// `kernel(row, cols, scratch, indices, values, counts)` must append
/// columns `cols` of row `row` to `(indices, values)` in ascending column
/// order and leave `scratch` clean for the next row. `new_scratch` builds
/// one per-worker scratch, reused across every block that worker executes.
pub(crate) fn run_rows<S, N, K>(
    n_rows: usize,
    n_cols: usize,
    n_threads: usize,
    token: Option<&CancelToken>,
    new_scratch: N,
    kernel: K,
) -> Result<RowKernelOutput>
where
    N: Fn() -> S + Sync,
    K: Fn(usize, ColRange, &mut S, &mut Vec<u32>, &mut Vec<f64>, &mut SpgemmCounts) + Sync,
{
    let n_workers = worker_count(n_threads, n_rows);
    // A lone worker takes every row as one block: the block's buffers
    // become the output as they are, where stitching 64-row blocks would
    // hold a second copy of it.
    let block_rows = if n_workers == 1 {
        n_rows.max(1)
    } else {
        DEFAULT_BLOCK_ROWS
    };
    let cols = ColRange::full(n_cols);
    let (blocks, counts) = run_blocks(
        n_rows.div_ceil(block_rows),
        n_workers,
        new_scratch,
        |block, scratch, counts| {
            let lo = block * block_rows;
            let hi = (lo + block_rows).min(n_rows);
            fill_block(lo..hi, token, |row, indices, values| {
                kernel(row, cols, scratch, indices, values, counts)
            })
        },
    )?;

    let mut indptr = Vec::with_capacity(n_rows + 1);
    let mut end = 0usize;
    indptr.push(end);
    for len in blocks.iter().flat_map(|b| &b.row_lens) {
        end += *len as usize;
        indptr.push(end);
    }
    debug_assert_eq!(indptr.len(), n_rows + 1, "blocks must cover every row");
    let mut blocks = blocks.into_iter();
    let RowBlock {
        mut indices,
        mut values,
        ..
    } = blocks.next().unwrap_or_default();
    indices.reserve_exact(end - indices.len());
    values.reserve_exact(end - values.len());
    for b in blocks {
        indices.extend_from_slice(&b.indices);
        values.extend_from_slice(&b.values);
    }
    Ok(RowKernelOutput {
        indptr,
        indices,
        values,
        counts,
    })
}

/// The degraded path of an over-budget multiply: whole rows, in order, on
/// the calling thread, raising the threshold and compacting the output
/// built so far whenever it outgrows `budget` entries. Returns the output
/// and the threshold in effect at the last row.
#[allow(clippy::too_many_arguments)]
fn run_degraded<S, B>(
    n_rows: usize,
    n_cols: usize,
    budget: usize,
    opts: &SpgemmOptions,
    token: Option<&CancelToken>,
    metrics: Option<&MetricsRegistry>,
    mut scratch: S,
    body: &B,
) -> Result<(RowKernelOutput, f64)>
where
    B: Fn(usize, ColRange, &mut S, &SpgemmOptions, &mut Vec<u32>, &mut Vec<f64>, &mut SpgemmCounts),
{
    if let Some(m) = metrics {
        m.counter(metric_names::DEGRADED_FALLBACKS).inc();
    }
    let cols = ColRange::full(n_cols);
    let mut compactions = 0u64;
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut live_opts = opts.clone();
    let mut counts = SpgemmCounts::default();
    for row in 0..n_rows {
        if let Some(t) = token {
            t.checkpoint()?;
        }
        body(
            row,
            cols,
            &mut scratch,
            &live_opts,
            &mut indices,
            &mut values,
            &mut counts,
        );
        indptr.push(indices.len());
        if values.len() > budget {
            live_opts.threshold = raised_threshold(&values, live_opts.threshold, budget);
            compact_thresholded(&mut indptr, &mut indices, &mut values, live_opts.threshold);
            compactions += 1;
        }
    }
    // Compactions may have removed entries counted as emitted; the final
    // output length is the true final nnz.
    counts.emitted = indices.len() as u64;
    if let Some(m) = metrics {
        m.counter(metric_names::BUDGET_COMPACTIONS).add(compactions);
    }
    let out = RowKernelOutput {
        indptr,
        indices,
        values,
        counts,
    };
    Ok((out, live_opts.threshold))
}

/// Rejects a product threshold that is NaN, infinite or negative: no
/// entry passes a NaN or infinite one, and a negative one means zero.
/// Every product checks its threshold here, and a front end that takes a
/// threshold from its user checks it here before any work starts.
pub fn check_threshold(threshold: f64) -> Result<()> {
    if threshold.is_finite() && threshold >= 0.0 {
        Ok(())
    } else {
        Err(SparseError::InvalidArgument(format!(
            "spgemm threshold must be finite and non-negative, got {threshold}"
        )))
    }
}

/// The funnel under both entry points: sums the per-row Gustavson bound
/// (`row_width`), and runs `body` through the degraded loop when the bound
/// exceeds [`SpgemmOptions::nnz_budget`], through the panel driver when
/// the plan is engaged, and through the row-block driver otherwise. The
/// `spgemm.*` work counters are flushed to `metrics` once, on success.
///
/// `upper` marks a square upper-triangle (SYRK) product: its panel grid is
/// triangular, its degraded pass may keep only half the budget, and its
/// rows are mirrored into the full symmetric matrix before it is
/// returned. The mirror grows the row pass's own buffers in place, so the
/// upper triangle and the full matrix are never held side by side. The
/// row pass is timed under the `spgemm.row_pass` span, the mirror under
/// `spgemm.mirror`.
///
/// The threshold is held to [`check_threshold`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<S, N, B>(
    n_rows: usize,
    n_cols: usize,
    upper: bool,
    opts: &SpgemmOptions,
    token: Option<&CancelToken>,
    metrics: Option<&MetricsRegistry>,
    row_width: impl Fn(usize) -> usize,
    new_scratch: N,
    body: B,
) -> Result<SpgemmOutput>
where
    N: Fn() -> S + Sync,
    B: Fn(usize, ColRange, &mut S, &SpgemmOptions, &mut Vec<u32>, &mut Vec<f64>, &mut SpgemmCounts)
        + Sync,
{
    check_threshold(opts.threshold)?;
    let estimated_nnz: usize = (0..n_rows).map(&row_width).sum();
    let over_budget = match opts.nnz_budget {
        Some(0) => {
            return Err(SparseError::InvalidArgument(
                "spgemm budget must be positive".into(),
            ))
        }
        Some(budget) if estimated_nnz > budget => Some(budget),
        _ => None,
    };
    let span = metrics.map(|m| m.span(metric_names::ROW_PASS_SPAN));
    let (out, degraded, threshold_used) = if let Some(budget) = over_budget {
        let budget = if upper { (budget / 2).max(1) } else { budget };
        let (out, threshold_used) = run_degraded(
            n_rows,
            n_cols,
            budget,
            opts,
            token,
            metrics,
            new_scratch(),
            &body,
        )?;
        (out, true, threshold_used)
    } else {
        let kernel = |row: usize,
                      cols: ColRange,
                      scratch: &mut S,
                      indices: &mut Vec<u32>,
                      values: &mut Vec<f64>,
                      counts: &mut SpgemmCounts| {
            body(row, cols, scratch, opts, indices, values, counts)
        };
        let tuning = &opts.tuning;
        let out = if tuning.panel.engaged() {
            run_panels(
                n_rows,
                n_cols,
                upper,
                &tuning.panel,
                tuning.threads,
                token,
                row_width,
                new_scratch,
                kernel,
            )?
        } else {
            run_rows(n_rows, n_cols, tuning.threads, token, new_scratch, kernel)?
        };
        (out, false, opts.threshold)
    };
    drop(span);
    let RowKernelOutput {
        mut indptr,
        mut indices,
        mut values,
        counts,
    } = out;
    counts.flush(metrics);
    if upper {
        let span = metrics.map(|m| m.span(metric_names::MIRROR_SPAN));
        let mirrored = mirror_upper(&mut indptr, &mut indices, &mut values);
        drop(span);
        if let Some(m) = metrics {
            m.counter(metric_names::SYRK_CALLS).inc();
            m.counter(metric_names::SYRK_MIRRORED_NNZ).add(mirrored);
        }
    }
    Ok(SpgemmOutput {
        matrix: CsrMatrix::from_raw_parts_unchecked(n_rows, n_cols, indptr, indices, values),
        degraded,
        threshold_used,
        estimated_nnz,
    })
}

/// Gustavson SpGEMM: `C = A·B`, pruned on the fly per [`SpgemmOptions`].
///
/// `opts.tuning.threads` alone decides between one thread and the
/// work-stealing pool; `token`, when given, is polled between output rows
/// and trips the call with [`SparseError::Cancelled`]; work counts (rows,
/// flops, intermediate/final nnz, threshold drops — see [`metric_names`])
/// are accumulated in locals and flushed to `metrics` once at the end of
/// the call.
pub fn spgemm(
    a: &CsrMatrix,
    b: &CsrMatrix,
    opts: &SpgemmOptions,
    token: Option<&CancelToken>,
    metrics: Option<&MetricsRegistry>,
) -> Result<SpgemmOutput> {
    check_dims(a, b)?;
    let n_cols = b.n_cols();
    drive(
        a.n_rows(),
        n_cols,
        false,
        opts,
        token,
        metrics,
        |row| gustavson_width(a, b, row),
        || RowScratch::new(n_cols),
        |row, cols, scratch: &mut RowScratch, opts, indices, values, counts| {
            let finish = Finish::<NoEpilogue>::Filter(opts);
            gustavson_row(a, b, row, cols, scratch, &finish, indices, values, counts);
        },
    )
}

/// The row-block driver with a caller-supplied row epilogue in place of
/// the threshold filter: computes `C = A·B` row by row and lets `epilogue`
/// decide what each row emits.
///
/// `epilogue(row, entries)` receives the accumulated `(column, value)`
/// entries of row `row` in **first-touch order** — the order the dense
/// accumulator first saw each column, ascending `k` then ascending column
/// within `B`'s row `k`; never sorted, so order-sensitive selections (a
/// `select_nth_unstable` top-k over tied values) see a fixed sequence at
/// any thread count. It edits `entries` in place; whatever it leaves is
/// the output row and must be in ascending column order.
///
/// Rows of `b` with nnz at least a quarter of their column span are
/// copied once per call into dense spans: at most four values per stored
/// entry plus one mask bit per spanned column. A row of `a` adds them as
/// contiguous AXPYs when its value is finite. The entries, their bits
/// and their order are those of the per-entry scatter.
///
/// Runs on one thread when `n_threads` is 1 (`0` = all cores), polls
/// `token` before every row, and surfaces a panicking epilogue as
/// [`SparseError::WorkerPanic`]. Records no metrics.
pub fn run_rows_with_epilogue<E>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    n_threads: usize,
    token: Option<&CancelToken>,
    epilogue: E,
) -> Result<CsrMatrix>
where
    E: Fn(usize, &mut Vec<(u32, f64)>) + Sync,
{
    check_dims(a, b)?;
    let (n_rows, n_cols) = (a.n_rows(), b.n_cols());
    let spans = DenseSpans::new(b);
    let finish = Finish::Epilogue(&epilogue, &spans);
    let out = run_rows(
        n_rows,
        n_cols,
        n_threads,
        token,
        || RowScratch::new(n_cols),
        |row, cols, scratch: &mut RowScratch, indices, values, counts| {
            gustavson_row(a, b, row, cols, scratch, &finish, indices, values, counts);
        },
    )?;
    Ok(CsrMatrix::from_raw_parts_unchecked(
        n_rows,
        n_cols,
        out.indptr,
        out.indices,
        out.values,
    ))
}

/// Estimated number of multiply-adds for `A·B` (the paper's Σᵢ dᵢ² bound
/// specializes this to `A·Aᵀ`). Useful for predicting symmetrization cost;
/// it is also the Gustavson upper bound on `nnz(A·B)` that
/// [`SpgemmOptions::nnz_budget`] is compared against.
pub fn spgemm_flops(a: &CsrMatrix, b: &CsrMatrix) -> usize {
    (0..a.n_rows()).map(|r| gustavson_width(a, b, r)).sum()
}

/// The adaptive-threshold raise used by the budget-degraded paths: the
/// magnitude of the ~(budget/2)-th strongest entry seen so far. Halving
/// (instead of trimming to exactly the budget) keeps compactions O(log)
/// in number rather than per-row.
pub(crate) fn raised_threshold(values: &[f64], current: f64, budget_nnz: usize) -> f64 {
    let keep = (budget_nnz / 2).max(1);
    let mut mags: Vec<f64> = values.iter().map(|v| v.abs()).collect();
    let kth = keep.min(mags.len()) - 1;
    mags.select_nth_unstable_by(kth, |x, y| y.total_cmp(x));
    current.max(mags[kth])
}

/// Drops entries with `|v| < threshold` from a partially-built CSR triple
/// in place, rewriting `indptr` for the rows emitted so far.
pub(crate) fn compact_thresholded(
    indptr: &mut [usize],
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
    threshold: f64,
) {
    let mut write = 0usize;
    let mut read_row_end = 0usize;
    for p in indptr.iter_mut().skip(1) {
        let row_start = read_row_end;
        read_row_end = *p;
        for read in row_start..read_row_end {
            if values[read].abs() >= threshold {
                indices[write] = indices[read];
                values[write] = values[read];
                write += 1;
            }
        }
        *p = write;
    }
    indices.truncate(write);
    values.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::transpose;

    /// `A·B` under `opts`, no token, no metrics.
    fn mul_with(a: &CsrMatrix, b: &CsrMatrix, opts: &SpgemmOptions) -> CsrMatrix {
        spgemm(a, b, opts, None, None).unwrap().matrix
    }

    /// `A·B` on one thread with default options.
    fn mul(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        mul_with(a, b, &threads(1))
    }

    fn threads(threads: usize) -> SpgemmOptions {
        SpgemmOptions {
            tuning: Tuning {
                threads,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn budget(nnz_budget: usize) -> SpgemmOptions {
        SpgemmOptions {
            nnz_budget: Some(nnz_budget),
            ..Default::default()
        }
    }

    fn dense_mul(a: &CsrMatrix, b: &CsrMatrix) -> Vec<Vec<f64>> {
        let (n, k, m) = (a.n_rows(), a.n_cols(), b.n_cols());
        let da = a.to_dense();
        let db = b.to_dense();
        let mut out = vec![vec![0.0; m]; n];
        for i in 0..n {
            for l in 0..k {
                if da[i][l] == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[i][j] += da[i][l] * db[l][j];
                }
            }
        }
        out
    }

    #[test]
    fn spgemm_matches_dense_reference() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0, 0.0], vec![0.0, 3.0, 4.0]]);
        let b = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]);
        let c = mul(&a, &b);
        c.validate().unwrap();
        assert_eq!(c.to_dense(), dense_mul(&a, &b));
    }

    #[test]
    fn spgemm_identity_is_noop() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![3.0, 0.0]]);
        let i = CsrMatrix::identity(2);
        assert_eq!(mul(&a, &i), a);
        assert_eq!(mul(&i, &a), a);
    }

    #[test]
    fn spgemm_rejects_bad_dims() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(spgemm(&a, &b, &SpgemmOptions::default(), None, None).is_err());
    }

    #[test]
    fn aat_is_symmetric_and_counts_common_outlinks() {
        // Figure-1-style: rows 0 and 1 both point at columns 2 and 3.
        let a = CsrMatrix::from_dense(&[
            vec![0.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
        ]);
        let b = mul(&a, &transpose(&a));
        assert!(b.is_symmetric(0.0));
        assert_eq!(b.get(0, 1), 2.0); // two shared out-links
        assert_eq!(b.get(0, 0), 2.0); // self-similarity = out-degree
        assert_eq!(b.get(2, 3), 0.0);
    }

    #[test]
    fn threshold_prunes_small_products() {
        let a = CsrMatrix::from_dense(&[vec![0.5, 1.0], vec![1.0, 1.0]]);
        let opts = SpgemmOptions {
            threshold: 1.2,
            ..Default::default()
        };
        let c = mul_with(&a, &a, &opts);
        let full = mul(&a, &a);
        for (r, col, v) in full.iter() {
            if v.abs() >= 1.2 {
                assert_eq!(c.get(r, col as usize), v);
            } else {
                assert_eq!(c.get(r, col as usize), 0.0);
            }
        }
    }

    #[test]
    fn drop_diagonal_option() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let opts = SpgemmOptions {
            drop_diagonal: true,
            ..Default::default()
        };
        let c = mul_with(&a, &a, &opts);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(1, 1), 0.0);
        assert_eq!(c.get(0, 1), 2.0);
    }

    fn pseudo_random_matrix(n: usize, seed: u64, density_shift: u32) -> CsrMatrix {
        let mut rows = vec![vec![0.0; n]; n];
        let mut state = seed;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> (64 - density_shift) == 0 {
                    *v = ((state >> 32) % 7 + 1) as f64;
                }
            }
        }
        CsrMatrix::from_dense(&rows)
    }

    #[test]
    fn parallel_matches_serial() {
        // Deterministic pseudo-random matrix, large enough to split.
        let a = pseudo_random_matrix(64, 0x243F6A8885A308D3, 4);
        let serial = mul(&a, &a);
        let parallel = mul_with(&a, &a, &threads(4));
        parallel.validate().unwrap();
        assert_eq!(serial.indptr(), parallel.indptr());
        assert_eq!(serial.indices(), parallel.indices());
        for (s, p) in serial.values().iter().zip(parallel.values()) {
            assert!((s - p).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_is_identical_across_thread_counts() {
        // Bit-identical output regardless of scheduling: the block
        // assembly is deterministic even when every block is stolen.
        let a = pseudo_random_matrix(200, 0x9E3779B97F4A7C15, 3);
        let serial = mul(&a, &a);
        for n_threads in [2, 3, 5, 8] {
            let parallel = mul_with(&a, &a, &threads(n_threads));
            assert_eq!(serial, parallel, "thread count {n_threads}");
        }
    }

    #[test]
    fn parallel_small_input_falls_back_to_serial() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(mul_with(&a, &a, &threads(8)), mul(&a, &a));
    }

    #[test]
    fn worker_panic_becomes_error_not_abort() {
        // A panic inside a worker's row kernel must surface as
        // SparseError::WorkerPanic from the runner, not kill the process.
        let err = run_rows(
            1024,
            1,
            4,
            None,
            || (),
            |row, _cols, _scratch: &mut (), indices, values, _counts| {
                if row == 700 {
                    panic!("injected row failure");
                }
                indices.push(0);
                values.push(1.0);
            },
        )
        .unwrap_err();
        match err {
            SparseError::WorkerPanic(msg) => assert!(msg.contains("injected row failure")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn epilogue_gets_first_touch_order_and_its_output_is_the_row() {
        let a = pseudo_random_matrix(200, 0x9E3779B97F4A7C15, 3);
        // First-touch order of row `row`: ascending k, then B's row k in
        // column order, each column listed where it first appears.
        let first_touch = |row: usize| {
            let mut order: Vec<u32> = Vec::new();
            for &k in a.row_indices(row) {
                for &j in a.row_indices(k as usize) {
                    if !order.contains(&j) {
                        order.push(j);
                    }
                }
            }
            order
        };
        let reference = mul(&a, &a);
        for n_threads in [1, 4] {
            let c = run_rows_with_epilogue(&a, &a, n_threads, None, |row, entries| {
                let cols: Vec<u32> = entries.iter().map(|e| e.0).collect();
                assert_eq!(cols, first_touch(row), "row {row}");
                entries.sort_unstable_by_key(|e| e.0);
            })
            .unwrap();
            assert_eq!(c, reference, "threads {n_threads}");
        }
    }

    /// A CSR matrix from per-row `(column, value)` lists in column order.
    fn from_rows(n_cols: usize, rows: &[Vec<(u32, f64)>]) -> CsrMatrix {
        let mut indptr = vec![0];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for row in rows {
            indices.extend(row.iter().map(|e| e.0));
            values.extend(row.iter().map(|e| e.1));
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(rows.len(), n_cols, indptr, indices, values).unwrap()
    }

    /// Operands for the dense-span arm. `B` mixes banded rows with gaps,
    /// explicit `0.0` and `-0.0` entries, single-entry rows (span 1),
    /// wide sparse rows and empty rows. `A` has negative values, zeros, and
    /// one infinite value on a banded row of `B`.
    fn span_operands() -> (CsrMatrix, CsrMatrix) {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let n = 120;
        let b_rows: Vec<Vec<(u32, f64)>> = (0..n as u32)
            .map(|k| match k % 4 {
                0 => {
                    // Row 0 covers every column, so a row of `A` that
                    // starts at it has touched them all after one step.
                    let (lo, hi) = if k == 0 {
                        (0, 120)
                    } else {
                        ((k * 7) % 60, (k * 7) % 60 + 20 + k % 17)
                    };
                    (lo..hi)
                        .filter(|j| k == 0 || j % 4 != 1)
                        .map(|j| match j % 7 {
                            0 => (j, 0.0),
                            3 => (j, -0.0),
                            _ => (j, next(1000) as f64 / 250.0 - 2.0),
                        })
                        .collect()
                }
                1 => vec![(k % 10, 0.75), (40 + k % 7, -1.5), (119, 2.0)],
                2 => vec![(k % 50, next(100) as f64 / 16.0 - 3.0)],
                _ => Vec::new(),
            })
            .collect();
        let a_rows: Vec<Vec<(u32, f64)>> = (0..300)
            .map(|i| {
                let mut cols: Vec<u32> = (0..8).map(|_| next(n) as u32).collect();
                if i % 10 == 0 {
                    cols.push(0);
                }
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|k| (k, next(13) as f64 / 2.0 - 3.0))
                    .collect()
            })
            .collect();
        let mut a = from_rows(n as usize, &a_rows);
        // `from_raw_parts` refuses non-finite values; write one in place, on
        // a banded row of `B`, in a row of `A` that also reads row 0. Row 0
        // touches every column, so `∞ · 0.0` in the band's gaps would show.
        let at = (0..a.n_rows())
            .step_by(10)
            .find_map(|r| {
                let band = a.row_indices(r).iter().position(|&k| k > 0 && k % 4 == 0);
                band.map(|i| a.indptr()[r] + i)
            })
            .unwrap();
        a.values_mut()[at] = f64::INFINITY;
        (a, from_rows(n as usize, &b_rows))
    }

    /// Every row's epilogue input of `A·B`, `(column, value bits)` in the
    /// order the epilogue sees it, with `spans` as the dense-span rows.
    /// The epilogue then empties the row (the infinite entry makes
    /// non-finite sums).
    fn epilogue_inputs(
        a: &CsrMatrix,
        b: &CsrMatrix,
        spans: &DenseSpans,
        n_threads: usize,
    ) -> Vec<Vec<(u32, u64)>> {
        let seen = std::sync::Mutex::new(vec![Vec::new(); a.n_rows()]);
        let epilogue = |row: usize, entries: &mut Vec<(u32, f64)>| {
            seen.lock().unwrap()[row] = entries.iter().map(|&(j, v)| (j, v.to_bits())).collect();
            entries.clear();
        };
        let finish = Finish::Epilogue(&epilogue, spans);
        run_rows(
            a.n_rows(),
            b.n_cols(),
            n_threads,
            None,
            || RowScratch::new(b.n_cols()),
            |row, cols, scratch: &mut RowScratch, indices, values, counts| {
                gustavson_row(a, b, row, cols, scratch, &finish, indices, values, counts);
            },
        )
        .unwrap();
        seen.into_inner().unwrap()
    }

    #[test]
    fn dense_span_rows_hand_the_epilogue_the_scatters_bits_in_its_order() {
        let (a, b) = span_operands();
        let spans = DenseSpans::new(&b);
        let dense_rows = (0..b.n_rows()).filter(|&k| spans.row(k).is_some());
        assert_eq!(dense_rows.count(), 60, "banded and single-entry rows");
        assert!(spans.values.len() <= DENSE_SPAN_FILL * b.nnz());
        let scatter_only = DenseSpans {
            offsets: vec![0; b.n_rows() + 1],
            values: Vec::new(),
            mask_offsets: vec![0; b.n_rows() + 1],
            masks: Vec::new(),
        };
        let reference = epilogue_inputs(&a, &b, &scatter_only, 1);
        let mut entries = reference.iter().flatten();
        assert!(
            entries.any(|e| !f64::from_bits(e.1).is_finite()),
            "the infinite `a` value reached the epilogue"
        );
        for n_threads in [1, 3] {
            assert_eq!(
                epilogue_inputs(&a, &b, &spans, n_threads),
                reference,
                "threads {n_threads}"
            );
            assert_eq!(epilogue_inputs(&a, &b, &scatter_only, n_threads), reference);
        }
    }

    #[test]
    fn epilogue_cancelling_at_a_row_stops_before_the_next_on_one_thread() {
        let a = pseudo_random_matrix(64, 0x243F6A8885A308D3, 3);
        let token = crate::cancel::CancelToken::new();
        let called = std::sync::Mutex::new(Vec::new());
        let r = run_rows_with_epilogue(&a, &a, 1, Some(&token), |row, entries| {
            called.lock().unwrap().push(row);
            if row == 17 {
                token.cancel();
            }
            entries.sort_unstable_by_key(|e| e.0);
        });
        assert_eq!(r.err(), Some(SparseError::Cancelled));
        assert_eq!(called.into_inner().unwrap(), (0..=17).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_epilogue_on_the_pool_becomes_worker_panic() {
        let a = pseudo_random_matrix(300, 0x243F6A8885A308D3, 3);
        let err = run_rows_with_epilogue(&a, &a, 4, None, |row, entries| {
            if row == 200 {
                panic!("injected epilogue failure");
            }
            entries.sort_unstable_by_key(|e| e.0);
        })
        .unwrap_err();
        match err {
            SparseError::WorkerPanic(msg) => assert!(msg.contains("injected epilogue failure")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn steals_counter_is_recorded_for_parallel_runs() {
        let a = pseudo_random_matrix(300, 0x243F6A8885A308D3, 3);
        let m = MetricsRegistry::new();
        spgemm(&a, &a, &threads(4), None, Some(&m)).unwrap();
        // The steal count itself is scheduling-dependent; what is
        // guaranteed is that the counter exists after a parallel run.
        assert!(m.snapshot().counter(metric_names::SCHED_STEALS).is_some());
    }

    #[test]
    fn cancelled_token_aborts_serial_and_parallel() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let serial = spgemm(&a, &a, &threads(1), Some(&token), None);
        assert_eq!(serial.err(), Some(SparseError::Cancelled));
        let parallel = spgemm(&a, &a, &threads(4), Some(&token), None);
        assert_eq!(parallel.err(), Some(SparseError::Cancelled));
    }

    #[test]
    fn cancelled_token_aborts_large_parallel_multiply() {
        // Large enough that the parallel path actually spawns workers.
        let a = pseudo_random_matrix(128, 0x243F6A8885A308D3, 3);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let r = spgemm(&a, &a, &threads(4), Some(&token), None);
        assert_eq!(r.err(), Some(SparseError::Cancelled));
    }

    #[test]
    fn live_token_matches_uncancelled_result() {
        let a = CsrMatrix::from_dense(&[
            vec![1.0, 2.0, 0.0],
            vec![0.0, 3.0, 4.0],
            vec![1.0, 0.0, 1.0],
        ]);
        let token = crate::cancel::CancelToken::new();
        let c = spgemm(&a, &a, &threads(1), Some(&token), None).unwrap();
        assert_eq!(c.matrix, mul(&a, &a));
    }

    #[test]
    fn flops_estimate_matches_structure() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        // row0 of A hits rows 0 and 1 of B (nnz 2 + 1), row1 hits row 1 (1).
        assert_eq!(spgemm_flops(&a, &a), 4);
        // The same count is the bound a budget is compared against.
        let r = spgemm(&a, &a, &SpgemmOptions::default(), None, None).unwrap();
        assert_eq!(r.estimated_nnz, 4);
    }

    #[test]
    fn budgeted_within_budget_is_exact() {
        let a = CsrMatrix::from_dense(&[
            vec![1.0, 2.0, 0.0],
            vec![0.0, 3.0, 4.0],
            vec![1.0, 0.0, 1.0],
        ]);
        let r = spgemm(&a, &a, &budget(1_000_000), None, None).unwrap();
        assert!(!r.degraded);
        assert_eq!(r.threshold_used, 0.0);
        assert_eq!(r.matrix, mul(&a, &a));
        assert!(r.estimated_nnz >= r.matrix.nnz());
    }

    #[test]
    fn budgeted_over_budget_degrades_and_respects_budget() {
        // Dense-ish 32x32 product: exact output has ~1024 entries.
        let n = 32;
        let mut rows = vec![vec![0.0; n]; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((state >> 56) % 5) as f64; // many nonzeros, varied values
            }
        }
        let a = CsrMatrix::from_dense(&rows);
        let cap = 64;
        let r = spgemm(&a, &a, &budget(cap), None, None).unwrap();
        assert!(r.degraded);
        assert!(r.threshold_used > 0.0);
        assert!(r.estimated_nnz > cap);
        // The final compaction keeps the output near the budget (it can
        // exceed budget only transiently, between compactions).
        assert!(
            r.matrix.nnz() <= cap + n,
            "nnz {} way over budget {cap}",
            r.matrix.nnz()
        );
        r.matrix.validate().unwrap();
        // Every surviving entry matches the exact product and passes the
        // final threshold.
        let exact = mul(&a, &a);
        for (row, col, v) in r.matrix.iter() {
            assert!((exact.get(row, col as usize) - v).abs() < 1e-12);
            assert!(v.abs() >= r.threshold_used);
        }
        // Degraded output is deterministic.
        let again = spgemm(&a, &a, &budget(cap), None, None).unwrap();
        assert_eq!(r.matrix, again.matrix);
    }

    #[test]
    fn observed_records_exact_work_counters() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let m = MetricsRegistry::new();
        let c = spgemm(&a, &a, &threads(1), None, Some(&m)).unwrap().matrix;
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric_names::CALLS), Some(1));
        assert_eq!(snap.counter(metric_names::ROWS), Some(2));
        assert_eq!(
            snap.counter(metric_names::FLOPS),
            Some(spgemm_flops(&a, &a) as u64)
        );
        assert_eq!(snap.counter(metric_names::NNZ_FINAL), Some(c.nnz() as u64));
        // No threshold, positive values: nothing dropped.
        assert_eq!(snap.counter(metric_names::THRESHOLD_DROPPED), Some(0));
        assert_eq!(
            snap.counter(metric_names::NNZ_INTERMEDIATE),
            Some(c.nnz() as u64)
        );
    }

    #[test]
    fn parallel_observed_counters_match_serial() {
        let a = pseudo_random_matrix(64, 0x243F6A8885A308D3, 4);
        let serial = MetricsRegistry::new();
        spgemm(&a, &a, &threads(1), None, Some(&serial)).unwrap();
        let parallel = MetricsRegistry::new();
        spgemm(&a, &a, &threads(4), None, Some(&parallel)).unwrap();
        for key in [
            metric_names::ROWS,
            metric_names::FLOPS,
            metric_names::NNZ_INTERMEDIATE,
            metric_names::NNZ_FINAL,
            metric_names::THRESHOLD_DROPPED,
        ] {
            assert_eq!(
                serial.snapshot().counter(key),
                parallel.snapshot().counter(key),
                "{key} differs between serial and parallel"
            );
        }
    }

    #[test]
    fn budgeted_degraded_records_fallback_and_compactions() {
        let n = 32;
        let mut rows = vec![vec![0.0; n]; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((state >> 56) % 5) as f64;
            }
        }
        let a = CsrMatrix::from_dense(&rows);
        let m = MetricsRegistry::new();
        let r = spgemm(&a, &a, &budget(64), None, Some(&m)).unwrap();
        assert!(r.degraded);
        let snap = m.snapshot();
        assert_eq!(snap.counter(metric_names::DEGRADED_FALLBACKS), Some(1));
        assert!(snap.counter(metric_names::BUDGET_COMPACTIONS).unwrap() > 0);
        assert_eq!(
            snap.counter(metric_names::NNZ_FINAL),
            Some(r.matrix.nnz() as u64)
        );
    }

    #[test]
    fn threshold_that_is_nan_infinite_or_negative_is_rejected() {
        use crate::syrk::{spgemm_syrk_sum, SyrkTerm};
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let at = transpose(&a);
        let terms = [SyrkTerm { x: &a, xt: &at }];
        for threshold in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-300] {
            for nnz_budget in [None, Some(1)] {
                let opts = SpgemmOptions {
                    threshold,
                    nnz_budget,
                    ..Default::default()
                };
                let m = MetricsRegistry::new();
                for r in [
                    spgemm(&a, &a, &opts, None, Some(&m)),
                    spgemm_syrk_sum(&terms, &opts, None, Some(&m)),
                ] {
                    match r {
                        Err(SparseError::InvalidArgument(msg)) => {
                            assert!(msg.contains("threshold"), "{msg}")
                        }
                        other => panic!("threshold {threshold}: {other:?}"),
                    }
                }
                assert_eq!(m.snapshot().counter(metric_names::CALLS), None);
            }
        }
        // Zero, -0.0 and any finite positive threshold still run.
        for threshold in [0.0, -0.0, 1e-300, 1.5] {
            let opts = SpgemmOptions {
                threshold,
                ..Default::default()
            };
            assert!(spgemm(&a, &a, &opts, None, None).is_ok(), "{threshold}");
            assert!(
                spgemm_syrk_sum(&terms, &opts, None, None).is_ok(),
                "{threshold}"
            );
        }
    }

    #[test]
    fn budgeted_rejects_zero_budget_and_honors_cancellation() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(spgemm(&a, &a, &budget(0), None, None).is_err());
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let r = spgemm(&a, &a, &budget(1), Some(&token), None);
        assert_eq!(r.err(), Some(SparseError::Cancelled));
    }
}
