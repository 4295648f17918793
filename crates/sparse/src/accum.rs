//! Per-row accumulator strategies for the Gustavson and SYRK kernels.
//!
//! Gustavson-style SpGEMM implementations win by switching accumulator
//! strategy *per output row*: a row whose intermediate product is wide
//! amortizes a dense scatter array, while a narrow row is cheaper to
//! gather into a small sorted list than to touch a cache-cold dense
//! vector. The paper's Σdᵢ² cost model (§3.6) already predicts per-row
//! intermediate width — the same quantity the kernels count as per-row
//! FLOPs — so the crossover decision is free: it is derived from counts
//! the row pass computes anyway, which also makes it deterministic and
//! independent of thread count.
//!
//! Two strategies, bit-identical by construction:
//!
//! * **Dense** ([`DenseAccum`]): an f64 scratch vector indexed by `u32`
//!   column ids, cleared in O(touched) — not O(n) — via an epoch-stamped
//!   touched test: each slot carries the epoch of its last write, a slot
//!   whose stamp differs from the current row's epoch reads as vacant and
//!   is initialized to `0.0` on first touch. No per-row memset, and the
//!   touched-column list is duplicate-free by construction. A row of `B`
//!   stored as a zero-filled dense span is added in two halves instead:
//!   [`touch_masked`] records its first touches, [`DenseAccum::axpy`] its
//!   values, with the same bits as the scatter.
//! * **Sparse** (the `emit_*_pairs` helpers): products are gathered into a
//!   `(column, value)` pair list, **stably** sorted by column, and summed
//!   per column run. Stability preserves the generation order within a
//!   column — ascending `k` (and term-major for SYRK sums) — which is the
//!   exact order the dense slot would have accumulated in, so the two
//!   strategies round identically and the output bits never depend on
//!   which one ran.
//!
//! The scale-and-accumulate inner loops — all but the single-accumulator
//! dense scatter, see [`scatter_scaled`] — are written in fixed-width
//! chunks ([`CHUNK`]): the products `aᵢₖ · bₖⱼ` for one chunk are computed
//! into a local array first (a straight-line multiply loop the
//! autovectorizer turns into packed `mulpd`s) and only then scattered or
//! appended. No `std::simd`, no intrinsics, no new dependencies — the
//! chunking is plain safe Rust shaped so the compiler can vectorize the
//! arithmetic half of the loop even though the scatter half is inherently
//! serial.

/// Which accumulator the row kernels use per output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumStrategy {
    /// Decide per row: dense when the estimated intermediate width
    /// reaches the crossover, sparse below it. The estimate (the row's
    /// Gustavson FLOP count) depends only on the input structure, so the
    /// mix — and the `spgemm.rows_dense` / `spgemm.rows_sparse` counters —
    /// is deterministic for a fixed input and crossover.
    #[default]
    Adaptive,
    /// Force the dense epoch-stamped accumulator for every row.
    Dense,
    /// Force sorted sparse accumulation for every row.
    Sparse,
}

impl AccumStrategy {
    /// Stable lowercase name (`adaptive` / `dense` / `sparse`).
    pub fn name(self) -> &'static str {
        match self {
            AccumStrategy::Adaptive => "adaptive",
            AccumStrategy::Dense => "dense",
            AccumStrategy::Sparse => "sparse",
        }
    }
}

impl std::str::FromStr for AccumStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "adaptive" => Ok(AccumStrategy::Adaptive),
            "dense" => Ok(AccumStrategy::Dense),
            "sparse" => Ok(AccumStrategy::Sparse),
            other => Err(format!(
                "unknown accumulator strategy '{other}' (adaptive|dense|sparse)"
            )),
        }
    }
}

/// Default crossover (in estimated multiply-adds per row) between sparse
/// and dense accumulation under [`AccumStrategy::Adaptive`]. Sparse
/// accumulation pays O(e·log e) for the sort plus a pair buffer; the dense
/// scatter pays one indexed read-modify-write per product against a large
/// scratch array. The sort constant loses once a row generates a few
/// cache lines' worth of products. 64 stands on the benchmark's
/// measurement: on `sym-kron` (13 342 sparse rows beside the dense ones)
/// `sparse.adaptive_vs_best` is 0.89 — adaptive at this crossover beats
/// the better of the two fixed strategies. Overridable per call via
/// [`crate::Tuning::accum_crossover`].
pub const DEFAULT_ACCUM_CROSSOVER: usize = 64;

/// Fixed chunk width for the scale-and-accumulate inner loops. Products
/// for one chunk are computed into a `[f64; CHUNK]` before the scatter,
/// giving the autovectorizer a straight-line multiply loop (4×2 `mulpd`
/// at width 8 on SSE2, 2×4 on AVX) regardless of the scatter's serial
/// data dependences.
pub(crate) const CHUNK: usize = 8;

/// Dense f64 scratch accumulator with epoch-stamped O(touched) clears.
///
/// `stamp[j] == epoch` means slot `j` was written during the current row;
/// any other stamp value means the slot is vacant (its f64 content is
/// stale garbage from an earlier row and is overwritten with `0.0` before
/// the first add). Advancing the epoch therefore "clears" the whole
/// accumulator in O(1); only the wrap-around every `u32::MAX` rows pays an
/// O(n) stamp reset.
pub(crate) struct DenseAccum {
    vals: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl DenseAccum {
    pub(crate) fn new(n_cols: usize) -> Self {
        DenseAccum {
            vals: vec![0.0f64; n_cols],
            // Stamps start at 0 and the first epoch is 1, so every slot
            // begins vacant.
            stamp: vec![0u32; n_cols],
            epoch: 0,
        }
    }

    /// Starts a new row: one epoch bump invalidates every slot.
    pub(crate) fn begin_row(&mut self) {
        if self.epoch == u32::MAX {
            // Wrap: any stale stamp could collide with a reused epoch, so
            // pay the one O(n) reset per 2³²−1 rows.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Adds `v` into slot `j`, initializing it to `0.0` on first touch
    /// this row (the same `0.0 + v` first-add the pre-adaptive kernels
    /// performed, so rounding is unchanged). Returns whether this was the
    /// first touch, so callers can maintain a duplicate-free touched list.
    #[inline]
    pub(crate) fn add(&mut self, j: u32, v: f64) -> bool {
        let first = self.touch(j);
        self.vals[j as usize] += v;
        first
    }

    /// The first half of [`add`](Self::add): marks slot `j` touched this
    /// row, setting it to `0.0` on first touch, and returns whether this
    /// was the first touch.
    #[inline]
    pub(crate) fn touch(&mut self, j: u32) -> bool {
        let j = j as usize;
        let first = self.stamp[j] != self.epoch;
        if first {
            self.stamp[j] = self.epoch;
            self.vals[j] = 0.0;
        }
        first
    }

    /// Contiguous scale-and-add over slots `lo..lo + dense.len()`:
    /// `vals[lo + i] += av · dense[i]`, stamped or not. Stamps are left
    /// alone. So the caller must [`touch`](Self::touch) every slot whose
    /// `dense[i]` is a stored value before the call. It also relies on
    /// adding `av · 0.0` being a no-op on a touched slot, which holds only
    /// when `av` is finite. An untouched slot's stale content changes, but
    /// [`touch`](Self::touch) resets it before it is ever read.
    #[inline]
    pub(crate) fn axpy(&mut self, lo: usize, av: f64, dense: &[f64]) {
        for (slot, d) in self.vals[lo..lo + dense.len()].iter_mut().zip(dense) {
            *slot += av * d;
        }
    }

    /// Whether slot `j` was touched during the current row.
    #[inline]
    pub(crate) fn touched(&self, j: u32) -> bool {
        self.stamp[j as usize] == self.epoch
    }

    /// The accumulated value in slot `j` (only meaningful when
    /// [`touched`](Self::touched)).
    #[inline]
    pub(crate) fn get(&self, j: u32) -> f64 {
        self.vals[j as usize]
    }
}

/// Epoch-stamped row-scoped membership test, shared across the per-term
/// accumulators of a SYRK sum so the touched-column list stays
/// duplicate-free even when several terms hit the same column.
pub(crate) struct TouchStamp {
    stamp: Vec<u32>,
    epoch: u32,
}

impl TouchStamp {
    pub(crate) fn new(n_cols: usize) -> Self {
        TouchStamp {
            stamp: vec![0u32; n_cols],
            epoch: 0,
        }
    }

    pub(crate) fn begin_row(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Whether this is the first sighting of `j` this row (and marks it).
    #[inline]
    pub(crate) fn first(&mut self, j: u32) -> bool {
        let j = j as usize;
        let first = self.stamp[j] != self.epoch;
        if first {
            self.stamp[j] = self.epoch;
        }
        first
    }
}

/// Dense scale-and-accumulate: `acc[cols[i]] += av · vals[i]`. First
/// touches are appended to `touched` (duplicate-free: [`DenseAccum::add`]
/// reports them).
///
/// Not chunked like its siblings: this is the loop R-MCL's expand step
/// runs on rows of `M_G` too sparse for a dense span (see
/// [`DenseAccum::axpy`]), on accumulators small enough to sit in L1, where
/// staging each product in a chunk array before the (inherently serial)
/// scatter costs a store and a load per multiply-add — an R-MCL run on a
/// 700-node graph took ≈ 340 ms chunked against ≈ 255 ms this way
/// (DESIGN.md §16). The products are the same `av * v` multiplies either
/// way, so the bytes are too.
#[inline]
pub(crate) fn scatter_scaled(
    acc: &mut DenseAccum,
    touched: &mut Vec<u32>,
    av: f64,
    cols: &[u32],
    vals: &[f64],
) {
    for (j, v) in cols.iter().zip(vals) {
        if acc.add(*j, av * v) {
            touched.push(*j);
        }
    }
}

/// The first touches [`scatter_scaled`] would record for a row of `B`
/// given as a bit mask of its stored columns: bit `b` of `mask[i]` is
/// column `64 · (word0 + i) + b`. `seen` marks, a bit per column, what
/// earlier masks of this row already touched. So only the new columns of
/// each word reach [`DenseAccum::touch`], in ascending order, which is the
/// order the scatter meets them. A column touched outside the masks is
/// not in `seen`; `touch` reports it as no first touch.
#[inline]
pub(crate) fn touch_masked(
    acc: &mut DenseAccum,
    seen: &mut [u64],
    touched: &mut Vec<u32>,
    word0: usize,
    mask: &[u64],
) {
    for (w, &m) in (word0..).zip(mask) {
        let mut new = m & !seen[w];
        seen[w] |= m;
        while new != 0 {
            let j = (w * 64) as u32 + new.trailing_zeros();
            if acc.touch(j) {
                touched.push(j);
            }
            new &= new - 1;
        }
    }
}

/// Multi-accumulator variant of [`scatter_scaled`], with the multiplies
/// chunked for autovectorization: membership in the shared touched list is
/// tracked by `seen` (one row-scoped stamp across all terms) instead of
/// the per-term accumulator, so a column several terms touch is listed
/// exactly once.
#[inline]
pub(crate) fn scatter_scaled_seen(
    acc: &mut DenseAccum,
    seen: &mut TouchStamp,
    touched: &mut Vec<u32>,
    av: f64,
    cols: &[u32],
    vals: &[f64],
) {
    let mut prod = [0.0f64; CHUNK];
    for (cch, vch) in cols.chunks(CHUNK).zip(vals.chunks(CHUNK)) {
        for (p, v) in prod.iter_mut().zip(vch) {
            *p = av * v;
        }
        for (j, p) in cch.iter().zip(&prod) {
            acc.add(*j, *p);
            if seen.first(*j) {
                touched.push(*j);
            }
        }
    }
}

/// Sparse scale-and-gather: appends `(cols[i], av · vals[i])` pairs in
/// generation order — the same `av * v` multiplies [`scatter_scaled`]
/// performs, so the products are bit-identical on both paths — chunked
/// like [`scatter_scaled_seen`].
#[inline]
pub(crate) fn gather_scaled(pairs: &mut Vec<(u32, f64)>, av: f64, cols: &[u32], vals: &[f64]) {
    let mut prod = [0.0f64; CHUNK];
    for (cch, vch) in cols.chunks(CHUNK).zip(vals.chunks(CHUNK)) {
        for (p, v) in prod.iter_mut().zip(vch) {
            *p = av * v;
        }
        for (j, p) in cch.iter().zip(&prod) {
            pairs.push((*j, *p));
        }
    }
}

/// Multi-term sparse gather for SYRK sums: like [`gather_scaled`] but each
/// pair carries the term index so the per-column reduction can reproduce
/// the dense path's one-ordered-add-per-term rounding.
#[inline]
pub(crate) fn gather_scaled_term(
    pairs: &mut Vec<(u32, u32, f64)>,
    term: u32,
    av: f64,
    cols: &[u32],
    vals: &[f64],
) {
    let mut prod = [0.0f64; CHUNK];
    for (cch, vch) in cols.chunks(CHUNK).zip(vals.chunks(CHUNK)) {
        for (p, v) in prod.iter_mut().zip(vch) {
            *p = av * v;
        }
        for (j, p) in cch.iter().zip(&prod) {
            pairs.push((*j, term, *p));
        }
    }
}

/// Reduces a gathered pair list into per-column sums, visiting columns in
/// ascending order. The sort is **stable**, so within one column the pairs
/// stay in generation order (ascending `k`) and the running sum performs
/// the identical `0.0 + p₀ + p₁ + …` sequence as the dense slot. Calls
/// `emit(col, sum)` once per distinct column and returns the distinct
/// column count.
#[inline]
pub(crate) fn reduce_pairs(pairs: &mut [(u32, f64)], mut emit: impl FnMut(u32, f64)) -> u64 {
    pairs.sort_by_key(|p| p.0);
    let mut distinct = 0u64;
    let mut i = 0usize;
    while i < pairs.len() {
        let j = pairs[i].0;
        let mut v = 0.0f64;
        while i < pairs.len() && pairs[i].0 == j {
            v += pairs[i].1;
            i += 1;
        }
        distinct += 1;
        emit(j, v);
    }
    distinct
}

/// Multi-term variant of [`reduce_pairs`]: within a column run the pairs
/// are term-major (generation was term-major and the sort is stable), so
/// each term's products are summed into a subtotal first and the
/// subtotals are added in term order — the same final ordered add across
/// per-term accumulators the dense SYRK path performs. Terms that never
/// touched a column are skipped, which only elides `+ 0.0` adds; those
/// cannot change any emitted value (a total that is ±0.0 fails the
/// `v != 0.0` emission filter, and `x + 0.0 == x` bitwise for `x ≠ 0`).
#[inline]
pub(crate) fn reduce_pairs_terms(
    pairs: &mut [(u32, u32, f64)],
    mut emit: impl FnMut(u32, f64),
) -> u64 {
    pairs.sort_by_key(|p| p.0);
    let mut distinct = 0u64;
    let mut i = 0usize;
    while i < pairs.len() {
        let j = pairs[i].0;
        let mut v = 0.0f64;
        while i < pairs.len() && pairs[i].0 == j {
            let t = pairs[i].1;
            let mut subtotal = 0.0f64;
            while i < pairs.len() && pairs[i].0 == j && pairs[i].1 == t {
                subtotal += pairs[i].2;
                i += 1;
            }
            v += subtotal;
        }
        distinct += 1;
        emit(j, v);
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parses_and_names_roundtrip() {
        for s in [
            AccumStrategy::Adaptive,
            AccumStrategy::Dense,
            AccumStrategy::Sparse,
        ] {
            assert_eq!(s.name().parse::<AccumStrategy>().unwrap(), s);
        }
        assert!("densest".parse::<AccumStrategy>().is_err());
        assert_eq!(AccumStrategy::default(), AccumStrategy::Adaptive);
    }

    #[test]
    fn dense_accum_epoch_clear_isolates_rows() {
        let mut acc = DenseAccum::new(4);
        acc.begin_row();
        assert!(acc.add(2, 1.5));
        assert!(!acc.add(2, 2.5));
        assert_eq!(acc.get(2), 4.0);
        assert!(acc.touched(2));
        assert!(!acc.touched(1));
        // Next row: slot 2 reads as vacant without any memset.
        acc.begin_row();
        assert!(!acc.touched(2));
        assert!(acc.add(2, 7.0));
        assert_eq!(acc.get(2), 7.0);
    }

    #[test]
    fn dense_accum_epoch_wrap_resets_stamps() {
        let mut acc = DenseAccum::new(2);
        acc.epoch = u32::MAX - 1;
        acc.begin_row(); // -> MAX
        acc.add(0, 1.0);
        acc.begin_row(); // wrap: stamps reset, epoch 1
        assert_eq!(acc.epoch, 1);
        assert!(!acc.touched(0));
        assert!(acc.add(0, 2.0));
        assert_eq!(acc.get(0), 2.0);
    }

    #[test]
    fn touch_resets_on_first_touch_only() {
        let mut acc = DenseAccum::new(3);
        acc.begin_row();
        acc.add(0, 5.0);
        acc.begin_row();
        assert!(acc.touch(0), "a slot from the last row is vacant");
        assert_eq!(acc.get(0).to_bits(), 0.0f64.to_bits());
        assert!(acc.touched(0));
        assert!(!acc.add(0, 2.5), "touch made the next add a repeat");
        assert!(!acc.touch(0), "a second touch keeps the sum");
        assert_eq!(acc.get(0), 2.5);
        assert!(!acc.touched(1));
    }

    #[test]
    fn axpy_over_a_zero_filled_span_matches_the_scatter_in_bits() {
        // A row of B stored densely from column 2: zeros where B has no
        // entry, an explicit -0.0 where it stores one.
        let cols = [2u32, 3, 6];
        let vals = [0.5, -0.0, -1.25];
        let dense = [0.5, -0.0, 0.0, 0.0, -1.25];
        let mut sums = Vec::new();
        for av in [1.5, -3.0, 0.0, -0.0] {
            let mut scatter = DenseAccum::new(8);
            let mut span = DenseAccum::new(8);
            let (mut t_scatter, mut t_span) = (Vec::new(), Vec::new());
            scatter.begin_row();
            span.begin_row();
            // Slot 4 is already touched and lies inside the span but not
            // in B's row, so the AXPY adds `av · 0.0` to it. Slot 5 stays
            // untouched and holds stale content from an earlier row.
            for acc in [&mut scatter, &mut span] {
                acc.add(4, 1e-300);
                acc.vals[5] = f64::MAX;
            }
            scatter_scaled(&mut scatter, &mut t_scatter, av, &cols, &vals);
            for &j in &cols {
                if span.touch(j) {
                    t_span.push(j);
                }
            }
            span.axpy(2, av, &dense);
            assert_eq!(t_scatter, t_span, "av {av}");
            for j in [2u32, 3, 4, 6] {
                assert_eq!(
                    scatter.get(j).to_bits(),
                    span.get(j).to_bits(),
                    "av {av} col {j}"
                );
            }
            assert!(!span.touched(5));
            sums.push(span.get(3).to_bits());
        }
        // The stored -0.0 lands as +0.0 whatever the sign of `av`: a sum
        // that starts at +0.0 never reaches -0.0.
        assert!(sums.iter().all(|&b| b == 0.0f64.to_bits()));
    }

    #[test]
    fn touch_masked_lists_the_scatters_first_touches_in_its_order() {
        // Rows of B as column lists: two masked rows that overlap and
        // cross word boundaries, with a scattered row between them.
        let rows: [&[u32]; 3] = [
            &[64, 70, 127, 128, 190],
            &[3, 70, 129],
            &[63, 64, 128, 129, 191],
        ];
        let mask_of = |cols: &[u32], word0: usize| {
            let mut mask = vec![0u64; 3 - word0];
            for &j in cols {
                mask[j as usize / 64 - word0] |= 1 << (j % 64);
            }
            mask
        };
        let mut scatter = DenseAccum::new(192);
        let mut masked = DenseAccum::new(192);
        let (mut t_scatter, mut t_masked) = (Vec::new(), Vec::new());
        let mut seen = vec![0u64; 3];
        scatter.begin_row();
        masked.begin_row();
        masked.vals[191] = 5.0; // stale content from an earlier row
        for (i, cols) in rows.iter().enumerate() {
            scatter_scaled(
                &mut scatter,
                &mut t_scatter,
                1.0,
                cols,
                &vec![1.0; cols.len()],
            );
            if i == 1 {
                // Touched outside any mask: `seen` does not know column 3
                // or 70's second sighting, the stamps do.
                scatter_scaled(
                    &mut masked,
                    &mut t_masked,
                    1.0,
                    cols,
                    &vec![1.0; cols.len()],
                );
            } else {
                let word0 = cols[0] as usize / 64;
                touch_masked(
                    &mut masked,
                    &mut seen,
                    &mut t_masked,
                    word0,
                    &mask_of(cols, word0),
                );
            }
        }
        assert_eq!(t_masked, t_scatter);
        assert_eq!(t_masked, [64, 70, 127, 128, 190, 3, 129, 63, 191]);
        // A masked touch resets a stale slot to +0.0 and adds nothing.
        assert_eq!(masked.get(191).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn scatter_and_gather_produce_identical_sums() {
        let cols: Vec<u32> = (0..23).map(|i| i % 7).collect();
        let vals: Vec<f64> = (0..23).map(|i| 0.1 + i as f64 * 0.3).collect();
        let av = 1.7;
        let mut acc = DenseAccum::new(7);
        let mut touched = Vec::new();
        acc.begin_row();
        scatter_scaled(&mut acc, &mut touched, av, &cols, &vals);
        let mut pairs = Vec::new();
        gather_scaled(&mut pairs, av, &cols, &vals);
        let mut sparse = std::collections::BTreeMap::new();
        let distinct = reduce_pairs(&mut pairs, |j, v| {
            sparse.insert(j, v);
        });
        assert_eq!(distinct as usize, touched.len());
        for (&j, &v) in &sparse {
            assert!(acc.touched(j));
            assert_eq!(acc.get(j).to_bits(), v.to_bits(), "column {j}");
        }
    }

    #[test]
    fn reduce_pairs_terms_sums_term_major() {
        // Column 3 touched by terms 0 and 1; column 5 only by term 1.
        let mut pairs = vec![(3u32, 0u32, 1.0), (5, 1, 4.0), (3, 0, 2.0), (3, 1, 8.0)];
        let mut out = Vec::new();
        let distinct = reduce_pairs_terms(&mut pairs, |j, v| out.push((j, v)));
        assert_eq!(distinct, 2);
        assert_eq!(out, vec![(3, 11.0), (5, 4.0)]);
    }
}
