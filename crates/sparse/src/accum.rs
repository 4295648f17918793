//! The dense row accumulators of the Gustavson and SYRK kernels.
//!
//! Every output row accumulates into an f64 scratch vector indexed by
//! `u32` column ids ([`DenseAccum`]), cleared in O(touched) — not O(n) —
//! via an epoch-stamped touched test ([`TouchStamp`]): each column carries
//! the epoch of its last write, a column whose stamp differs from the
//! current row's epoch reads as vacant, and its slot is initialized to
//! `0.0` on first touch. No per-row memset, and the touched-column list is
//! duplicate-free by construction. Products are added in generation order
//! (ascending `k`), so a slot performs the `0.0 + p₀ + p₁ + …` sequence of
//! a plain dense reference row.
//!
//! A row of `B` stored as a zero-filled dense span is added in two halves
//! instead: [`touch_masked`] records its first touches,
//! [`DenseAccum::axpy`] its values, with the same bits as the scatter. A
//! SYRK sum's terms share one stamp in [`TermAccum`], whose slots are
//! zeroed as they are read and whose first touch is a value added to the
//! touched list's length, not a branch (DESIGN.md §16).

/// Row-scoped first-touch test over column ids, cleared in O(1).
///
/// `stamp[j] == epoch` means column `j` was touched during the current
/// row; any other stamp value means it was not. Advancing the epoch
/// therefore "clears" every column at once; only the wrap-around every
/// `u32::MAX` rows pays an O(n) stamp reset. Both dense accumulators keep
/// their slots' liveness here.
pub(crate) struct TouchStamp {
    stamp: Vec<u32>,
    epoch: u32,
}

impl TouchStamp {
    pub(crate) fn new(n_cols: usize) -> Self {
        TouchStamp {
            // Stamps start at 0 and the first epoch is 1, so every column
            // begins untouched.
            stamp: vec![0u32; n_cols],
            epoch: 0,
        }
    }

    /// Starts a new row: one epoch bump forgets every touch.
    pub(crate) fn begin_row(&mut self) {
        if self.epoch == u32::MAX {
            // Wrap: any stale stamp could collide with a reused epoch, so
            // pay the one O(n) reset per 2³²−1 rows.
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

    /// [`first`](Self::first) without its branch: the stamp is stored
    /// whether or not `j` was already marked, and the answer is a value
    /// for the caller to add, not a condition to test.
    #[inline]
    pub(crate) fn mark(&mut self, j: u32) -> bool {
        let stamp = &mut self.stamp[j as usize];
        let first = *stamp != self.epoch;
        *stamp = self.epoch;
        first
    }
}

/// Dense f64 scratch accumulator with epoch-stamped O(touched) clears.
///
/// A slot whose column the [`TouchStamp`] has not seen this row is vacant:
/// its f64 content is stale garbage from an earlier row and is overwritten
/// with `0.0` before the first add. So starting a row never memsets.
pub(crate) struct DenseAccum {
    vals: Vec<f64>,
    stamp: TouchStamp,
}

impl DenseAccum {
    pub(crate) fn new(n_cols: usize) -> Self {
        DenseAccum {
            vals: vec![0.0f64; n_cols],
            stamp: TouchStamp::new(n_cols),
        }
    }

    /// Starts a new row: one epoch bump invalidates every slot.
    pub(crate) fn begin_row(&mut self) {
        self.stamp.begin_row();
    }

    /// Adds `v` into slot `j`, initializing it to `0.0` on first touch
    /// this row (the `0.0 + v` first add of a plain dense row). Returns
    /// whether this was the first touch, so callers can maintain a
    /// duplicate-free touched list.
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
        let first = self.stamp.first(j);
        if first {
            self.vals[j as usize] = 0.0;
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

    /// The accumulated value in slot `j` (only meaningful for a slot
    /// touched this row).
    #[inline]
    pub(crate) fn get(&self, j: u32) -> f64 {
        self.vals[j as usize]
    }
}

/// The dense accumulator of a SYRK sum `Σₜ Xₜ·Xₜᵀ`: one f64 slot per
/// (column, term), a column's terms side by side, and **one**
/// [`TouchStamp`] for all of them. A product costs one stamp store, one
/// list write and one add whichever term it belongs to, and a column
/// several terms reach is listed once.
///
/// The touched list is a caller-owned buffer of `n + 1` slots and a
/// length. A first touch is a value, not a branch: every product writes
/// its column at the list's end and advances the length by `first as
/// usize`, so a repeat is overwritten by the next write. On `sym-kron`,
/// 41 % of a thresholded similarity's products are first touches, in no
/// pattern a branch predictor can follow. The `+ 1` slot takes the write
/// after all `n` columns are listed.
///
/// Every slot holds `+0.0` between rows: [`take`](Self::take) reads a
/// listed column's slots and zeroes them in the same pass, while they are
/// in cache. So a first touch only stamps and lists the column, and a term
/// that never reaches it leaves its slot at `+0.0`. The row that lists a
/// column must `take` it before the next row begins.
pub(crate) struct TermAccum {
    vals: Vec<f64>,
    stamp: TouchStamp,
    terms: usize,
}

impl TermAccum {
    pub(crate) fn new(n_cols: usize, terms: usize) -> Self {
        TermAccum {
            vals: vec![0.0f64; n_cols * terms],
            stamp: TouchStamp::new(n_cols),
            terms,
        }
    }

    /// Starts a new row: one epoch bump forgets every listed column.
    pub(crate) fn begin_row(&mut self) {
        self.stamp.begin_row();
    }

    /// Term `term`'s scale-and-accumulate: `acc[cols[i]][term] += av ·
    /// vals[i]`, appending a column no term has touched yet this row to
    /// `touched[..len]` and returning the new length. `touched` needs one
    /// slot more than the row can list. Each term slot sums its products
    /// onto the same `+0.0` a separate accumulator per term would start
    /// from, in the same order.
    #[inline]
    pub(crate) fn scatter(
        &mut self,
        term: usize,
        touched: &mut [u32],
        mut len: usize,
        av: f64,
        cols: &[u32],
        vals: &[f64],
    ) -> usize {
        let terms = self.terms;
        for (&j, v) in cols.iter().zip(vals) {
            let first = self.stamp.mark(j);
            touched[len] = j;
            len += first as usize;
            self.vals[j as usize * terms + term] += av * v;
        }
        len
    }

    /// Column `j`'s total, leaving its slots at `+0.0`: the term slots are
    /// added onto `0.0` in term order, the one final ordered add of
    /// computing each product separately and `ops::add`-ing them. A term
    /// that never reached `j` adds its `+0.0` slot, which moves no bit: the
    /// running sum starts at `+0.0`, so in round-to-nearest it is never
    /// `−0.0`, and `x + 0.0 == x` for every other `x`. Only meaningful once
    /// per column listed this row.
    #[inline]
    pub(crate) fn take(&mut self, j: u32) -> f64 {
        let at = j as usize * self.terms;
        let mut v = 0.0f64;
        for slot in &mut self.vals[at..at + self.terms] {
            v += *slot;
            *slot = 0.0;
        }
        v
    }
}

/// Dense scale-and-accumulate: `acc[cols[i]] += av · vals[i]`. First
/// touches are appended to `touched` (duplicate-free: [`DenseAccum::add`]
/// reports them). One multiply-add per entry, not staged through a chunk
/// array: the scatter is serial, so staging would only add a store and a
/// load per product (DESIGN.md §16).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `acc`'s slot `j` was touched during the current row.
    fn is_touched(acc: &DenseAccum, j: u32) -> bool {
        acc.stamp.stamp[j as usize] == acc.stamp.epoch
    }

    #[test]
    fn dense_accum_epoch_clear_isolates_rows() {
        let mut acc = DenseAccum::new(4);
        acc.begin_row();
        assert!(acc.add(2, 1.5));
        assert!(!acc.add(2, 2.5));
        assert_eq!(acc.get(2), 4.0);
        assert!(is_touched(&acc, 2));
        assert!(!is_touched(&acc, 1));
        // Next row: slot 2 reads as vacant without any memset.
        acc.begin_row();
        assert!(!is_touched(&acc, 2));
        assert!(acc.add(2, 7.0));
        assert_eq!(acc.get(2), 7.0);
    }

    #[test]
    fn dense_accum_epoch_wrap_resets_stamps() {
        let mut acc = DenseAccum::new(2);
        acc.stamp.epoch = u32::MAX - 1;
        acc.begin_row(); // -> MAX
        acc.add(0, 1.0);
        acc.begin_row(); // wrap: stamps reset, epoch 1
        assert_eq!(acc.stamp.epoch, 1);
        assert!(!is_touched(&acc, 0));
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
        assert!(is_touched(&acc, 0));
        assert!(!acc.add(0, 2.5), "touch made the next add a repeat");
        assert!(!acc.touch(0), "a second touch keeps the sum");
        assert_eq!(acc.get(0), 2.5);
        assert!(!is_touched(&acc, 1));
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
            assert!(!is_touched(&span, 5));
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
    fn term_accum_matches_one_accumulator_per_term_in_bits() {
        // Three terms' rows of `Xᵀ`, signed: column 2's terms cancel to an
        // exact zero (0.75 + 0.0 − 0.75, term 1 adding a −0.0 product),
        // and term 0 cancels within itself on column 4. Term 2 never
        // reaches column 0 or 4; no term reaches columns 1, 3 or 6.
        let rows: [(usize, f64, &[u32], &[f64]); 5] = [
            (0, 1.5, &[0, 2, 4], &[1.0, 0.5, 2.0]),
            (1, -0.25, &[2, 4, 5], &[0.0, -8.0, 1.0]),
            (0, 3.0, &[4, 5], &[-1.0, 0.125]),
            (2, 2.0, &[2, 5], &[-0.375, 1e-300]),
            (1, 1.0, &[4], &[-1.0]),
        ];
        let mut acc = TermAccum::new(7, 3);
        let mut per_term: Vec<DenseAccum> = (0..3).map(|_| DenseAccum::new(7)).collect();
        // Leave stale content in every per-term slot first: `take` must
        // have cleared the term slots, the per-term stamps must hide theirs.
        let mut touched = [0u32; 8];
        let mut len = 0;
        acc.begin_row();
        for (t, p) in per_term.iter_mut().enumerate() {
            p.begin_row();
            for j in 0..7 {
                p.add(j, f64::MAX);
                len = acc.scatter(t, &mut touched, len, 1.0, &[j], &[f64::MAX]);
            }
        }
        assert_eq!(len, 7);
        for &j in &touched[..len] {
            acc.take(j);
        }
        acc.begin_row();
        for p in &mut per_term {
            p.begin_row();
        }
        let mut separate = Vec::new();
        len = 0;
        for &(t, av, cols, vals) in &rows {
            len = acc.scatter(t, &mut touched, len, av, cols, vals);
            scatter_scaled(&mut per_term[t], &mut separate, av, cols, vals);
        }
        // First-touch order, each column once, across terms.
        assert_eq!(touched[..len], [0, 2, 4, 5]);
        for &j in &touched[..len] {
            let mut want = 0.0f64;
            for p in &per_term {
                if is_touched(p, j) {
                    want += p.get(j);
                }
            }
            assert_eq!(acc.take(j).to_bits(), want.to_bits(), "column {j}");
        }
        assert!(acc.vals.iter().all(|v| v.to_bits() == 0), "take clears");
    }

    #[test]
    fn term_accum_lists_all_columns_once_and_writes_only_the_spare_slot() {
        // Every column listed, then every column re-touched by both terms
        // in the same row: the list stays `n` long and only the `+ 1`
        // slot takes the repeats' writes.
        let n = 5;
        let mut acc = TermAccum::new(n, 2);
        let mut touched = vec![u32::MAX; n + 1];
        acc.begin_row();
        let mut len = acc.scatter(0, &mut touched, 0, 1.0, &[3, 0, 4, 1, 2], &[1.0; 5]);
        assert_eq!(len, n);
        assert_eq!(touched[n], u32::MAX, "no write past a first touch yet");
        len = acc.scatter(1, &mut touched, len, 2.0, &[4, 3, 2, 1, 0], &[1.0; 5]);
        len = acc.scatter(0, &mut touched, len, 0.5, &[0, 2], &[4.0; 2]);
        assert_eq!(len, n);
        assert_eq!(touched[..n], [3, 0, 4, 1, 2]);
        assert_eq!(touched[n], 2, "the last repeat landed in the spare slot");
        let totals: Vec<f64> = touched[..n].iter().map(|&j| acc.take(j)).collect();
        assert_eq!(totals, [3.0, 5.0, 3.0, 3.0, 5.0]);
        // The next row starts an empty list over the stale buffer.
        acc.begin_row();
        assert_eq!(acc.scatter(1, &mut touched, 0, 1.0, &[1, 1], &[1.0; 2]), 1);
        assert_eq!(acc.take(1), 2.0);
    }

    #[test]
    fn term_accum_epoch_wrap_forgets_every_stored_stamp() {
        // The scatter stores the stamp on repeats too, so after the wrap
        // no column of the row before it may read as already listed.
        let mut acc = TermAccum::new(3, 1);
        let mut touched = [0u32; 4];
        acc.stamp.epoch = u32::MAX - 1;
        acc.begin_row(); // -> MAX
        let len = acc.scatter(0, &mut touched, 0, 1.0, &[2, 0, 2, 0], &[1.0; 4]);
        assert_eq!(touched[..len], [2, 0]);
        assert_eq!(acc.stamp.stamp, [u32::MAX, 0, u32::MAX]);
        for &j in &touched[..len] {
            acc.take(j);
        }
        acc.begin_row(); // wrap: stamps reset, epoch 1
        assert_eq!(acc.stamp.epoch, 1);
        assert_eq!(acc.stamp.stamp, [0, 0, 0]);
        let len = acc.scatter(0, &mut touched, 0, 1.0, &[0, 1, 2, 1], &[0.5; 4]);
        assert_eq!(touched[..len], [0, 1, 2]);
        assert_eq!(acc.take(1), 1.0);
        assert_eq!(acc.stamp.stamp, [1, 1, 1]);
    }
}
