//! Batched probe kernels for the Costas conflict table.
//!
//! [`ConflictTable`] keeps the difference-triangle histogram (the counts)
//! wherever a probe body reads it, and, off the vector tier, two occupancy
//! bitsets per row `d` over the row's `2n − 1` buckets: `occ` (bucket holds
//! ≥ 1 pair) and `multi` (≥ 2), recomputed by its refresh pass after every
//! change.  A row spans `W = ⌈(2n − 1) / 64⌉` `u64` words — one word for
//! n ≤ 32, two for n ≤ 64, unbounded beyond — and every order has a
//! kernel, so none falls back to the slow histogram path.  All of them are
//! pinned bit for bit to the plain histogram reference
//! (`ConflictTable::probe_partners_reference`).  The dispatcher in `cost.rs`
//! picks the tier by CPU feature and row width only; the *vector tier* is
//! x86-64 with AVX-512 F + DQ + BW + VBMI and n ≤ 128:
//!
//! * **Vector tier, one-word rows (n ≤ 32):** the from-scratch body
//!   (`ConflictTable::probe_body_avx512_scratch` in `simd`).  Each lane
//!   scores one candidate's whole swapped permutation, eight per pass, by
//!   the row-lane sweep's "pairs minus distinct buckets" identity; it reads
//!   neither the counts nor the masks.  Its lane-cost loop also scores the
//!   Costas reset's sub-array rotations, eight per pass
//!   (`ConflictTable::rotation_body_avx512`, behind
//!   [`ConflictTable::rotation_costs`]).  Nothing on this tier reads the
//!   counts, so the table keeps none here (the *count-free tier*).
//! * **Vector tier, two to four words (33 ≤ n ≤ 128):** the byte-lane body
//!   (`ConflictTable::probe_body_avx512_bytes` in `simd`): the event algebra
//!   below, 64 candidates per instruction, one per byte lane, every
//!   baseline count looked up exactly from the row's counts held as a byte
//!   table in registers.
//! * **Everywhere else — the portable tier and the reference for both:**
//!   the scalar event-algebra bodies, which read the counts and the masks,
//!   so every table served here keeps both (the tests build such a
//!   *scalar-tier* table to call them on vector-tier hosts).
//!   `ConflictTable::probe_range_masked` is monomorphized per row-mask word
//!   type (`MaskWord`: one `u64` for n ≤ 32, one `u128` holding both words
//!   for n ≤ 64) and runs `probe_body_sim`;
//!   `ConflictTable::probe_range_masked_dyn` runs `probe_body` over
//!   slice-held mask copies for every wider row, with the patched masks kept
//!   in a table-owned scratch so the read-only probe contract stays
//!   allocation-free.
//!
//! The event algebra is candidate-major: per (candidate, row) cell the ≤ 6
//! bucket events of the swap are scored against the row's baseline, patched
//! once per probe call for the culprit-vacated buckets (`SimRow`,
//! `DynScratch`, the byte body's table), and the culprit-removal delta —
//! identical for every candidate — is summed across rows once and added
//! once per candidate instead of once per (row, candidate).
//! `probe_body_sim` is *collision-free by construction*: it replays the
//! events **in sequence** on register copies of the masks.  Each `+1`
//! scores its current `occ` bit and then maintains both bits exactly (after
//! a `+1`, a bucket's `multi` bit is its `occ` bit from before, and its
//! `occ` bit is set); each `−1` scores the maintained `multi` bit.  Because
//! the per-event deltas telescope, the sum is exact even when events share
//! a bucket.  Only two cases leave this path: the culprit-neighbour cells
//! (`j = m ± d`, where a culprit pair *is* a candidate pair) and both
//! candidate pairs vacating one shared bucket (the second `−1` needs "count
//! ≥ 3", which two bits cannot answer); both fall back to the exact
//! per-bucket merge on the flat counts.  `probe_body` detects bucket
//! collisions per cell and sends them to the same merge.  The byte body
//! reads exact counts, so it replays both cases in its lanes.
//!
//! The `simd` module also holds the row-lane sweep, one difference-triangle
//! row per 64-bit lane for n ≤ 128, behind two callers: the vector tier of
//! the reset evaluator,
//! [`CostModel::global_cost_bounded`](crate::CostModel::global_cost_bounded),
//! and the vector tier of the table's refresh pass, which recomputes the
//! cost and the per-position errors after every change (the masks only on
//! the scalar tier).  Their scalar tiers stay in `cost.rs`.  The
//! `reset_evaluator_*` and `refresh_pass_*` tests below call both tiers
//! directly, so the scalar tiers run on vector-tier hosts too, and a
//! `debug_assert!` in each dispatcher pins the vector result to the scalar
//! one on every call.
//!
//! Equivalence with the histogram reference is enforced three ways: the
//! `debug_assert!`s in the probe dispatcher (every call, bit for bit, against
//! the reference and the per-pair `delta_for_swap`, both of which build
//! their histograms from the values on the count-free tier, so a kernel and
//! its pins never share maintained state there), the unit suite below
//! (orders 2–32 exhaustively plus the width edges 33/40/64/65/80/96/97/128/
//! 129, all cost models up to n = 80, adversarial permutations, swap walks,
//! every kernel — the scalar tier and both vector bodies are also called
//! directly, bypassing the dispatcher, so the scalar tier runs on
//! vector-tier hosts too, and the suite prints the bodies that ran, e.g.
//! `probe tiers: scalar W=1,2,slice; AVX-512 scratch W=1; bytes W=2,3,4;
//! reset rotations: batch, materialised`), and the cross-crate conformance
//! kit in `adaptive-search`, which drives random swap/reset/inject sequences
//! against a from-scratch oracle.

use crate::cost::ConflictTable;
use crate::merge::BucketMerge;

#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;

/// Why an event-algebra body refuses a table on the count-free tier.
const NO_COUNTS: &str =
    "the event-algebra probe bodies read the counts, which this table does not keep";

/// Why a scalar event-algebra body refuses a table on the vector tier.
const NO_MASKS: &str =
    "the scalar event-algebra probe bodies read the masks, which this table does not keep";

/// Width-independent half of the per-row probe context: the row weight, the
/// histogram base, the culprit's neighbouring values, and the ≤ 2
/// culprit-vacated buckets (`r0`/`a0`, `r1`/`a1` record the patch so the exact
/// fallback can reproduce it on the flat counts).
#[derive(Debug, Clone, Copy, Default)]
struct RowMeta {
    w: i64,
    base: usize,
    left_other: i64,
    right_other: i64,
    has_left: bool,
    has_right: bool,
    r0: usize,
    a0: i64,
    r1: usize,
    a1: i64,
}

/// One row's occupancy masks held as a single register-sized word, so the
/// scalar event-replay kernel ([`ConflictTable::probe_range_masked`]) does
/// every bit test *and* every bit update with plain shifts — no word
/// indexing.  The dispatcher monomorphizes the kernel per implementor: `u64`
/// carries the single-word rows of n ≤ 32, `u128` carries both words of the
/// two-word rows of 33 ≤ n ≤ 64 (row width 2n − 1 ≤ 127 bits).  Wider rows
/// take the slice-walking kernel instead.
pub(crate) trait MaskWord:
    Copy
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::Not<Output = Self>
{
    /// Mask words per row packed into this type.
    const WORDS: usize;
    /// The all-zero mask.
    const ZERO: Self;
    /// Pack one row's mask words (exactly [`MaskWord::WORDS`] of them).
    fn load(words: &[u64]) -> Self;
    /// `1 << b` when `set`, zero otherwise — the gate that turns an absent
    /// event into a true no-op without a branch.
    fn gated_bit(b: usize, set: bool) -> Self;
    /// Bit `b` as 0 or 1.
    fn bit(self, b: usize) -> i64;
}

impl MaskWord for u64 {
    const WORDS: usize = 1;
    const ZERO: Self = 0;
    #[inline]
    fn load(words: &[u64]) -> Self {
        words[0]
    }
    #[inline]
    fn gated_bit(b: usize, set: bool) -> Self {
        u64::from(set) << b
    }
    #[inline]
    fn bit(self, b: usize) -> i64 {
        ((self >> b) & 1) as i64
    }
}

impl MaskWord for u128 {
    const WORDS: usize = 2;
    const ZERO: Self = 0;
    #[inline]
    fn load(words: &[u64]) -> Self {
        u128::from(words[0]) | (u128::from(words[1]) << 64)
    }
    #[inline]
    fn gated_bit(b: usize, set: bool) -> Self {
        u128::from(set) << b
    }
    #[inline]
    fn bit(self, b: usize) -> i64 {
        ((self >> b) as u64 & 1) as i64
    }
}

/// Per-row probe context for the scalar event-replay kernel: the shared
/// [`RowMeta`] and the row's occupancy masks packed into one [`MaskWord`]
/// each, with the culprit-vacated buckets already patched out.
#[derive(Clone, Copy)]
pub(crate) struct SimRow<Wd> {
    meta: RowMeta,
    occ: Wd,
    multi: Wd,
}

/// Reusable scratch for the arbitrary-width kernel
/// ([`ConflictTable::probe_range_masked_dyn`]): the per-row metadata plus
/// patched copies of the full mask arrays, grown once and reused across probe
/// calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct DynScratch {
    metas: Vec<RowMeta>,
    occ: Vec<u64>,
    multi: Vec<u64>,
}

/// Slice-backed row source for the arbitrary-width kernel
/// ([`ConflictTable::probe_range_masked_dyn`]): the scalar `probe_body`'s
/// bit tests walk the patched [`DynScratch`] copies word by word.
pub(crate) struct DynRows<'a> {
    metas: &'a [RowMeta],
    occ: &'a [u64],
    multi: &'a [u64],
    words: usize,
}

impl DynScratch {
    /// Heap bytes of a grown scratch for `rows` rows of `words` words.
    pub(crate) const fn heap_bytes(rows: u128, words: u128) -> u128 {
        rows * (std::mem::size_of::<RowMeta>() as u128 + 16 * words)
    }

    /// The patched rows as a [`DynRows`] source of `words` words per row.
    fn rows(&self, words: usize) -> DynRows<'_> {
        DynRows {
            metas: &self.metas,
            occ: &self.occ,
            multi: &self.multi,
            words,
        }
    }
}

impl DynRows<'_> {
    #[inline]
    fn meta(&self, di: usize) -> &RowMeta {
        &self.metas[di]
    }
    #[inline]
    fn occ_bit(&self, di: usize, k: usize) -> i64 {
        ((self.occ[di * self.words + (k >> 6)] >> (k & 63)) & 1) as i64
    }
    #[inline]
    fn multi_bit(&self, di: usize, k: usize) -> i64 {
        ((self.multi[di * self.words + (k >> 6)] >> (k & 63)) & 1) as i64
    }
}

/// Apply `set(bucket, occ_after, multi_after)` for each culprit-vacated bucket
/// recorded in `meta` — the patch both mask builders stamp onto their copies.
#[inline]
fn for_each_patch(meta: &RowMeta, counts: &[u32], mut set: impl FnMut(usize, bool, bool)) {
    for (r, a) in [(meta.r0, meta.a0), (meta.r1, meta.a1)] {
        if r != usize::MAX {
            let b = i64::from(counts[meta.base + r]) - a;
            set(r, b >= 1, b >= 2);
        }
    }
}

/// Exact per-bucket merge for one (row, candidate) cell — the culprit-neighbour
/// cells (`j = m ± d`) and the rare bucket collisions, identical to the
/// histogram reference's generic body.  Returns the row's delta *excluding*
/// the hoisted culprit-removal term.
#[inline]
#[allow(clippy::too_many_arguments)]
fn row_merge(
    touched: &mut BucketMerge<6>,
    counts: &[u32],
    values: &[usize],
    row: &RowMeta,
    d: usize,
    n: usize,
    m: usize,
    vm: i64,
    off: i64,
    j: usize,
    vj: i64,
) -> i64 {
    let m_minus_d = m.wrapping_sub(d);
    let m_plus_d = m + d;
    touched.clear();
    // Culprit pair (m − d, m): position m now holds v_j; the left neighbour is
    // v_m instead when the candidate *is* that neighbour.
    if row.has_left {
        let lo = if m_minus_d == j { vm } else { row.left_other };
        touched.push((vj - lo + off) as usize, 1);
    }
    // Culprit pair (m, m + d), mirrored.
    if row.has_right {
        let ro = if m_plus_d == j { vm } else { row.right_other };
        touched.push((ro - vj + off) as usize, 1);
    }
    // Candidate pair (j − d, j) — unless it touches the culprit, in which case
    // it is one of the culprit pairs handled above.
    if j >= d && j - d != m {
        let vl = values[j - d] as i64;
        touched.push((vj - vl + off) as usize, -1);
        touched.push((vm - vl + off) as usize, 1);
    }
    // Candidate pair (j, j + d), mirrored.
    if j + d < n && j + d != m {
        let vr = values[j + d] as i64;
        touched.push((vr - vj + off) as usize, -1);
        touched.push((vr - vm + off) as usize, 1);
    }
    let mut delta = 0i64;
    for (pos, net) in touched.nets() {
        let b = i64::from(counts[row.base + pos])
            - row.a0 * i64::from(pos == row.r0)
            - row.a1 * i64::from(pos == row.r1);
        delta += row.w * ((b + net - 1).max(0) - (b - 1).max(0));
    }
    delta
}

impl ConflictTable {
    /// Width-independent half of one row's probe context, plus the row's
    /// contribution to the hoisted culprit-removal total: the "remove the
    /// culprit's ≤ 2 pairs per distance" half of every candidate's delta
    /// depends only on the culprit, so it is evaluated once per probe call and
    /// added once per candidate by every kernel.
    fn build_row_meta(&self, m: usize, d: usize) -> (RowMeta, i64) {
        let n = self.n;
        let vm = self.values[m] as i64;
        let values = &self.values[..];
        let counts = &self.counts[..];
        let off = n as i64 - 1;
        let base = (d - 1) * self.width;
        let w = self.weight(d) as i64;
        let has_left = m >= d;
        let has_right = m + d < n;
        // Absent sides are clamped to `vm` (not 0) so the event-replay
        // kernel's unconditional `k1`/`k2` index arithmetic stays in range;
        // every consumer gates the actual contribution on `has_left` /
        // `has_right`.
        let left_other = if has_left { values[m - d] as i64 } else { vm };
        let right_other = if has_right { values[m + d] as i64 } else { vm };
        let mut removed = BucketMerge::<2>::new();
        if has_left {
            removed.push((vm - left_other + off) as usize, 1);
        }
        if has_right {
            removed.push((right_other - vm + off) as usize, 1);
        }
        let mut meta = RowMeta {
            w,
            base,
            left_other,
            right_other,
            has_left,
            has_right,
            r0: usize::MAX,
            a0: 0,
            r1: usize::MAX,
            a1: 0,
        };
        let mut removal = 0i64;
        for (slot, (r, a)) in removed
            .entries_mut()
            .iter()
            .zip([(&mut meta.r0, &mut meta.a0), (&mut meta.r1, &mut meta.a1)])
        {
            let c = i64::from(counts[base + slot.0]);
            removal += w * ((c - slot.1 - 1).max(0) - (c - 1).max(0));
            *r = slot.0;
            *a = slot.1;
        }
        (meta, removal)
    }

    /// Build the per-row probe contexts for the [`MaskWord`]-packed row width
    /// into caller-provided storage, returning the hoisted culprit-removal
    /// total.
    ///
    /// The storage is width-parameterized by the dispatcher (no silent
    /// capacity cap): the call is rejected up front when the culprit is out of
    /// range, when the word type disagrees with the table's mask layout, or
    /// when `rows` cannot hold every scored distance, or when the table
    /// keeps no counts or no masks (the event algebra reads both).
    fn build_rows<Wd: MaskWord>(&self, m: usize, rows: &mut [SimRow<Wd>]) -> i64 {
        assert!(m < self.n, "culprit {m} out of range for order {}", self.n);
        assert!(self.keeps_counts(), "{NO_COUNTS}");
        assert!(self.keeps_masks(), "{NO_MASKS}");
        assert_eq!(
            Wd::WORDS,
            self.mask_words,
            "kernel width {} does not match the table's {} mask words per row",
            Wd::WORDS,
            self.mask_words
        );
        assert!(
            self.dmax <= rows.len(),
            "row storage holds {} rows but {} distances are scored",
            rows.len(),
            self.dmax
        );
        let counts = &self.counts[..];
        let mut removal_total = 0i64;
        for d in 1..=self.dmax {
            let (meta, removal) = self.build_row_meta(m, d);
            removal_total += removal;
            let start = (d - 1) * Wd::WORDS;
            let mut occ = Wd::load(&self.occ_mask[start..start + Wd::WORDS]);
            let mut multi = Wd::load(&self.multi_mask[start..start + Wd::WORDS]);
            for_each_patch(&meta, counts, |k, o, mu| {
                let clear = !Wd::gated_bit(k, true);
                occ = (occ & clear) | Wd::gated_bit(k, o);
                multi = (multi & clear) | Wd::gated_bit(k, mu);
            });
            rows[d - 1] = SimRow { meta, occ, multi };
        }
        removal_total
    }

    /// Arbitrary-width analogue of [`ConflictTable::build_rows`]: copy the
    /// full mask arrays into `scratch` and patch the culprit-vacated buckets
    /// in place.
    fn build_rows_dyn(&self, m: usize, scratch: &mut DynScratch) -> i64 {
        assert!(m < self.n, "culprit {m} out of range for order {}", self.n);
        assert!(self.keeps_counts(), "{NO_COUNTS}");
        assert!(self.keeps_masks(), "{NO_MASKS}");
        let words = self.mask_words;
        let counts = &self.counts[..];
        scratch.metas.clear();
        scratch.occ.clear();
        scratch.occ.extend_from_slice(&self.occ_mask);
        scratch.multi.clear();
        scratch.multi.extend_from_slice(&self.multi_mask);
        let mut removal_total = 0i64;
        for d in 1..=self.dmax {
            let (meta, removal) = self.build_row_meta(m, d);
            removal_total += removal;
            let start = (d - 1) * words;
            let occ = &mut scratch.occ[start..start + words];
            let multi = &mut scratch.multi[start..start + words];
            for_each_patch(&meta, counts, |k, o, mu| {
                let (wi, b) = (k >> 6, k & 63);
                occ[wi] = (occ[wi] & !(1 << b)) | (u64::from(o) << b);
                multi[wi] = (multi[wi] & !(1 << b)) | (u64::from(mu) << b);
            });
            scratch.metas.push(meta);
        }
        removal_total
    }

    /// Candidate-major event-replay body of the monomorphized kernel: fill
    /// `out[j]` for `j in lo_bound..n`, `j != m`.  Each (candidate, row) cell
    /// replays its ≤ 6 bucket events sequentially on register copies of the
    /// row's patched masks; per-event deltas telescope, so the sum is exact
    /// even when events share a bucket (see the module docs).  Only the
    /// culprit-neighbour cells and the both-pairs-vacate-one-bucket case fall
    /// back to the exact per-bucket merge.  Bit-for-bit equal to the histogram
    /// reference (see the module docs for how that is pinned).
    fn probe_body_sim<Wd: MaskWord>(
        &self,
        rows: &[SimRow<Wd>],
        m: usize,
        lo_bound: usize,
        removal_total: i64,
        out: &mut [u64],
    ) {
        let n = self.n;
        let vm = self.values[m] as i64;
        let values = &self.values[..];
        let counts = &self.counts[..];
        let off = n as i64 - 1;
        let mut touched = BucketMerge::<6>::new();
        for (j, out_slot) in out.iter_mut().enumerate().skip(lo_bound) {
            if j == m {
                continue;
            }
            let vj = values[j] as i64;
            // The one distance whose culprit pair *is* a candidate pair.
            let ad = m.abs_diff(j);
            // Every partial sum of `acc` over full rows is a valid cost delta
            // (the rows of the difference triangle contribute independently),
            // and the final `cost + acc` is the post-swap cost, ≥ 0.
            let mut acc = removal_total;
            for (di, row) in rows.iter().enumerate() {
                let d = di + 1;
                let meta = &row.meta;
                // Candidate neighbours, clamped to `vm` when absent so every
                // bucket index below stays in range; the gated event bits turn
                // the clamped events into no-ops.
                let jl = j >= d;
                let jr = j + d < n;
                let vl = if jl { values[j - d] as i64 } else { vm };
                let vr = if jr { values[j + d] as i64 } else { vm };
                let o1 = (vj - vl + off) as usize;
                let o2 = (vr - vj + off) as usize;
                if d == ad || (jl & jr & (o1 == o2)) {
                    // A culprit pair that *is* a candidate pair, or both
                    // candidate pairs vacating one bucket (the second −1
                    // needs "count ≥ 3", which two mask bits cannot answer):
                    // exact per-bucket merge.
                    acc += row_merge(&mut touched, counts, values, meta, d, n, m, vm, off, j, vj);
                    continue;
                }
                let k1 = (vj - meta.left_other + off) as usize;
                let k2 = (meta.right_other - vj + off) as usize;
                let n1 = (vm - vl + off) as usize;
                let n2 = (vr - vm + off) as usize;
                let (mut occ, mut multi) = (row.occ, row.multi);
                let mut hits = 0i64;
                // The four +1 events, replayed in sequence with exact
                // maintenance: score the current occ bit, then fold it into
                // multi and set it (after a +1, a bucket's multi bit is its
                // occ bit from before).  Per-event deltas telescope, so the
                // sum is exact even when events share a bucket.
                let b1 = Wd::gated_bit(k1, meta.has_left);
                hits += occ.bit(k1) & i64::from(meta.has_left);
                multi = multi | (occ & b1);
                occ = occ | b1;
                let b2 = Wd::gated_bit(k2, meta.has_right);
                hits += occ.bit(k2) & i64::from(meta.has_right);
                multi = multi | (occ & b2);
                occ = occ | b2;
                let b3 = Wd::gated_bit(n1, jl);
                hits += occ.bit(n1) & i64::from(jl);
                multi = multi | (occ & b3);
                occ = occ | b3;
                let b4 = Wd::gated_bit(n2, jr);
                hits += occ.bit(n2) & i64::from(jr);
                multi = multi | (occ & b4);
                // The two −1 events read the maintained multi; o1 ≠ o2 here
                // (checked above), so neither read needs the other's
                // post-decrement state.
                hits -= multi.bit(o1) & i64::from(jl);
                hits -= multi.bit(o2) & i64::from(jr);
                acc += meta.w * hits;
            }
            *out_slot = out_slot.wrapping_add_signed(acc);
        }
    }

    /// Candidate-major probe body of the arbitrary-width kernel: the
    /// collision-detecting variant over slice-held mask copies.  In the
    /// collision-free common case every baseline test is a single bit test on
    /// `src`'s patched masks; culprit-neighbour cells and bucket collisions
    /// fall back to the exact per-bucket merge.  Serves n > 128, and every
    /// n ≥ 65 off the vector tier.  Bit-for-bit equal to the histogram
    /// reference (see the module docs for how that is pinned).
    fn probe_body(
        &self,
        src: &DynRows<'_>,
        m: usize,
        lo_bound: usize,
        removal_total: i64,
        out: &mut [u64],
    ) {
        let n = self.n;
        let dmax = self.dmax;
        let vm = self.values[m] as i64;
        let values = &self.values[..];
        let counts = &self.counts[..];
        let off = n as i64 - 1;
        let mut touched = BucketMerge::<6>::new();
        for (j, out_slot) in out.iter_mut().enumerate().skip(lo_bound) {
            if j == m {
                continue;
            }
            let vj = values[j] as i64;
            // Every partial sum of `acc` over full rows is a valid cost delta
            // (the rows of the difference triangle contribute independently),
            // and the final `cost + acc` is the post-swap cost, ≥ 0.
            let mut acc = removal_total;
            for di in 0..dmax {
                let row = src.meta(di);
                let d = di + 1;
                if j == m.wrapping_sub(d) || j == m + d {
                    acc += row_merge(&mut touched, counts, values, row, d, n, m, vm, off, j, vj);
                    continue;
                }
                // Fast path — identical event structure to the generic body,
                // but every baseline test is a mask bit test.
                let mut collide = false;
                let mut hits = 0i64;
                let (mut k1, mut k2) = (usize::MAX, usize::MAX);
                if row.has_left {
                    k1 = (vj - row.left_other + off) as usize;
                    hits += src.occ_bit(di, k1);
                }
                if row.has_right {
                    k2 = (row.right_other - vj + off) as usize;
                    hits += src.occ_bit(di, k2);
                    collide = k1 == k2;
                }
                let (mut o1, mut n1) = (usize::MAX, usize::MAX);
                if j >= d {
                    let vl = values[j - d] as i64;
                    o1 = (vj - vl + off) as usize;
                    n1 = (vm - vl + off) as usize;
                    hits += src.occ_bit(di, n1) - src.multi_bit(di, o1);
                    collide |= (k1 == o1) | (k1 == n1) | (k2 == o1) | (k2 == n1);
                }
                if j + d < n {
                    let vr = values[j + d] as i64;
                    let o2 = (vr - vj + off) as usize;
                    let n2 = (vr - vm + off) as usize;
                    hits += src.occ_bit(di, n2) - src.multi_bit(di, o2);
                    collide |= (k1 == o2) | (k1 == n2) | (k2 == o2) | (k2 == n2);
                    collide |= (o1 == o2) | (o1 == n2) | (n1 == o2) | (n1 == n2);
                }
                if collide {
                    acc += row_merge(&mut touched, counts, values, row, d, n, m, vm, off, j, vj);
                } else {
                    acc += row.w * hits;
                }
            }
            *out_slot = out_slot.wrapping_add_signed(acc);
        }
    }

    /// Does the dispatcher hand this table's probe to an AVX-512 body (the
    /// *vector tier*)?  True on x86-64 with AVX-512 F + DQ + BW + VBMI
    /// ([`simd::probe_kernel_available`]) when a row holds at most four mask
    /// words (n ≤ 128): the from-scratch body serves one-word rows, the
    /// byte-lane body the others.  Tables on this tier keep no masks, and
    /// their refresh pass runs the row-lane sweep.
    pub(crate) fn vector_probe(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let vector = self.n <= simd::ROW_LANES_MAX_ORDER && simd::probe_kernel_available();
        #[cfg(not(target_arch = "x86_64"))]
        let vector = false;
        vector
    }

    /// Scalar probe kernel for register-width rows, monomorphized per
    /// [`MaskWord`] row representation with stack storage for up to `R` rows
    /// (`u64, R = 32` for n ≤ 32 and `u128, R = 64` for n ≤ 64, chosen by
    /// the dispatcher): the telescoping replay ([`Self::probe_body_sim`])
    /// over the per-row contexts.  The dispatcher sends these orders here
    /// off the vector tier.
    pub(crate) fn probe_range_masked<Wd: MaskWord, const R: usize>(
        &self,
        m: usize,
        lo_bound: usize,
        out: &mut [u64],
    ) {
        let mut rows = [SimRow {
            meta: RowMeta::default(),
            occ: Wd::ZERO,
            multi: Wd::ZERO,
        }; R];
        let removal_total = self.build_rows(m, &mut rows);
        self.probe_body_sim(&rows[..self.dmax], m, lo_bound, removal_total, out);
    }

    /// Probe kernel over patched slice-held mask copies, reusing the
    /// table-owned [`DynScratch`]: the scalar collision-detecting body
    /// ([`Self::probe_body`]), pinned bit for bit to the histogram
    /// reference.  The dispatcher sends it rows of three or more words off
    /// the vector tier.
    pub(crate) fn probe_range_masked_dyn(&self, m: usize, lo_bound: usize, out: &mut [u64]) {
        let mut scratch = self.kernel_scratch.borrow_mut();
        let scratch = &mut *scratch;
        let removal_total = self.build_rows_dyn(m, scratch);
        let src = scratch.rows(self.mask_words);
        self.probe_body(&src, m, lo_bound, removal_total, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, ErrWeight, Rotation, RowSpan};
    use xrand::{default_rng, random_permutation, Rng64};

    fn one_based(mut p: Vec<usize>) -> Vec<usize> {
        p.iter_mut().for_each(|v| *v += 1);
        p
    }

    fn models() -> [CostModel; 4] {
        [
            CostModel::optimized(),
            CostModel::basic(),
            CostModel {
                weight: ErrWeight::Quadratic,
                span: RowSpan::Full,
            },
            CostModel {
                weight: ErrWeight::Unit,
                span: RowSpan::ChangHalf,
            },
        ]
    }

    /// A probe body's `(name, row width)` label, e.g. `("scalar", "slice")`
    /// or `("bytes", "3")`.
    type Tier = (&'static str, String);

    /// The AVX-512 body the dispatcher picks for this table, if any: the
    /// from-scratch body for one-word rows, the byte-lane body up to four.
    fn vector_tier(table: &ConflictTable) -> Option<Tier> {
        let words = table.mask_words;
        let body = if words == 1 { "scratch" } else { "bytes" };
        table.vector_probe().then(|| (body, words.to_string()))
    }

    /// The scalar tier called directly, bypassing the dispatcher, so it runs
    /// on AVX-512 hosts too: `probe_body_sim` over `u64` rows for n ≤ 32 and
    /// `u128` rows for n ≤ 64, `probe_body` over slice-held rows beyond.  A
    /// vector-tier table is rebuilt as a scalar-tier one first: the event
    /// algebra reads the counts and the masks.
    fn probe_scalar_tier(table: &ConflictTable, m: usize, lo_bound: usize) -> Vec<u64> {
        let scalar;
        let table = if table.keeps_masks() {
            table
        } else {
            scalar = ConflictTable::scalar_tier(table.values(), *table.model());
            &scalar
        };
        let mut out = vec![table.cost(); table.order()];
        match table.mask_words {
            1 => table.probe_range_masked::<u64, 32>(m, lo_bound, &mut out),
            2 => table.probe_range_masked::<u128, 64>(m, lo_bound, &mut out),
            _ => {
                let mut scratch = DynScratch::default();
                let removal_total = table.build_rows_dyn(m, &mut scratch);
                let src = scratch.rows(table.mask_words);
                table.probe_body(&src, m, lo_bound, removal_total, &mut out);
            }
        }
        out
    }

    /// Pin the dispatched probe and the directly called scalar tier to the
    /// histogram reference, for every culprit and both probe variants.
    /// Returns the bodies that ran: the scalar one and, when the dispatcher
    /// picks one, the AVX-512 one (the dispatched probe *is* that body here,
    /// so it is not called a second time).
    fn assert_probe_matches_reference(table: &ConflictTable, context: &str) -> Vec<Tier> {
        let n = table.order();
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        for m in 0..n {
            table.probe_partners(m, &mut fast);
            table.probe_partners_reference(m, &mut reference);
            assert_eq!(fast, reference, "probe_partners culprit {m} ({context})");
            let scalar = probe_scalar_tier(table, m, 0);
            assert_eq!(scalar, reference, "scalar tier culprit {m} ({context})");
            table.probe_partners_above(m, &mut fast);
            table.probe_partners_above_reference(m, &mut reference);
            assert_eq!(
                fast, reference,
                "probe_partners_above culprit {m} ({context})"
            );
            let scalar = probe_scalar_tier(table, m, m + 1);
            assert_eq!(
                scalar, reference,
                "scalar tier above culprit {m} ({context})"
            );
        }
        // The scalar tier has register-width bodies at one and two words per
        // row and one slice-held body beyond.
        let words = table.mask_words;
        let scalar = if words <= 2 {
            words.to_string()
        } else {
            "slice".to_string()
        };
        let mut ran = vec![("scalar", scalar)];
        ran.extend(vector_tier(table));
        ran
    }

    /// The tentpole equivalence: for every single-word order and every cost
    /// model, the dispatched kernel and the scalar replay tier agree bit for
    /// bit with the histogram reference on random permutations, for every
    /// culprit and both probe variants.
    #[test]
    fn kernels_match_histogram_reference_on_random_permutations() {
        for model in models() {
            for n in 2..=32usize {
                let mut rng = default_rng(0x005E_EDC0_57A5 ^ n as u64);
                let p = one_based(random_permutation(n, &mut rng));
                let table = ConflictTable::new(&p, model);
                assert_eq!(table.mask_words, 1, "n ≤ 32 is the single-word layout");
                assert_probe_matches_reference(&table, &format!("n={n}, {model:?}"));
            }
        }
    }

    /// The same equivalence past the single-word boundary, at the edges of
    /// every row width: the two-word rows (n = 33…64, the monomorphized
    /// scalar kernel and the AVX-512 byte-lane body), the three- and four-word
    /// slice-held rows (65…96 and 97…128, scalar and byte-lane), and n = 129,
    /// the first order past the vector tier's cap, against the histogram
    /// reference.  Orders up to 80 run
    /// every cost model.  From 96 on, a full check costs one to two seconds
    /// per model in a debug build, so n = 128 runs the first two models,
    /// which between them cover both weights and both spans, and the other
    /// edges (96, 97, 129) run the first.  n = 32 closes the single-word
    /// class so the printed tier line covers every width.
    #[test]
    fn multi_word_kernels_match_histogram_reference() {
        let mut ran = std::collections::BTreeSet::new();
        for (n, words, model_count) in [
            (32usize, 1usize, 4usize),
            (33, 2, 4),
            (40, 2, 4),
            (64, 2, 4),
            (65, 3, 4),
            (80, 3, 4),
            (96, 3, 1),
            (97, 4, 1),
            (128, 4, 2),
            (129, 5, 1),
        ] {
            for model in models().into_iter().take(model_count) {
                let mut rng = default_rng(0x00B1_657E_57A5 ^ n as u64);
                let p = one_based(random_permutation(n, &mut rng));
                let table = ConflictTable::new(&p, model);
                assert_eq!(table.mask_words, words, "mask layout for n = {n}");
                ran.extend(assert_probe_matches_reference(
                    &table,
                    &format!("n={n}, {model:?}"),
                ));
                // The reset's rotations through the public entry point, at
                // the first and the middle anchor.
                for m in [0, n / 2] {
                    let rotations = anchored_rotations(n, m);
                    let mut out = vec![0; rotations.len()];
                    table.rotation_costs(&rotations, &mut out);
                    assert_eq!(
                        out,
                        materialised_costs(&table, &rotations),
                        "rotations at {m}, n={n}, {model:?}"
                    );
                }
                let rotations = if table.batches_rotations() {
                    "batch"
                } else {
                    "materialised"
                };
                ran.insert(("rotations", rotations.to_string()));
            }
        }
        let widths = |tier: &str| -> String {
            let ws: Vec<_> = ran
                .iter()
                .filter(|t| t.0 == tier)
                .map(|t| t.1.as_str())
                .collect();
            if ws.is_empty() {
                " none".to_string()
            } else {
                format!(" W={}", ws.join(","))
            }
        };
        let rotations: Vec<_> = ran
            .iter()
            .filter(|t| t.0 == "rotations")
            .map(|t| t.1.as_str())
            .collect();
        let vector = if ran.iter().any(|t| t.0 == "scratch" || t.0 == "bytes") {
            format!("scratch{}; bytes{}", widths("scratch"), widths("bytes"))
        } else {
            "skipped, no F + DQ + BW + VBMI".to_string()
        };
        println!(
            "probe tiers: scalar{}; AVX-512 {vector}; reset rotations: {}",
            widths("scalar"),
            rotations.join(", ")
        );
    }

    /// The from-scratch AVX-512 body called directly, bypassing the
    /// dispatcher, against the histogram reference: every one-word order
    /// (n = 2 and 3 score row 1 only), every cost model, every culprit,
    /// both probe variants, on random, identity, reversed and swap-walked
    /// permutations.  Prints how many orders it ran (none without AVX-512).
    #[test]
    fn from_scratch_body_matches_reference_at_every_single_word_order() {
        #[cfg(target_arch = "x86_64")]
        fn check(table: &ConflictTable, context: &str) -> bool {
            if !table.vector_probe() {
                return false;
            }
            let n = table.order();
            let mut reference = Vec::new();
            for m in 0..n {
                for lo_bound in [0, m + 1] {
                    let mut out = vec![table.cost(); n];
                    // SAFETY: `vector_probe` checked the CPU features.
                    unsafe { table.probe_body_avx512_scratch(m, lo_bound, &mut out) };
                    if lo_bound == 0 {
                        table.probe_partners_reference(m, &mut reference);
                    } else {
                        table.probe_partners_above_reference(m, &mut reference);
                    }
                    assert_eq!(
                        out, reference,
                        "culprit {m}, lo_bound {lo_bound} ({context})"
                    );
                }
            }
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn check(_: &ConflictTable, _: &str) -> bool {
            false
        }
        let mut rng = default_rng(0x5C2A_7C40);
        let mut orders = 0;
        for n in 2..=32usize {
            let mut ran = false;
            for model in models() {
                let random = one_based(random_permutation(n, &mut rng));
                let identity: Vec<usize> = (1..=n).collect();
                let reversed: Vec<usize> = (1..=n).rev().collect();
                for (name, p) in [
                    ("random", random),
                    ("identity", identity),
                    ("reversed", reversed),
                ] {
                    let mut table = ConflictTable::new(&p, model);
                    ran |= check(&table, &format!("{name}, n={n}, {model:?}"));
                    for step in 0..4 {
                        let i = (rng.next_u64() as usize) % n;
                        let j = (rng.next_u64() as usize) % n;
                        table.apply_swap(i, j);
                        let context = format!("{name} walk step {step}, n={n}, {model:?}");
                        check(&table, &context);
                    }
                }
            }
            orders += usize::from(ran);
        }
        println!("from-scratch probe body: {orders} of 31 single-word orders");
    }

    /// The probe cells the byte-lane body scores by its two special cases,
    /// counted from the values: culprit-neighbour cells (`j = m ± d`) and
    /// cells whose two candidate pairs share a bucket (`o1 = o2`), over
    /// every candidate of culprit `m`.
    fn special_cells(table: &ConflictTable, m: usize) -> [usize; 2] {
        let (n, v) = (table.order(), table.values());
        let mut cells = [0; 2];
        for j in (0..n).filter(|&j| j != m) {
            for d in 1..=table.dmax {
                if j + d == m || m + d == j {
                    cells[0] += 1;
                } else if j >= d && j + d < n && v[j] + v[j] == v[j - d] + v[j + d] {
                    cells[1] += 1;
                }
            }
        }
        cells
    }

    /// The byte-lane AVX-512 body called directly, bypassing the
    /// dispatcher, against the histogram reference: the two- to four-word
    /// orders at every width and lookup edge (33/34, 63/64/65 — one table
    /// lookup up to n = 64, two beyond — 96/97, 127/128, and 40 and 80),
    /// every cost model, every culprit, both probe variants, on random,
    /// identity, reversed, multiplier (`v_i = k·i mod n`, two buckets per
    /// row) and swap-walked permutations.  The identity, reversed and
    /// multiplier rows are collision-heavy; the suite checks that it reached
    /// culprit-neighbour cells and shared-bucket (`o1 = o2`) cells, and
    /// prints how many orders it ran (none without the vector tier).
    #[test]
    fn byte_body_matches_reference_at_two_to_four_word_orders() {
        #[cfg(target_arch = "x86_64")]
        fn check(table: &ConflictTable, context: &str, reached: &mut [usize; 2]) -> bool {
            if !table.vector_probe() {
                return false;
            }
            let n = table.order();
            let mut reference = Vec::new();
            for m in 0..n {
                // The reference for `lo_bound = m + 1` is the full one with
                // the entries at and below the culprit at the current cost,
                // as `probe_partners_above_reference` builds it.
                table.probe_partners_reference(m, &mut reference);
                for lo_bound in [0, m + 1] {
                    let mut out = vec![table.cost(); n];
                    // SAFETY: `vector_probe` checked the CPU features.
                    unsafe { table.probe_body_avx512_bytes(m, lo_bound, &mut out) };
                    reference[..lo_bound].fill(table.cost());
                    assert_eq!(
                        out, reference,
                        "culprit {m}, lo_bound {lo_bound} ({context})"
                    );
                }
                let [neighbours, shared] = special_cells(table, m);
                reached[0] += neighbours;
                reached[1] += shared;
            }
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn check(_: &ConflictTable, _: &str, _: &mut [usize; 2]) -> bool {
            false
        }
        let mut rng = default_rng(0xB7E5_1A9E);
        let (mut orders, mut reached) = (0, [0; 2]);
        for n in [33usize, 34, 40, 63, 64, 65, 80, 96, 97, 127, 128] {
            let mut ran = false;
            let k = [3, 5, 7].into_iter().find(|k| n % k != 0).unwrap();
            for (i, model) in models().into_iter().enumerate() {
                let random = one_based(random_permutation(n, &mut rng));
                let identity: Vec<usize> = (1..=n).collect();
                let reversed: Vec<usize> = (1..=n).rev().collect();
                let multiplier: Vec<usize> = (0..n).map(|i| k * i % n + 1).collect();
                // A full check of one table costs up to a second in a debug
                // build from n = 96 on, so there the other models run the
                // random and the multiplier permutation only.
                let every = n <= 80 || i == 0;
                for (name, p) in [
                    ("random", random),
                    ("multiplier", multiplier),
                    ("identity", identity),
                    ("reversed", reversed),
                ] {
                    if !every && !matches!(name, "random" | "multiplier") {
                        continue;
                    }
                    let mut table = ConflictTable::new(&p, model);
                    ran |= check(&table, &format!("{name}, n={n}, {model:?}"), &mut reached);
                    if name != "random" || !every {
                        continue;
                    }
                    for step in 0..2 {
                        let i = (rng.next_u64() as usize) % n;
                        let j = (rng.next_u64() as usize) % n;
                        table.apply_swap(i, j);
                        let context = format!("walk step {step}, n={n}, {model:?}");
                        check(&table, &context, &mut reached);
                    }
                }
            }
            orders += usize::from(ran);
        }
        if orders == 0 {
            println!("byte-lane probe body: skipped, no AVX-512 F + DQ + BW + VBMI on this host");
            return;
        }
        let [neighbours, shared] = reached;
        assert!(neighbours > 0, "no culprit-neighbour cell was scored");
        assert!(shared > 0, "no shared-bucket (o1 = o2) cell was scored");
        println!(
            "byte-lane probe body: {orders} of 11 orders; {neighbours} culprit-neighbour \
             cells, {shared} shared-bucket cells"
        );
    }

    /// Every anchored rotation at anchor `m` of an order-`n` permutation, in
    /// the reset's order: `[m..=hi]` for ascending `hi`, then `[lo..=m]` for
    /// ascending `lo`, left before right.
    fn anchored_rotations(n: usize, m: usize) -> Vec<Rotation> {
        let ranges = (m + 1..n).map(|hi| (m, hi)).chain((0..m).map(|lo| (lo, m)));
        ranges
            .flat_map(|(lo, hi)| [true, false].map(|left| Rotation { lo, hi, left }))
            .collect()
    }

    /// `CostModel::global_cost` of each rotation of the table's permutation,
    /// materialised.
    fn materialised_costs(table: &ConflictTable, rotations: &[Rotation]) -> Vec<u64> {
        rotations
            .iter()
            .map(|r| {
                let mut rotated = table.values().to_vec();
                r.apply(&mut rotated);
                table.model().global_cost(&rotated)
            })
            .collect()
    }

    /// The rotation body called directly, bypassing dispatch, against the
    /// from-scratch cost of each materialised rotation: every one-word order,
    /// every cost model, every anchor with both sub-families and both
    /// directions, on random, identity, reversed and swap-walked
    /// permutations.  Each anchor's rotations go in one call (the last batch
    /// is partial unless 8 divides 2(n − 1)) and as every prefix of one to
    /// eight, into an output with a sentinel past the end.  Prints how many
    /// orders it ran, or why it did not.
    #[test]
    fn rotation_body_matches_materialised_rotations_at_every_single_word_order() {
        #[cfg(target_arch = "x86_64")]
        fn check(table: &ConflictTable, context: &str) -> bool {
            if !table.batches_rotations() {
                return false;
            }
            let n = table.order();
            for m in 0..n {
                let rotations = anchored_rotations(n, m);
                let expected = materialised_costs(table, &rotations);
                for len in (1..=rotations.len().min(8)).chain([rotations.len()]) {
                    let mut out = vec![u64::MAX; len + 1];
                    // SAFETY: `batches_rotations` checked the CPU features.
                    unsafe { table.rotation_body_avx512(&rotations[..len], &mut out) };
                    assert_eq!(
                        &out[..len],
                        &expected[..len],
                        "anchor {m}, {len} ({context})"
                    );
                    assert_eq!(out[len], u64::MAX, "wrote past the rotations ({context})");
                }
            }
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn check(_: &ConflictTable, _: &str) -> bool {
            false
        }
        let mut rng = default_rng(0x7074_A7E5);
        let mut orders = 0;
        for n in 2..=32usize {
            let mut ran = false;
            for model in models() {
                let random = one_based(random_permutation(n, &mut rng));
                let identity: Vec<usize> = (1..=n).collect();
                let reversed: Vec<usize> = (1..=n).rev().collect();
                for (name, p) in [
                    ("random", random),
                    ("identity", identity),
                    ("reversed", reversed),
                ] {
                    let mut table = ConflictTable::new(&p, model);
                    ran |= check(&table, &format!("{name}, n={n}, {model:?}"));
                    for step in 0..2 {
                        let i = (rng.next_u64() as usize) % n;
                        let j = (rng.next_u64() as usize) % n;
                        table.apply_swap(i, j);
                        check(
                            &table,
                            &format!("{name} walk step {step}, n={n}, {model:?}"),
                        );
                    }
                }
            }
            orders += usize::from(ran);
        }
        if orders == 0 {
            println!("rotation body: skipped, no AVX-512 F + DQ + BW + VBMI on this host");
        } else {
            println!("rotation body: {orders} of 31 single-word orders");
        }
    }

    /// Adversarial configurations: the identity permutation collapses every
    /// row into a single bucket (maximal collisions) and the reverse
    /// permutation mirrors it, so the fallback path is exercised heavily —
    /// across all three kernel widths.  n = 80 runs the first two models,
    /// which between them cover both weights and both spans, to keep the
    /// debug-build suite short.
    #[test]
    fn kernels_match_reference_on_collision_heavy_permutations() {
        for (i, model) in models().into_iter().enumerate() {
            for n in (2..=32usize)
                .chain([33, 40, 65])
                .chain((i < 2).then_some(80))
            {
                let identity: Vec<usize> = (1..=n).collect();
                let reversed: Vec<usize> = (1..=n).rev().collect();
                for (name, p) in [("identity", identity), ("reversed", reversed)] {
                    let table = ConflictTable::new(&p, model);
                    assert_probe_matches_reference(&table, &format!("{name}, n={n}"));
                }
            }
        }
    }

    /// The kernels stay correct as the table evolves through swaps (mask
    /// maintenance and probe must agree at every intermediate state), at
    /// every kernel width.  n = 80 walks 6 steps instead of 40: one state's
    /// full check costs about 0.7 s there in a debug build.
    #[test]
    fn kernels_match_reference_along_swap_walks() {
        let mut rng = default_rng(2_027);
        for n in [13usize, 18, 24, 31, 32, 33, 40, 65, 80] {
            let p = one_based(random_permutation(n, &mut rng));
            let mut table = ConflictTable::new(&p, CostModel::optimized());
            let steps = if n <= 65 { 40 } else { 6 };
            for step in 0..steps {
                let i = (rng.next_u64() as usize) % n;
                let j = (rng.next_u64() as usize) % n;
                table.apply_swap(i, j);
                assert_probe_matches_reference(&table, &format!("n={n}, step {step}"));
            }
        }
    }

    /// The width assertion in `build_rows` fires when a kernel is
    /// instantiated at the wrong width — the typed guard replacing the old
    /// silent 32-row cap.
    #[test]
    #[should_panic(expected = "does not match the table's")]
    fn build_rows_rejects_a_width_mismatch() {
        let p = one_based(random_permutation(40, &mut default_rng(11)));
        let table = ConflictTable::scalar_tier(&p, CostModel::optimized());
        // n = 40 has two mask words per row; forcing the single-word kernel
        // must be rejected up front rather than silently mis-indexing.
        let mut out = vec![0u64; 40];
        table.probe_range_masked::<u64, 64>(0, 0, &mut out);
    }

    /// The culprit bound is enforced inside the kernel itself, not just by
    /// callers.
    #[test]
    #[should_panic(expected = "out of range for order")]
    fn build_rows_rejects_an_out_of_range_culprit() {
        let p = one_based(random_permutation(16, &mut default_rng(13)));
        let table = ConflictTable::scalar_tier(&p, CostModel::optimized());
        let mut out = vec![0u64; 16];
        table.probe_range_masked::<u64, 32>(16, 0, &mut out);
    }

    /// Row storage smaller than the scored distance count is rejected.
    #[test]
    #[should_panic(expected = "distances are scored")]
    fn build_rows_rejects_undersized_row_storage() {
        let p = one_based(random_permutation(32, &mut default_rng(17)));
        // Full span scores 31 distances; 16 rows of storage must not pass.
        let table = ConflictTable::scalar_tier(&p, CostModel::basic());
        let mut out = vec![0u64; 32];
        table.probe_range_masked::<u64, 16>(0, 0, &mut out);
    }

    /// Check every tier of the bounded reset evaluator against `expected` —
    /// the scalar body and the vector body called directly, so the scalar
    /// tier runs on AVX-512 hosts too, plus the dispatcher.  Returns whether
    /// the vector body ran.
    fn assert_bounded_tiers(
        model: CostModel,
        p: &[usize],
        limit: u64,
        expected: Option<u64>,
        context: &str,
    ) -> bool {
        let mut scratch = Vec::new();
        assert_eq!(
            model.global_cost_bounded_scalar(p, limit, &mut scratch),
            expected,
            "scalar body, limit {limit} ({context})"
        );
        assert_eq!(
            model.global_cost_bounded(p, limit, &mut scratch),
            expected,
            "dispatcher, limit {limit} ({context})"
        );
        #[cfg(target_arch = "x86_64")]
        if p.len() <= simd::ROW_LANES_MAX_ORDER && simd::probe_kernel_available() {
            // SAFETY: the CPU features and the order were just checked.
            let vector = unsafe { model.global_cost_bounded_avx512(p, limit) };
            assert_eq!(vector, expected, "row-lane body, limit {limit} ({context})");
            return true;
        }
        false
    }

    /// The reset evaluator's tiers agree with the from-scratch cost: orders
    /// 1..=130 (every row-lane width W = 1…4 and the n > 128 fallback edge),
    /// all cost models, random, identity and reversed permutations, at limits
    /// on both sides of the true cost.
    #[test]
    fn reset_evaluator_tiers_match_the_from_scratch_cost() {
        let mut rng = default_rng(0x05E7_E7A1);
        let mut scratch = Vec::new();
        let mut vector_orders = 0;
        for n in 1..=130usize {
            let random = one_based(random_permutation(n, &mut rng));
            let identity: Vec<usize> = (1..=n).collect();
            let reversed: Vec<usize> = (1..=n).rev().collect();
            let mut vector_ran = false;
            for model in models() {
                for (name, p) in [
                    ("random", &random),
                    ("identity", &identity),
                    ("reversed", &reversed),
                ] {
                    let cost = model.global_cost_with(p, &mut scratch);
                    for limit in [u64::MAX, cost, cost.saturating_sub(1), 0] {
                        let expected = (cost <= limit).then_some(cost);
                        let context = format!("{name}, n={n}, {model:?}");
                        vector_ran |= assert_bounded_tiers(model, p, limit, expected, &context);
                    }
                }
            }
            vector_orders += usize::from(vector_ran);
        }
        println!("reset evaluator tiers: scalar 130 orders, AVX-512 row lanes {vector_orders}");
    }

    /// Reset-shaped inputs: random permutations at every width class with
    /// limits drawn around the true cost, where the early abort can fire
    /// after any row group.
    #[test]
    fn reset_evaluator_tiers_agree_at_random_limits() {
        let mut rng = default_rng(0x0B0A_7DED);
        let mut scratch = Vec::new();
        for n in [3usize, 16, 17, 32, 33, 40, 64, 65, 80, 96, 97, 128, 129] {
            for model in models() {
                for _ in 0..20 {
                    let p = one_based(random_permutation(n, &mut rng));
                    let cost = model.global_cost_with(&p, &mut scratch);
                    let limit = rng.next_u64() % (2 * cost + 2);
                    let expected = (cost <= limit).then_some(cost);
                    assert_bounded_tiers(model, &p, limit, expected, &format!("n={n}, {model:?}"));
                }
            }
        }
    }

    /// The table's state built from scratch, independently of both refresh
    /// tiers: the histogram, the masks read off it, the cost and the
    /// per-position errors from the reference sweeps.
    struct Scratch {
        counts: Vec<u32>,
        occ: Vec<u64>,
        multi: Vec<u64>,
        cost: u64,
        errors: Vec<u64>,
    }

    fn from_scratch(values: &[usize], model: CostModel) -> Scratch {
        let n = values.len();
        let (width, dmax) = ((2 * n - 1).max(1), model.max_distance(n));
        let words = width.div_ceil(64);
        let mut counts = vec![0u32; dmax * width];
        for d in 1..=dmax {
            for i in 0..n - d {
                counts[(d - 1) * width + values[i + d] + n - 1 - values[i]] += 1;
            }
        }
        let (mut occ, mut multi) = (vec![0u64; dmax * words], vec![0u64; dmax * words]);
        for d in 1..=dmax {
            for b in 0..width {
                let c = counts[(d - 1) * width + b];
                let word = (d - 1) * words + b / 64;
                occ[word] |= u64::from(c >= 1) << (b % 64);
                multi[word] |= u64::from(c >= 2) << (b % 64);
            }
        }
        let mut errors = Vec::new();
        model.variable_errors(values, &mut errors);
        Scratch {
            counts,
            occ,
            multi,
            cost: model.global_cost(values),
            errors,
        }
    }

    /// Run each refresh tier directly on a table whose derived state has
    /// been clobbered, and check masks (none on the vector tier), cost,
    /// errors and counts (none on the count-free tier) against a
    /// from-scratch build: the scalar tier on a scalar-tier table (counts
    /// and masks) and on a copy of `table`, and the vector tier on a copy of
    /// `table` where it runs.  Returns whether the vector tier ran.
    fn assert_refresh_tiers(table: &ConflictTable, context: &str) -> bool {
        let expected = from_scratch(table.values(), *table.model());
        let scalar = ConflictTable::scalar_tier(table.values(), *table.model());
        type Tier = fn(&mut ConflictTable);
        let mut runs: Vec<(&str, &ConflictTable, Tier)> = vec![
            ("scalar", &scalar, ConflictTable::refresh_scalar),
            ("scalar on this table", table, ConflictTable::refresh_scalar),
        ];
        #[cfg(target_arch = "x86_64")]
        if table.vector_probe() {
            // SAFETY: `vector_probe` checked the CPU features and the order.
            runs.push(("AVX-512", table, |t| unsafe { t.refresh_avx512() }));
        }
        for &(name, base, refresh) in &runs {
            let mut t = base.clone();
            t.occ_mask.iter_mut().for_each(|w| *w = !0);
            t.multi_mask.iter_mut().for_each(|w| *w = !0);
            t.errors.iter_mut().for_each(|e| *e = 0xdead);
            t.cost = 0xdead;
            refresh(&mut t);
            if t.keeps_counts() {
                assert_eq!(t.counts, expected.counts, "{name} counts ({context})");
            } else {
                assert!(
                    t.counts.is_empty(),
                    "count-free table holds counts ({context})"
                );
            }
            if t.keeps_masks() {
                assert_eq!(t.occ_mask, expected.occ, "{name} occ ({context})");
                assert_eq!(t.multi_mask, expected.multi, "{name} multi ({context})");
            } else {
                assert!(
                    t.occ_mask.is_empty() && t.multi_mask.is_empty(),
                    "vector-tier table holds masks ({context})"
                );
            }
            assert_eq!(t.cost, expected.cost, "{name} cost ({context})");
            assert_eq!(t.errors, expected.errors, "{name} errors ({context})");
        }
        runs.len() == 3
    }

    /// Both refresh tiers equal a from-scratch build along seeded random
    /// walks of swaps and `reset_to`s, under both cost models: orders 2–32
    /// and every width edge up to the row-lane cap (both tiers), and 129 and
    /// 160 past it (the scalar tier alone serves there).
    #[test]
    fn refresh_pass_tiers_match_a_from_scratch_build() {
        let mut rng = default_rng(0x00DE_F7E5_4A11);
        let (mut orders, mut vector_orders) = (0, 0);
        for n in (2..=32usize).chain([33, 40, 64, 65, 80, 96, 97, 128, 129, 160]) {
            let mut vector_ran = false;
            for model in [CostModel::optimized(), CostModel::basic()] {
                let p = one_based(random_permutation(n, &mut rng));
                let mut table = ConflictTable::new(&p, model);
                let steps = if n <= 64 { 24 } else { 8 };
                for step in 0..steps {
                    if step % 6 == 5 {
                        table.reset_to(&one_based(random_permutation(n, &mut rng)));
                    } else {
                        let i = (rng.next_u64() as usize) % n;
                        let j = (rng.next_u64() as usize) % n;
                        table.apply_swap(i, j);
                    }
                    let context = format!("n={n}, {model:?}, step {step}");
                    vector_ran |= assert_refresh_tiers(&table, &context);
                }
            }
            orders += 1;
            vector_orders += usize::from(vector_ran);
        }
        println!("refresh tiers: scalar {orders} orders, AVX-512 row lanes {vector_orders}");
    }

    /// Collision-heavy inputs for the refresh pass: the identity and the
    /// reversed permutation put every pair of a row into one bucket.
    #[test]
    fn refresh_pass_tiers_handle_single_bucket_rows() {
        for n in [2usize, 9, 16, 33, 65, 97, 128, 129] {
            for model in [CostModel::optimized(), CostModel::basic()] {
                for p in [(1..=n).collect::<Vec<_>>(), (1..=n).rev().collect()] {
                    let table = ConflictTable::new(&p, model);
                    assert_refresh_tiers(&table, &format!("n={n}, {model:?}, {:?}", &p[..2]));
                }
            }
        }
    }
}
