//! Batched probe kernels for the Costas conflict table.
//!
//! [`ConflictTable`] maintains, for every row `d` of the difference-triangle
//! histogram, two occupancy bitsets over the row's `2n − 1` buckets: `occ`
//! (bucket holds ≥ 1 pair) and `multi` (≥ 2).  A row spans
//! `W = ⌈(2n − 1) / 64⌉` `u64` words — one word for n ≤ 32 (the historical
//! layout, bit for bit), two for n ≤ 64, unbounded beyond — and the kernels in
//! this module are generic over `W`, so no order falls back to the slow
//! histogram path.  All of them are pinned bit for bit to the plain histogram
//! reference (`ConflictTable::probe_partners_reference`):
//!
//! * [`ConflictTable::probe_range_masked`] — the **production kernel** behind
//!   the dispatched `probe_partners`, monomorphized per row-mask word type
//!   ([`MaskWord`]: one `u64` for n ≤ 32 — the historical single-word layout
//!   bit for bit — one `u128` holding both words for n ≤ 64).  Candidate-major
//!   and *collision-free by construction*: per (candidate, row) cell the ≤ 6
//!   bucket events are replayed **in sequence** on register copies of the
//!   row's patched masks.  Each `+1` scores its current `occ` bit and then
//!   maintains both bits exactly (after a `+1`, a bucket's `multi` bit is its
//!   `occ` bit from before, and its `occ` bit is set); each `−1` scores the
//!   maintained `multi` bit.  Because the per-event deltas telescope, the sum
//!   is exact even when events share a bucket — no per-cell collision
//!   detection, no count reads.  Only two cases leave this path: the
//!   culprit-neighbour cells (`j = m ± d`, where a culprit pair *is* a
//!   candidate pair) and both candidate pairs vacating one shared bucket
//!   (the second `−1` needs "count ≥ 3", which two bits cannot answer); both
//!   fall back to the exact per-bucket merge on the flat counts.  The per-row
//!   mask patches for the culprit-vacated buckets are built once per probe
//!   call ([`SimRow`]), and the culprit-removal delta — identical for every
//!   candidate — is summed across rows once and added once per candidate
//!   instead of once per (row, candidate).  On x86-64 with AVX-512 F + DQ the
//!   dispatcher swaps the replay loop for the vector body in [`simd`]: the
//!   same cell algebra scored 8 candidates per instruction, with the
//!   sequential replay replaced by branchless bucket-equality corrections and
//!   the `j = m ± d` cells folded into the lanes by a partner-value override,
//!   so only the shared-bucket double-vacate still reaches the exact merge.
//!   The scalar replay body is the portable fallback and the vector body's
//!   pinned sibling.
//! * [`ConflictTable::probe_range_masked_dyn`] — the same candidate-major body
//!   over slice-held mask copies for arbitrary width (`W ≥ 3`, n ≥ 65), with
//!   the patched masks kept in a table-owned scratch so the read-only probe
//!   contract stays allocation-free.  The scalar body here detects bucket
//!   collisions per cell and sends them to the exact merge.  On AVX-512
//!   F + DQ hosts, rows of three or four words (n ≤ 128) take the vector
//!   body instead: the same lane algebra as the register-width one, with
//!   every bucket bit read from the row's words in one register by a lane
//!   permute, since the 64-bit shifted windows cannot hold n > 64 values
//!   (see [`simd`]).  Wider rows, and hosts without AVX-512, keep the
//!   scalar body.
//!
//! The `simd` module also holds the vector tier of the reset evaluator,
//! [`CostModel::global_cost_bounded`](crate::CostModel::global_cost_bounded):
//! one difference-triangle row per 64-bit lane, for n ≤ 128.  Its scalar
//! histogram tier stays in `cost.rs`.  The `reset_evaluator_*` tests below
//! call both tiers directly, so the scalar tier runs on AVX-512 hosts too,
//! and a `debug_assert!` in the dispatcher pins the vector result to the
//! scalar one on every call.
//!
//! Equivalence with the histogram reference is enforced three ways: the
//! `debug_assert!` in the probe dispatcher (every call, bit for bit), the unit
//! suite below (orders 2–32 exhaustively plus the width edges 33/40/64/65/80/
//! 96/97/128/129, all cost models up to n = 80, adversarial permutations,
//! swap walks, every kernel — the scalar tier is called directly at every
//! width, so it runs on AVX-512 hosts too, and the suite prints the tiers
//! that ran, e.g. `probe tiers: scalar W=1,2,slice; AVX-512 W=1,2,3,4`), and
//! the cross-crate conformance kit in `adaptive-search`, which drives random
//! swap/reset/inject sequences against a from-scratch oracle.

use crate::cost::ConflictTable;
use crate::merge::BucketMerge;

#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;

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
/// event-replay kernel ([`ConflictTable::probe_range_masked`]) does every bit
/// test *and* every bit update with plain shifts — no word indexing.  The
/// dispatcher monomorphizes the kernel per implementor: `u64` carries the
/// single-word rows of n ≤ 32, `u128` carries both words of the two-word rows
/// of 33 ≤ n ≤ 64 (row width 2n − 1 ≤ 127 bits).  Wider rows take the
/// slice-walking kernel instead.
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
    /// The low 64 bits of `self >> s`.
    fn shifted_low(self, s: usize) -> u64;
    /// The low mask word (bits 0..64).
    fn lo64(self) -> u64;
    /// The high mask word (bits 64..128; zero for single-word rows).
    fn hi64(self) -> u64;
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
    #[inline]
    fn shifted_low(self, s: usize) -> u64 {
        self >> s
    }
    #[inline]
    fn lo64(self) -> u64 {
        self
    }
    #[inline]
    fn hi64(self) -> u64 {
        0
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
    #[inline]
    fn shifted_low(self, s: usize) -> u64 {
        (self >> s) as u64
    }
    #[inline]
    fn lo64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn hi64(self) -> u64 {
        (self >> 64) as u64
    }
}

/// Per-row probe context for the event-replay kernel: the shared [`RowMeta`],
/// the row's occupancy masks packed into one [`MaskWord`] each (with the
/// culprit-vacated buckets already patched out), and four precomputed
/// *shifted windows* of the patched `occ` mask.
///
/// The windows exploit that four of a cell's six bucket indices are
/// single-variable affine functions of one candidate-side value `v` with a
/// row-constant offset — `k1 = v_j − left + off`, `k2 = right − v_j + off`,
/// `n1 = v_m − v_l + off`, `n2 = v_r − v_m + off` — so shifting the (for the
/// descending forms, bit-reversed) mask by the row constant once turns each
/// per-candidate occupancy test into a single `u64` bit extract at `v − 1`
/// (values are 1-based and `n ≤ 64` on this path, so the low 64 bits of the
/// window always cover them).  Absent culprit sides store an all-zero window,
/// which gates `k1`/`k2` for free.
#[derive(Clone, Copy)]
pub(crate) struct SimRow<Wd> {
    meta: RowMeta,
    occ: Wd,
    multi: Wd,
    /// `occ >> (n − left_other)`: bit `v_j − 1` is `occ[k1]`; zero when the
    /// left culprit pair is absent.
    p1: u64,
    /// n-bit reversal of `occ >> (right_other − 1)`: bit `v_j − 1` is
    /// `occ[k2]`; zero when the right culprit pair is absent.
    p2: u64,
    /// n-bit reversal of `occ >> (v_m − 1)`: bit `v_l − 1` is `occ[n1]`.
    p3: u64,
    /// `occ >> (n − v_m)`: bit `v_r − 1` is `occ[n2]`.
    p4: u64,
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
/// ([`ConflictTable::probe_range_masked_dyn`]): bit tests walk the patched
/// [`DynScratch`] copies word by word (the scalar `probe_body`) or load a
/// row's words into one register (the AVX-512 body for W ≤ 4).
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

/// Reverse an n-bit window held in the low bits of `x` (bit `i` ↦ bit
/// `n − 1 − i`), discarding bits at and above `n`: the descending-form
/// shifted windows of [`SimRow`] are built from this, so multi-word masks
/// never need a full-width bit reversal.
#[inline]
fn rev_window(x: u64, n: usize) -> u64 {
    x.reverse_bits() >> (64 - n)
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
    /// when `rows` cannot hold every scored distance.
    fn build_rows<Wd: MaskWord>(&self, m: usize, rows: &mut [SimRow<Wd>]) -> i64 {
        assert!(m < self.n, "culprit {m} out of range for order {}", self.n);
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
        let n_i = self.n as i64;
        let vm = self.values[m] as i64;
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
            // The shifted windows (see [`SimRow`]); `left_other`/`right_other`
            // and `v_m` are all in 1..=n, so every shift is in 0..n for the
            // ascending windows and 0..width for the descending ones, and the
            // descending forms only need the low 64 bits of the segment
            // reversed — never the full multi-word mask.
            let p1 = if meta.has_left {
                occ.shifted_low((n_i - meta.left_other) as usize)
            } else {
                0
            };
            let p2 = if meta.has_right {
                rev_window(occ.shifted_low((meta.right_other - 1) as usize), self.n)
            } else {
                0
            };
            let p3 = rev_window(occ.shifted_low((vm - 1) as usize), self.n);
            let p4 = occ.shifted_low((n_i - vm) as usize);
            rows[d - 1] = SimRow {
                meta,
                occ,
                multi,
                p1,
                p2,
                p3,
                p4,
            };
        }
        removal_total
    }

    /// Arbitrary-width analogue of [`ConflictTable::build_rows`]: copy the
    /// full mask arrays into `scratch` and patch the culprit-vacated buckets
    /// in place.
    fn build_rows_dyn(&self, m: usize, scratch: &mut DynScratch) -> i64 {
        assert!(m < self.n, "culprit {m} out of range for order {}", self.n);
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
    /// n ≥ 65 on hosts without AVX-512.  Bit-for-bit equal to the histogram
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

    /// Does the dispatcher hand this table's probe to an AVX-512 body?  True
    /// on x86-64 with AVX-512 F + DQ ([`simd::probe_kernel_available`]) when a
    /// row holds at most four mask words (n ≤ 128); both kernel entry points
    /// branch on it.
    fn vector_probe(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let vector = self.n <= simd::ROW_LANES_MAX_ORDER && simd::probe_kernel_available();
        #[cfg(not(target_arch = "x86_64"))]
        let vector = false;
        vector
    }

    /// Production probe kernel, monomorphized per [`MaskWord`] row
    /// representation with stack storage for up to `R` rows (`u64, R = 32`
    /// for n ≤ 32 — the historical single-word layout bit for bit — and
    /// `u128, R = 64` for n ≤ 64, chosen by the dispatcher).  After the
    /// per-row contexts are built, the body is chosen at runtime: the AVX-512
    /// vector kernel ([`simd::probe_kernel_available`]) when the CPU has
    /// F + DQ, the scalar telescoping replay ([`Self::probe_body_sim`])
    /// otherwise — both pinned bit for bit to the histogram reference.
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
            p1: 0,
            p2: 0,
            p3: 0,
            p4: 0,
        }; R];
        let removal_total = self.build_rows(m, &mut rows);
        let rows = &rows[..self.dmax];
        #[cfg(target_arch = "x86_64")]
        if self.vector_probe() {
            // SAFETY: gated on runtime detection of the exact features the
            // vector body is compiled for (AVX-512 F + DQ).
            unsafe { self.probe_body_avx512(rows, m, lo_bound, removal_total, out) };
            return;
        }
        self.probe_body_sim(rows, m, lo_bound, removal_total, out);
    }

    /// Production probe kernel for arbitrary row width (`W ≥ 3` mask words,
    /// n ≥ 65) over patched slice-held mask copies, reusing the table-owned
    /// [`DynScratch`].  The body is chosen at runtime: the AVX-512 permute
    /// body ([`Self::probe_body_avx512_wide`]) when the CPU has F + DQ and
    /// the rows hold at most four words (n ≤ 128), the scalar
    /// collision-detecting body ([`Self::probe_body`]) otherwise — both
    /// pinned bit for bit to the histogram reference.
    pub(crate) fn probe_range_masked_dyn(&self, m: usize, lo_bound: usize, out: &mut [u64]) {
        let mut scratch = self.kernel_scratch.borrow_mut();
        let scratch = &mut *scratch;
        let removal_total = self.build_rows_dyn(m, scratch);
        let src = scratch.rows(self.mask_words);
        #[cfg(target_arch = "x86_64")]
        if self.vector_probe() {
            // SAFETY: gated on runtime detection of the exact features the
            // vector body is compiled for (AVX-512 F + DQ); n ≤ 128 keeps the
            // rows within its four-word cap.
            unsafe { self.probe_body_avx512_wide(&src, m, lo_bound, removal_total, out) };
            return;
        }
        self.probe_body(&src, m, lo_bound, removal_total, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, ErrWeight, RowSpan};
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

    /// A probe tier's `(kind, row width)` label, e.g. `("scalar", "slice")`
    /// or `("AVX-512", "3")`.
    type Tier = (&'static str, String);

    /// The scalar tier called directly, bypassing the dispatcher, so it runs
    /// on AVX-512 hosts too: `probe_body_sim` over `u64` rows for n ≤ 32 and
    /// `u128` rows for n ≤ 64, `probe_body` over slice-held rows beyond.
    fn probe_scalar_tier(table: &ConflictTable, m: usize, lo_bound: usize) -> Vec<u64> {
        fn run<Wd: MaskWord, const R: usize>(
            table: &ConflictTable,
            m: usize,
            lo_bound: usize,
        ) -> Vec<u64> {
            let mut rows = [SimRow {
                meta: RowMeta::default(),
                occ: Wd::ZERO,
                multi: Wd::ZERO,
                p1: 0,
                p2: 0,
                p3: 0,
                p4: 0,
            }; R];
            let removal_total = table.build_rows(m, &mut rows);
            let mut out = vec![table.cost(); table.order()];
            table.probe_body_sim(&rows[..table.dmax], m, lo_bound, removal_total, &mut out);
            out
        }
        match table.mask_words {
            1 => run::<u64, 32>(table, m, lo_bound),
            2 => run::<u128, 64>(table, m, lo_bound),
            _ => {
                let mut scratch = DynScratch::default();
                let removal_total = table.build_rows_dyn(m, &mut scratch);
                let mut out = vec![table.cost(); table.order()];
                let src = scratch.rows(table.mask_words);
                table.probe_body(&src, m, lo_bound, removal_total, &mut out);
                out
            }
        }
    }

    /// Pin the dispatched probe and the directly called scalar tier to the
    /// histogram reference, for every culprit and both probe variants.
    /// Returns the tiers that ran: the scalar one and, when the dispatcher
    /// picks it, the AVX-512 one (the dispatched probe *is* that tier here,
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
        if table.vector_probe() {
            ran.push(("AVX-512", words.to_string()));
        }
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
    /// every row width: the two-word monomorphized kernel (n = 33…64), the
    /// three- and four-word slice-held rows (65…96 and 97…128, where the
    /// AVX-512 permute body serves), and n = 129, the first order past that
    /// body's cap, against the histogram reference.  Orders up to 80 run
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
        println!(
            "probe tiers: scalar{}; AVX-512{}",
            widths("scalar"),
            widths("AVX-512")
        );
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
        let table = ConflictTable::new(&p, CostModel::optimized());
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
        let table = ConflictTable::new(&p, CostModel::optimized());
        let mut out = vec![0u64; 16];
        table.probe_range_masked::<u64, 32>(16, 0, &mut out);
    }

    /// Row storage smaller than the scored distance count is rejected.
    #[test]
    #[should_panic(expected = "distances are scored")]
    fn build_rows_rejects_undersized_row_storage() {
        let p = one_based(random_permutation(32, &mut default_rng(17)));
        // Full span scores 31 distances; 16 rows of storage must not pass.
        let table = ConflictTable::new(&p, CostModel::basic());
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
}
