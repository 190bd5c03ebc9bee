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
//!   scores one candidate's whole swapped permutation by the row-lane
//!   sweep's "pairs minus distinct buckets" identity, sixteen per pass in
//!   `u32` lanes while a row fits a 32-bit word (n ≤ 16) and eight per
//!   pass in `u64` lanes up to n = 32; it reads neither the counts nor the
//!   masks.  Its lane-cost loop also scores the Costas reset's sub-array
//!   rotations and circular constant additions in the same layout
//!   (`ConflictTable::rotation_body_avx512` and
//!   `ConflictTable::addition_body_avx512`, behind
//!   [`ConflictTable::rotation_costs`] and
//!   [`ConflictTable::addition_costs`]).  Nothing on this tier reads the
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
//!   `ConflictTable::probe_range_masked` holds each one-word row (n ≤ 32)
//!   in a `u64` per mask and runs `probe_body_sim`;
//!   `ConflictTable::probe_range_masked_dyn` runs `probe_body` over
//!   slice-held mask copies for every wider row (n ≥ 33), with the patched
//!   masks kept in a table-owned scratch so the read-only probe contract
//!   stays allocation-free.  At two words per row the slice body is faster
//!   than replaying the events on a `u128` per mask; at one word the replay
//!   is faster than the slice body.
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
//! `probe tiers: scalar W=1,slice; AVX-512 scratch W=1 16×u32 n≤16,
//! 8×u64 n≤32; bytes W=2,3,4; reset rotations: batch, materialised`; the
//! reset's rotation and addition bodies are checked at every one-word order,
//! both lane layouts and the n = 16 / 17 boundary included), and the
//! cross-crate conformance kit in `adaptive-search`, which drives random
//! swap/reset/inject sequences against a from-scratch oracle.

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

/// Per-row probe context for the one-word event-replay kernel
/// ([`ConflictTable::probe_range_masked`]): the shared [`RowMeta`] and the
/// row's occupancy masks, one `u64` each, with the culprit-vacated buckets
/// already patched out, so every bit test *and* every bit update is a plain
/// shift — no word indexing.
#[derive(Clone, Copy, Default)]
pub(crate) struct SimRow {
    meta: RowMeta,
    occ: u64,
    multi: u64,
}

/// Rows of stack storage the one-word kernel reserves: n ≤ 32 scores at
/// most 31 distances.
const ONE_WORD_ROWS: usize = 32;

/// `1 << b` when `set`, zero otherwise — the gate that turns an absent event
/// into a true no-op without a branch.
#[inline]
fn gated_bit(b: usize, set: bool) -> u64 {
    u64::from(set) << b
}

/// Bit `b` of `word` as 0 or 1.
#[inline]
fn bit(word: u64, b: usize) -> i64 {
    ((word >> b) & 1) as i64
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
fn for_each_patch(meta: &RowMeta, counts: &[u16], mut set: impl FnMut(usize, bool, bool)) {
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
    counts: &[u16],
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

    /// Build the per-row probe contexts of a one-word table into the
    /// kernel's stack storage, returning the hoisted culprit-removal total.
    ///
    /// The call is rejected up front when the culprit is out of range, when
    /// the table's rows span more than one mask word, or when the table keeps
    /// no counts or no masks (the event algebra reads both).
    fn build_rows(&self, m: usize, rows: &mut [SimRow; ONE_WORD_ROWS]) -> i64 {
        assert!(m < self.n, "culprit {m} out of range for order {}", self.n);
        assert!(self.keeps_counts(), "{NO_COUNTS}");
        assert!(self.keeps_masks(), "{NO_MASKS}");
        assert_eq!(
            self.mask_words, 1,
            "the one-word kernel does not match the table's {} mask words per row",
            self.mask_words
        );
        let counts = &self.counts[..];
        let mut removal_total = 0i64;
        for d in 1..=self.dmax {
            let (meta, removal) = self.build_row_meta(m, d);
            removal_total += removal;
            let mut occ = self.occ_mask[d - 1];
            let mut multi = self.multi_mask[d - 1];
            for_each_patch(&meta, counts, |k, o, mu| {
                let clear = !gated_bit(k, true);
                occ = (occ & clear) | gated_bit(k, o);
                multi = (multi & clear) | gated_bit(k, mu);
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

    /// Candidate-major event-replay body of the one-word kernel: fill
    /// `out[j]` for `j in lo_bound..n`, `j != m`.  Each (candidate, row) cell
    /// replays its ≤ 6 bucket events sequentially on register copies of the
    /// row's patched masks; per-event deltas telescope, so the sum is exact
    /// even when events share a bucket (see the module docs).  Only the
    /// culprit-neighbour cells and the both-pairs-vacate-one-bucket case fall
    /// back to the exact per-bucket merge.  Bit-for-bit equal to the histogram
    /// reference (see the module docs for how that is pinned).
    fn probe_body_sim(
        &self,
        rows: &[SimRow],
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
                let b1 = gated_bit(k1, meta.has_left);
                hits += bit(occ, k1) & i64::from(meta.has_left);
                multi |= occ & b1;
                occ |= b1;
                let b2 = gated_bit(k2, meta.has_right);
                hits += bit(occ, k2) & i64::from(meta.has_right);
                multi |= occ & b2;
                occ |= b2;
                let b3 = gated_bit(n1, jl);
                hits += bit(occ, n1) & i64::from(jl);
                multi |= occ & b3;
                occ |= b3;
                let b4 = gated_bit(n2, jr);
                hits += bit(occ, n2) & i64::from(jr);
                multi |= occ & b4;
                // The two −1 events read the maintained multi; o1 ≠ o2 here
                // (checked above), so neither read needs the other's
                // post-decrement state.
                hits -= bit(multi, o1) & i64::from(jl);
                hits -= bit(multi, o2) & i64::from(jr);
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
    /// n ≥ 33 off the vector tier.  Bit-for-bit equal to the histogram
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

    /// Scalar probe kernel for one-word rows (n ≤ 32): the telescoping
    /// replay ([`Self::probe_body_sim`]) over per-row contexts held on the
    /// stack.  The dispatcher sends these orders here off the vector tier.
    pub(crate) fn probe_range_masked(&self, m: usize, lo_bound: usize, out: &mut [u64]) {
        let mut rows = [SimRow::default(); ONE_WORD_ROWS];
        let removal_total = self.build_rows(m, &mut rows);
        self.probe_body_sim(&rows[..self.dmax], m, lo_bound, removal_total, out);
    }

    /// Probe kernel over patched slice-held mask copies, reusing the
    /// table-owned [`DynScratch`]: the scalar collision-detecting body
    /// ([`Self::probe_body`]), pinned bit for bit to the histogram
    /// reference.  The dispatcher sends it rows of two or more words off the
    /// vector tier.
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
    /// on AVX-512 hosts too: `probe_body_sim` over `u64` rows for n ≤ 32,
    /// `probe_body` over slice-held rows beyond.  A
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
            1 => table.probe_range_masked(m, lo_bound, &mut out),
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
        // The scalar tier has a register-width body for one word per row and
        // one slice-held body beyond.
        let words = table.mask_words;
        let scalar = if words == 1 {
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
    /// every row width: the two-, three- and four-word rows (33…64, 65…96 and
    /// 97…128, the slice-held scalar kernel and the AVX-512 byte-lane body),
    /// and n = 129, the first order past the vector tier's cap, against the
    /// histogram reference.  Orders up to 80 run every cost model.  From 96
    /// on, a full check costs one to two seconds
    /// per model in a debug build, so n = 128 runs the first two models,
    /// which between them cover both weights and both spans, and the other
    /// edges (96, 97, 129) run the first.  n = 16 and 32 close the
    /// single-word class's two lane layouts (sixteen `u32` lanes, eight
    /// `u64` lanes) so the printed tier line covers every width and layout.
    #[test]
    fn multi_word_kernels_match_histogram_reference() {
        let mut ran = std::collections::BTreeSet::new();
        for (n, words, model_count) in [
            (16usize, 1usize, 4usize),
            (32, 1, 4),
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
                #[cfg(target_arch = "x86_64")]
                if table.batches_rotations() {
                    let limit = if n <= simd::U32_LANES_MAX_ORDER {
                        16
                    } else {
                        32
                    };
                    ran.insert(("lanes", format!("{} n≤{limit}", lane_layout(n))));
                }
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
        let lanes: Vec<_> = ran
            .iter()
            .filter(|t| t.0 == "lanes")
            .map(|t| t.1.as_str())
            .collect();
        let vector = if ran.iter().any(|t| t.0 == "scratch" || t.0 == "bytes") {
            format!(
                "scratch{} {}; bytes{}",
                widths("scratch"),
                lanes.join(", "),
                widths("bytes")
            )
        } else {
            "skipped, no F + DQ + BW + VBMI".to_string()
        };
        println!(
            "probe tiers: scalar{}; AVX-512 {vector}; reset rotations: {}",
            widths("scalar"),
            rotations.join(", ")
        );
    }

    /// The lane-boundary orders of the from-scratch bodies: n = 16 fills
    /// exactly one block of sixteen `u32` lanes, n = 17 is the first order
    /// in eight `u64` lanes.
    const LANE_BOUNDARY: [usize; 2] = [16, 17];

    /// The permutations the single-word body tests score at order `n`:
    /// random, identity and reversed everywhere, plus at the lane boundary
    /// a multiplier permutation (`v_i = k·i mod n + 1`, at most two buckets
    /// per row) and a Costas array (cost 0).
    fn single_word_inputs(n: usize, rng: &mut impl Rng64) -> Vec<(&'static str, Vec<usize>)> {
        let mut inputs = vec![
            ("random", one_based(random_permutation(n, rng))),
            ("identity", (1..=n).collect()),
            ("reversed", (1..=n).rev().collect()),
        ];
        if LANE_BOUNDARY.contains(&n) {
            // 3 is coprime with both boundary orders.
            inputs.push(("multiplier", (0..n).map(|i| 3 * i % n + 1).collect()));
            let costas = crate::construction::any_construction(n).expect("Costas array");
            inputs.push(("costas", costas.values().to_vec()));
        }
        inputs
    }

    /// The from-scratch bodies' lane layout at order `n` (n ≤ 32).
    #[cfg(target_arch = "x86_64")]
    fn lane_layout(n: usize) -> &'static str {
        if n <= simd::U32_LANES_MAX_ORDER {
            "16×u32"
        } else {
            "8×u64"
        }
    }

    /// Which orders ran in which lane layout, e.g.
    /// `16×u32 n=2..=16, 8×u64 n=17..=32`.
    fn layouts_line(ran: &std::collections::BTreeMap<&'static str, Vec<usize>>) -> String {
        let layouts: Vec<_> = ran
            .iter()
            .map(|(layout, orders)| {
                let (lo, hi) = (orders.iter().min(), orders.iter().max());
                format!("{layout} n={}..={}", lo.unwrap(), hi.unwrap())
            })
            .collect();
        layouts.join(", ")
    }

    /// The from-scratch AVX-512 body called directly, bypassing the
    /// dispatcher, against the histogram reference: every one-word order
    /// (n = 2 and 3 score row 1 only), every cost model, every culprit,
    /// both probe variants, on random, identity, reversed and swap-walked
    /// permutations, and at the lane boundary (n = 16, one block of sixteen
    /// `u32` lanes with the culprit at each lane; n = 17, the first order in
    /// eight `u64` lanes) on multiplier and Costas permutations and a longer
    /// walk too.  Prints which orders ran in which lane layout (none
    /// without AVX-512).
    #[test]
    fn from_scratch_body_matches_reference_at_every_single_word_order() {
        #[cfg(target_arch = "x86_64")]
        fn check(table: &ConflictTable, context: &str) -> Option<&'static str> {
            if !table.vector_probe() {
                return None;
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
            Some(lane_layout(n))
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn check(_: &ConflictTable, _: &str) -> Option<&'static str> {
            None
        }
        let mut rng = default_rng(0x5C2A_7C40);
        let mut ran = std::collections::BTreeMap::<_, Vec<usize>>::new();
        for n in 2..=32usize {
            let steps = if LANE_BOUNDARY.contains(&n) { 12 } else { 4 };
            for model in models() {
                for (name, p) in single_word_inputs(n, &mut rng) {
                    let mut table = ConflictTable::new(&p, model);
                    if let Some(layout) = check(&table, &format!("{name}, n={n}, {model:?}")) {
                        ran.entry(layout).or_default().push(n);
                    }
                    for step in 0..steps {
                        let i = (rng.next_u64() as usize) % n;
                        let j = (rng.next_u64() as usize) % n;
                        table.apply_swap(i, j);
                        let context = format!("{name} walk step {step}, n={n}, {model:?}");
                        check(&table, &context);
                    }
                }
            }
        }
        if ran.is_empty() {
            println!(
                "from-scratch probe body: skipped, no AVX-512 F + DQ + BW + VBMI on this host"
            );
        } else {
            println!("from-scratch probe body: {}", layouts_line(&ran));
        }
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

    /// The byte-lane probe's row-context pre-pass, called directly, against
    /// `build_row_meta`, the scalar bodies' per-row context: for every
    /// culprit and row at the byte-lane orders (every row width and both
    /// table layouts) under both models, on random, walked, identity and
    /// reversed permutations — in the last two both culprit pairs vacate one
    /// bucket.  Checks `v[m − d]`, `v[m + d]`, the vacated buckets, their
    /// counts, each row's removal term and the total.
    #[test]
    fn row_context_pre_pass_matches_build_row_meta() {
        #[cfg(target_arch = "x86_64")]
        fn check(table: &ConflictTable, context: &str) -> bool {
            if !table.vector_probe() {
                return false;
            }
            let n = table.order();
            // SAFETY: `vector_probe` checked the CPU features; 33 ≤ n ≤ 128
            // and the table keeps its counts.
            let bytes = unsafe { table.value_bytes() };
            for m in 0..n {
                let mut ctx = simd::RowContexts::default();
                // SAFETY: as above, and m < n.
                let total = unsafe { table.row_contexts(m, &bytes, &mut ctx) };
                let mut expected_total = 0;
                for d in 1..=table.dmax {
                    let (meta, removal) = table.build_row_meta(m, d);
                    let (r, at) = (d - 1, format!("m={m} d={d} ({context})"));
                    expected_total += removal;
                    assert_eq!(i64::from(ctx.removal[r]), removal, "removal, {at}");
                    let sides = [
                        (ctx.left[r], meta.has_left, meta.left_other),
                        (ctx.right[r], meta.has_right, meta.right_other),
                    ];
                    let mut vacated = Vec::new();
                    for (k, (value, has, other)) in sides.into_iter().enumerate() {
                        assert_eq!(value != 0, has, "side {k} present, {at}");
                        let count = ctx.vacated_counts[k][r];
                        if has {
                            assert_eq!(i64::from(value), other, "side {k} value, {at}");
                            let bucket = usize::from(ctx.vacated[k][r]);
                            assert_eq!(count, table.counts[meta.base + bucket], "count, {at}");
                            vacated.push(bucket);
                        } else {
                            assert_eq!(count, 0, "absent side {k} count, {at}");
                        }
                    }
                    let mut expected = Vec::new();
                    for (bucket, pairs) in [(meta.r0, meta.a0), (meta.r1, meta.a1)] {
                        if bucket != usize::MAX {
                            expected.extend(std::iter::repeat_n(bucket, pairs as usize));
                        }
                    }
                    vacated.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(vacated, expected, "vacated buckets, {at}");
                }
                assert_eq!(total, expected_total, "removal total, m={m} ({context})");
            }
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn check(_: &ConflictTable, _: &str) -> bool {
            false
        }
        let mut rng = default_rng(0x9EC0_7E47);
        let mut orders = 0;
        for n in [33usize, 40, 64, 65, 80, 128] {
            let mut ran = false;
            for model in [CostModel::optimized(), CostModel::basic()] {
                let inputs = [
                    ("random", one_based(random_permutation(n, &mut rng))),
                    ("identity", (1..=n).collect()),
                    ("reversed", (1..=n).rev().collect()),
                ];
                for (name, p) in inputs {
                    let mut table = ConflictTable::new(&p, model);
                    ran |= check(&table, &format!("{name}, n={n}, {model:?}"));
                    for step in 0..3 {
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
            println!("row-context pre-pass: skipped, no AVX-512 F + DQ + BW + VBMI on this host");
        } else {
            println!("row-context pre-pass: {orders} of 6 orders");
        }
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
    /// permutations, and at the lane boundary (n = 16 and 17) on multiplier
    /// and Costas permutations too.  Each anchor's rotations go in one call
    /// (the last pass is partial unless the lane count divides 2(n − 1))
    /// and as every prefix of one to seventeen, so one full pass of sixteen
    /// or eight and one more, into an output with a sentinel past the end.
    /// Prints which orders ran in which lane layout, or why none did.
    #[test]
    fn rotation_body_matches_materialised_rotations_at_every_single_word_order() {
        #[cfg(target_arch = "x86_64")]
        fn check(table: &ConflictTable, context: &str) -> Option<&'static str> {
            if !table.batches_rotations() {
                return None;
            }
            let n = table.order();
            for m in 0..n {
                let rotations = anchored_rotations(n, m);
                let expected = materialised_costs(table, &rotations);
                for len in (1..=rotations.len().min(17)).chain([rotations.len()]) {
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
            Some(lane_layout(n))
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn check(_: &ConflictTable, _: &str) -> Option<&'static str> {
            None
        }
        let mut rng = default_rng(0x7074_A7E5);
        let mut ran = std::collections::BTreeMap::<_, Vec<usize>>::new();
        for n in 2..=32usize {
            for model in models() {
                for (name, p) in single_word_inputs(n, &mut rng) {
                    let mut table = ConflictTable::new(&p, model);
                    if let Some(layout) = check(&table, &format!("{name}, n={n}, {model:?}")) {
                        ran.entry(layout).or_default().push(n);
                    }
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
        }
        if ran.is_empty() {
            println!("rotation body: skipped, no AVX-512 F + DQ + BW + VBMI on this host");
        } else {
            println!("rotation body: {}", layouts_line(&ran));
        }
    }

    /// `CostModel::global_cost` of each circular addition of the table's
    /// permutation, materialised.
    fn materialised_additions(table: &ConflictTable, constants: &[usize]) -> Vec<u64> {
        let mut added = vec![0; table.order()];
        constants
            .iter()
            .map(|&c| {
                crate::cost::add_circular(table.values(), c, &mut added);
                table.model().global_cost(&added)
            })
            .collect()
    }

    /// `ConflictTable::addition_costs` against the from-scratch cost of each
    /// materialised circular addition, at every order 2..=40 (the vector
    /// body's two lane layouts, and the scalar body past n = 32), every cost
    /// model, on random, identity and reversed permutations: the
    /// dispatcher, the scalar body and, where the table batches, the vector
    /// body called directly.  Every constant `0..n` goes in one call, then
    /// the reset's four (1, 2, n − 2, n − 3), then prefixes around one full
    /// pass (empty, 1, 7, 8, 9, 15, 16 and 17 constants), into an output
    /// with a sentinel past the end.  Prints which orders ran on which
    /// tier.
    #[test]
    fn addition_costs_match_materialised_additions_at_every_order() {
        type Body = fn(&ConflictTable, &[usize], &mut [u64]);
        let mut rng = default_rng(0xADD_C057);
        let mut ran = std::collections::BTreeMap::<_, Vec<usize>>::new();
        for n in 2..=40usize {
            for model in models() {
                let inputs = [
                    ("random", one_based(random_permutation(n, &mut rng))),
                    ("identity", (1..=n).collect()),
                    ("reversed", (1..=n).rev().collect()),
                ];
                for (name, p) in inputs {
                    let table = ConflictTable::new(&p, model);
                    let mut bodies: Vec<(&str, Body)> = vec![
                        ("dispatcher", ConflictTable::addition_costs),
                        ("scalar", ConflictTable::addition_costs_scalar),
                    ];
                    ran.entry("scalar").or_default().push(n);
                    #[cfg(target_arch = "x86_64")]
                    if table.batches_rotations() {
                        // SAFETY: `batches_rotations` checked the CPU features
                        // and the order.
                        bodies.push(("AVX-512", |t, c, out| unsafe {
                            t.addition_body_avx512(c, out)
                        }));
                        ran.entry(lane_layout(n)).or_default().push(n);
                    }
                    let every: Vec<usize> = (0..n).rev().collect();
                    let reset: Vec<usize> = if n >= 4 {
                        vec![1, 2, n - 2, n - 3]
                    } else {
                        vec![1]
                    };
                    let mut sets = vec![every.clone(), reset];
                    for len in [0, 1, 7, 8, 9, 15, 16, 17] {
                        sets.push(every.iter().cycle().take(len).copied().collect());
                    }
                    for constants in &sets {
                        let expected = materialised_additions(&table, constants);
                        for (body, run) in &bodies {
                            let mut out = vec![u64::MAX; constants.len() + 1];
                            run(&table, constants, &mut out);
                            let context = format!("{body}, {name}, n={n}, {model:?}");
                            assert_eq!(
                                &out[..constants.len()],
                                &expected[..],
                                "{constants:?} ({context})"
                            );
                            assert_eq!(
                                out[constants.len()],
                                u64::MAX,
                                "wrote past the constants ({context})"
                            );
                        }
                    }
                }
            }
        }
        for orders in ran.values_mut() {
            orders.dedup();
        }
        let vector = ran.iter().filter(|(tier, _)| **tier != "scalar");
        let vector: Vec<_> = vector
            .map(|(t, o)| format!("{t} {} orders", o.len()))
            .collect();
        println!(
            "addition costs: scalar {} orders; AVX-512 {}",
            ran["scalar"].len(),
            if vector.is_empty() {
                "skipped, no F + DQ + BW + VBMI".to_string()
            } else {
                vector.join(", ")
            }
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

    /// The width assertion in `build_rows` fires when the one-word kernel
    /// is called on a wider table.
    #[test]
    #[should_panic(expected = "does not match the table's")]
    fn build_rows_rejects_a_width_mismatch() {
        let p = one_based(random_permutation(40, &mut default_rng(11)));
        let table = ConflictTable::scalar_tier(&p, CostModel::optimized());
        // n = 40 has two mask words per row; forcing the one-word kernel
        // must be rejected up front rather than silently mis-indexing.
        let mut out = vec![0u64; 40];
        table.probe_range_masked(0, 0, &mut out);
    }

    /// The culprit bound is enforced inside the kernel itself, not just by
    /// callers.
    #[test]
    #[should_panic(expected = "out of range for order")]
    fn build_rows_rejects_an_out_of_range_culprit() {
        let p = one_based(random_permutation(16, &mut default_rng(13)));
        let table = ConflictTable::scalar_tier(&p, CostModel::optimized());
        let mut out = vec![0u64; 16];
        table.probe_range_masked(16, 0, &mut out);
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
        counts: Vec<u16>,
        occ: Vec<u64>,
        multi: Vec<u64>,
        cost: u64,
        errors: Vec<u64>,
    }

    fn from_scratch(values: &[usize], model: CostModel) -> Scratch {
        let n = values.len();
        let (width, dmax) = ((2 * n - 1).max(1), model.max_distance(n));
        let words = width.div_ceil(64);
        // The table's layout: the rows, then one zero pad entry.
        let mut counts = vec![0u16; dmax * width + usize::from(dmax > 0)];
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

    /// The row-lane refresh, called directly, equals the scalar refresh in
    /// cost and errors at every order it serves, 2..=128, under both models,
    /// on random, identity and reversed permutations and along short walks
    /// of swaps and `reset_to`s.  Unlike the dispatcher's `debug_assert!`,
    /// this runs in every build profile.  Prints how many orders ran.
    #[test]
    fn row_lane_refresh_matches_the_scalar_refresh_at_every_order() {
        #[cfg(target_arch = "x86_64")]
        fn check(table: &ConflictTable, context: &str) -> bool {
            if !table.vector_probe() {
                return false;
            }
            let (mut vector, mut scalar) = (table.clone(), table.clone());
            for t in [&mut vector, &mut scalar] {
                t.errors.iter_mut().for_each(|e| *e = 0xdead);
                t.cost = 0xdead;
            }
            // SAFETY: `vector_probe` checked the CPU features and the order.
            unsafe { vector.refresh_avx512() };
            scalar.refresh_scalar();
            assert_eq!(vector.cost, scalar.cost, "cost ({context})");
            assert_eq!(vector.errors, scalar.errors, "errors ({context})");
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn check(_: &ConflictTable, _: &str) -> bool {
            false
        }
        let mut rng = default_rng(0x2EF2_E5B0);
        let mut orders = 0;
        // 128: the largest order the row-lane bodies serve.
        for n in 2..=128usize {
            let mut ran = false;
            for model in [CostModel::optimized(), CostModel::basic()] {
                let inputs = [
                    ("random", one_based(random_permutation(n, &mut rng))),
                    ("identity", (1..=n).collect()),
                    ("reversed", (1..=n).rev().collect()),
                ];
                for (name, p) in inputs {
                    let mut table = ConflictTable::new(&p, model);
                    ran |= check(&table, &format!("{name}, n={n}, {model:?}"));
                    if name != "random" {
                        continue;
                    }
                    for step in 0..4 {
                        if step == 3 {
                            table.reset_to(&one_based(random_permutation(n, &mut rng)));
                        } else {
                            let i = (rng.next_u64() as usize) % n;
                            let j = (rng.next_u64() as usize) % n;
                            table.apply_swap(i, j);
                        }
                        check(&table, &format!("walk step {step}, n={n}, {model:?}"));
                    }
                }
            }
            orders += usize::from(ran);
        }
        println!("row-lane refresh vs scalar: {orders} orders");
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
