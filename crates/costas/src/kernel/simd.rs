//! AVX-512 lane-parallel bodies, all for n ≤ 128 ([`ROW_LANES_MAX_ORDER`]):
//! the two probe bodies, the reset's rotation body, and the row-lane sweep
//! behind the reset evaluator's bounded from-scratch cost and the conflict
//! table's refresh pass.
//!
//! # Probe bodies
//!
//! The scalar probe bodies (`probe_body_sim`, `probe_body`) are serial in
//! the one dimension the workload has plenty of: candidates.  Both vector
//! bodies put the candidates in lanes; they differ in what a lane computes.
//!
//! * **From scratch, one-word rows (n ≤ 32), eight candidates per pass** —
//!   [`ConflictTable::probe_body_avx512_scratch`].  Lane `l` holds the whole
//!   configuration after swapping the culprit `m` with candidate `j_l`:
//!   column `p` is `v[p]`, except `v[m]` at `p = j_l` and `v[j_l]` at
//!   `p = m`.  Each row `d` is one loop over the left index `i` that ORs
//!   `rolv(1, col[i + d] − col[i])` into a per-lane `u64`; the differences
//!   lie in `(−32, 32)`, so distinct differences set distinct bits.  The
//!   row's repeats are its `n − d` pairs minus the popcount, and the lane's
//!   cost is `Σ ERR(d)·repeats` — the row-lane sweep's "pairs minus distinct
//!   buckets" identity (below), so the body is exact by construction: it
//!   reads no counts and no masks and needs no shared-bucket corrections.
//!   It costs O(n·d_max) per candidate against the event algebra's
//!   O(d_max), which pays while a row fits one word.  On a 2-vCPU AVX-512
//!   Xeon a probe call at n = 16 takes about 280 ns against 840 ns for the
//!   event algebra.  The lane-cost loop ([`ConflictTable::lane_costs`])
//!   takes the columns of any eight permutations and is shared with the
//!   rotation body below.
//! * **Event algebra, two to four words (33 ≤ n ≤ 128), 64 candidates per
//!   pass** — [`ConflictTable::probe_body_avx512_bytes`], the scalar
//!   replay's cell algebra with one candidate per *byte* lane.  Per row `d`
//!   the row's `u32` counts become a byte table of at most 256 entries
//!   (counts are at most `n − d ≤ 127`), the ≤ 2 culprit-vacated buckets are
//!   patched, and the table stays in `Q` registers: two while
//!   `2n − 1 ≤ 128` (n ≤ 64), four beyond.  The six bucket indices of a
//!   cell (`k1`, `k2` re-add the culprit's pairs, `n1`, `n2` the
//!   candidate's, `o1`, `o2` remove the candidate's) are `u8` arithmetic on
//!   byte copies of the values — every index is at most `2n − 2 ≤ 254` —
//!   and each baseline count is one `vpermi2b` lookup (two and a blend on
//!   the index's top bit with four registers).
//!
//!   The events replay exactly in the scalar order `k1, k2, n1, n2, o1, o2`.
//!   A `+1` event scores 1 iff its bucket is occupied when it lands: a
//!   baseline pair, or an earlier `+1` on the same bucket.  A `−1` event
//!   scores −1 iff its bucket holds two or more pairs when it lands; its own
//!   pair is a baseline pair, so that is a second baseline pair or an
//!   earlier `+1` there.  The earlier events on a bucket are the 11 index
//!   equalities that can occur, as 64-lane k-mask compares; the other four
//!   (`o1 = k1`, `o1 = n1`, `o2 = k2`, `o2 = n2`) would force `j = m` or
//!   `v_j = v_m`.  When both candidate pairs share a bucket (`o1 = o2`),
//!   `o1` has left it before `o2` lands, so `o2`'s count is adjusted down
//!   by one, and no `+1` can hit that bucket.  The culprit-neighbour lanes
//!   (`j = m ± d`) drop the candidate pair that *is* a culprit pair and
//!   re-add the culprit pair against `v_m`, a masked move of the `k1`/`k2`
//!   index.  So every lane is exact and no cell leaves the vector path.
//!
//!   A lane's row score (−2 to 4) is a byte; `vpmaddwd` against
//!   `ERR(d) < 2¹⁵` in the even or odd half of each `i32` lane adds
//!   `ERR(d)·score` into `i32` accumulators, four per block of 64
//!   candidates, held in registers across the rows (the table width and
//!   the block count, one or two, are constants of the monomorphized body).
//!   The culprit-removal total is added once per candidate at the end, and
//!   the culprit lane and the lanes past the order are left alone; blocks
//!   start at `lo_bound`.  A call costs one table build per row plus one
//!   pass per row and block: 19 passes at n = 40, 78 at n = 80.  The
//!   permute body it replaced read two bitmasks per row, eight candidates
//!   per pass, with a scalar merge for the `o1 = o2` cells.  Per call on a
//!   2-vCPU AVX-512 Xeon (walked tables under the optimised model, best of
//!   three alternating runs), permute → byte-lane: 2.4 → 0.52 µs at
//!   n = 33, 2.8 → 0.62 µs at n = 40, 6.9 → 0.98 µs at n = 64, 7.7 →
//!   2.3 µs at n = 65 (the first order with two lookups per bucket),
//!   10.7 → 3.0 µs at n = 80 and 26 → 4.8 µs at n = 128.
//!
//! # Rotation body: the reset's first family, eight per pass
//!
//! The Costas reset's first perturbation family rotates by one cell every
//! sub-array starting or ending at the most erroneous variable, ≈ 2n
//! candidates.  On one-word rows
//! [`ConflictTable::rotation_body_avx512`] scores eight of them per pass
//! without building any: lane `l` carries its rotation's bounds
//! `[lo, hi]`, direction and moved end value, and column `p` is `v[p]`,
//! `v[p + 1]` (left rotation, `lo ≤ p < hi`), `v[p − 1]` (right rotation,
//! `lo < p ≤ hi`) or the end value (`p = hi` left, `p = lo` right), chosen
//! per lane by k-mask compares of `p` against the bounds and three masked
//! moves of broadcast values.  The columns then go through the probe's
//! lane-cost loop, so each lane's cost is exact — no abort, no bound.  An
//! earlier prototype batched the candidates by copying and transposing
//! materialised permutations, and the copies ate the gain; generating the
//! columns from the bounds costs O(n) vector operations per pass, below the
//! O(n·d_max) of the scoring.  The conflict table keeps no counts and no
//! masks on this tier: the two from-scratch bodies and the refresh pass
//! read only the values.
//!
//! # Row-lane sweep: reset evaluator and refresh pass
//!
//! The Costas reset scores its other candidates — every one where the table
//! keeps counts, families 2 and 3 on the count-free tier — from scratch
//! with an abort bound ([`CostModel::global_cost_bounded`]).  The scalar
//! body sweeps one row of the difference triangle at a time through a
//! `2n − 1`-entry histogram.
//! This body instead gives each of the eight 64-bit lanes one row `d`: lane
//! `l` of group `d0` holds row `d0 + l` as a `W`-word occupancy bitset
//! (`W = ⌈(2n − 1) / 64⌉ ≤ 4`, so n ≤ 128).  For each left index `i` one
//! masked load fetches `values[i + d0 .. i + d0 + 8]` and one subtraction of
//! the broadcast `values[i]` turns it into the eight rows' differences `δ`.
//! A rotate (`vprolvq`) of 1 by `δ` gives bit `δ mod 64`, and word `w` takes
//! the lanes whose `δ` lies in its 64-wide window (signed compares against
//! the window ends; one word needs none).  A row's repeats are its pair
//! count minus its distinct buckets, so no per-pair hit test or counter is
//! needed: after the group, a SWAR popcount of the bitsets
//! ([`popcount_lanes`]) gives each row's distinct count, the eight rows'
//! repeats are weighted by `ERR(d)` and summed, and the sweep returns `None`
//! as soon as the partial cost exceeds the limit.  At one word per row the
//! inner step is three vector instructions (subtract with a broadcast
//! operand, rotate, masked OR) for eight pairs.  A shift by `δ + n − 1` per
//! word, the obvious alternative, compiled to about twice the instructions;
//! subtracting `values[i] − (n − 1)` to get bucket indices directly loses
//! the memory-operand broadcast and measured 5–17 % slower at n = 16–80 on a
//! 2-vCPU AVX-512 Xeon.
//!
//! The conflict table's refresh pass ([`ConflictTable::refresh_avx512`]) is
//! the same loop with `TRACK` on and no limit.  Per step it also tests each
//! lane's bit against the bitset before setting it (`vptestmq`): a hit is a
//! pair whose difference was already encountered in its row, so the pair is
//! charged `ERR(d)` at both endpoints.  The left endpoint `i` takes the sum
//! over the hit lanes; the right endpoints `i + d0 + l` accumulate in one
//! register whose lane `l` stands for position `i + d0 + l` and which
//! slides down one lane per step, so lane 0 is final when it leaves.  No
//! vector probe body reads the occupancy masks, so the pass exports none:
//! tables on this tier keep no masks.
//!
//! Dispatch is by runtime feature detection ([`probe_kernel_available`]),
//! one gate for every body here: AVX-512 F (shifts, rotates, compares, mask
//! ops, `vpmuldq`), DQ, BW (byte and word lanes) and VBMI (`vpermi2b`).
//! Machines without all four take the scalar bodies — same contract, same
//! pinning.

use std::arch::x86_64::*;

use super::NO_COUNTS;
use crate::cost::{ConflictTable, CostModel, Rotation};

/// Largest order the vector bodies serve — the reset evaluator
/// ([`CostModel::global_cost_bounded_avx512`]), the refresh pass
/// ([`ConflictTable::refresh_avx512`]) and the byte-lane probe body
/// ([`ConflictTable::probe_body_avx512_bytes`]): a row's `2n − 1` buckets
/// fit in at most four 64-bit words, or 256 byte lanes.
pub(crate) const ROW_LANES_MAX_ORDER: usize = 128;

/// Runtime gate for every vector body in this module: AVX-512 F + DQ + BW +
/// VBMI, detected once and cached.
pub(crate) fn probe_kernel_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
    })
}

/// Per-lane population count of the bitsets spread over `words` (lane `l`
/// of every vector belongs to the same bitset): SWAR byte counts summed over
/// the words (≤ 8 per word and byte), then across the bytes.  A lane's total
/// must stay below 256, so every partial sum of its byte counts fits one
/// byte; the callers' bitsets hold at most 127 set bits.
///
/// # Safety
///
/// Requires AVX-512 F at runtime; callers are `#[target_feature]`-gated.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn popcount_lanes(words: &[__m512i]) -> __m512i {
    let (m1, m2, m4) = (
        _mm512_set1_epi64(0x5555_5555_5555_5555),
        _mm512_set1_epi64(0x3333_3333_3333_3333),
        _mm512_set1_epi64(0x0f0f_0f0f_0f0f_0f0f),
    );
    let mut bytes = _mm512_setzero_si512();
    for &s in words {
        let x = _mm512_sub_epi64(s, _mm512_and_si512(_mm512_srli_epi64::<1>(s), m1));
        let x = _mm512_add_epi64(
            _mm512_and_si512(x, m2),
            _mm512_and_si512(_mm512_srli_epi64::<2>(x), m2),
        );
        let x = _mm512_and_si512(_mm512_add_epi64(x, _mm512_srli_epi64::<4>(x)), m4);
        bytes = _mm512_add_epi64(bytes, x);
    }
    let bytes = _mm512_add_epi64(bytes, _mm512_srli_epi64::<8>(bytes));
    let bytes = _mm512_add_epi64(bytes, _mm512_srli_epi64::<16>(bytes));
    let bytes = _mm512_add_epi64(bytes, _mm512_srli_epi64::<32>(bytes));
    _mm512_and_si512(bytes, _mm512_set1_epi64(0xff))
}

/// The lane of position `p` in the block of `lanes` candidates starting at
/// `block`, as a one-bit mask; zero when `p` lies outside the block.
#[inline]
fn lane_of(block: usize, lanes: usize, p: usize) -> __mmask8 {
    if (block..block + lanes).contains(&p) {
        1 << (p - block)
    } else {
        0
    }
}

impl ConflictTable {
    /// From-scratch AVX-512 probe body for one-word rows (n ≤ 32): write
    /// into `out[j]` the cost after swapping `m` with `j`, for
    /// `j in lo_bound..n`, `j != m`, eight candidates per pass; the other
    /// entries are left alone.  See the module docs.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`],
    /// the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than one word (n > 32), if the culprit
    /// is out of range, or if `out` is shorter than the order.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn probe_body_avx512_scratch(
        &self,
        m: usize,
        lo_bound: usize,
        out: &mut [u64],
    ) {
        let n = self.n;
        assert!(
            self.mask_words == 1,
            "the from-scratch probe body covers n ≤ 32, got n = {n}"
        );
        assert!(m < n, "culprit {m} out of range for order {n}");
        assert!(out.len() >= n, "probe output shorter than the order");
        let values = &self.values[..];
        let vm = _mm512_set1_epi64(values[m] as i64);
        let mut cols = [_mm512_setzero_si512(); 32];
        for block in (lo_bound..n).step_by(8) {
            let lanes = (n - block).min(8);
            // Lane l is the configuration with m and j = block + l swapped;
            // `usize` is 64-bit on this arch, and the tail lanes load 0.
            for (col, &v) in cols.iter_mut().zip(values) {
                *col = _mm512_set1_epi64(v as i64);
            }
            for l in 0..lanes {
                cols[block + l] = _mm512_mask_mov_epi64(cols[block + l], 1 << l, vm);
            }
            cols[m] = _mm512_maskz_loadu_epi64(low_lanes(lanes), values.as_ptr().add(block).cast());
            let cost = self.lane_costs(&cols[..n]);
            let store = low_lanes(lanes) & !lane_of(block, lanes, m);
            _mm512_mask_storeu_epi64(out.as_mut_ptr().add(block).cast(), store, cost);
        }
    }

    /// From-scratch AVX-512 body of [`ConflictTable::rotation_costs`] for
    /// one-word rows (n ≤ 32): `out[k]` is the exact cost after applying
    /// `rotations[k]`, eight rotations per pass.  Lane `l`'s column `p` is
    /// `v[p]`, `v[p + 1]` (left rotation, `lo ≤ p < hi`), `v[p − 1]` (right
    /// rotation, `lo < p ≤ hi`) or the moved end value (`v[lo]` at `p = hi`
    /// for a left rotation, `v[hi]` at `p = lo` for a right one), picked by
    /// k-mask compares against the lane's bounds, so no rotation is ever
    /// built; the columns then go through the probe's lane-cost loop.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`],
    /// the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than one word (n > 32) or `out` is
    /// shorter than `rotations`.  Each rotation must satisfy
    /// `lo ≤ hi < n` (checked by the caller).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn rotation_body_avx512(&self, rotations: &[Rotation], out: &mut [u64]) {
        let n = self.n;
        assert!(
            self.mask_words == 1,
            "the rotation body covers n ≤ 32, got n = {n}"
        );
        assert!(out.len() >= rotations.len(), "rotation output too short");
        let values = &self.values[..];
        let mut cols = [_mm512_setzero_si512(); 32];
        let out = &mut out[..rotations.len()];
        for (batch, out) in rotations.chunks(8).zip(out.chunks_mut(8)) {
            // Idle lanes get bounds past the array, so every compare misses
            // and they score the current permutation.
            let (mut lo, mut hi, mut end) = ([n as i64; 8], [n as i64; 8], [0i64; 8]);
            let mut left: __mmask8 = 0;
            for (l, r) in batch.iter().enumerate() {
                (lo[l], hi[l]) = (r.lo as i64, r.hi as i64);
                end[l] = values[if r.left { r.lo } else { r.hi }] as i64;
                left |= u8::from(r.left) << l;
            }
            let lo = _mm512_loadu_epi64(lo.as_ptr());
            let hi = _mm512_loadu_epi64(hi.as_ptr());
            let end = _mm512_loadu_epi64(end.as_ptr());
            for (p, col) in cols[..n].iter_mut().enumerate() {
                let at = _mm512_set1_epi64(p as i64);
                let (at_lo, at_hi) = (
                    _mm512_cmpeq_epi64_mask(lo, at),
                    _mm512_cmpeq_epi64_mask(hi, at),
                );
                let inside = _mm512_cmple_epi64_mask(lo, at) & _mm512_cmple_epi64_mask(at, hi);
                // `usize` is 64-bit on this arch.
                *col = _mm512_set1_epi64(values[p] as i64);
                if p + 1 < n {
                    let next = inside & left & !at_hi;
                    *col =
                        _mm512_mask_mov_epi64(*col, next, _mm512_set1_epi64(values[p + 1] as i64));
                }
                if p > 0 {
                    let prev = inside & !left & !at_lo;
                    *col =
                        _mm512_mask_mov_epi64(*col, prev, _mm512_set1_epi64(values[p - 1] as i64));
                }
                *col = _mm512_mask_mov_epi64(*col, (at_hi & left) | (at_lo & !left), end);
            }
            let mut costs = [0u64; 8];
            _mm512_storeu_epi64(costs.as_mut_ptr().cast(), self.lane_costs(&cols[..n]));
            out.copy_from_slice(&costs[..out.len()]);
        }
    }

    /// The lane-cost loop of both from-scratch bodies: lane `l` of
    /// `cols[p]` is column `p` of lane `l`'s permutation (n ≤ 32), and the
    /// result's lane `l` is that permutation's exact cost.  Each row `d` ORs
    /// `rolv(1, col[i + d] − col[i])` into a per-lane `u64` over the left
    /// index `i`; the differences lie in `(−32, 32)`, so distinct
    /// differences set distinct bits, and the row's repeats are its `n − d`
    /// pairs minus the popcount, weighted by `ERR(d)`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime; callers are
    /// `#[target_feature]`-gated.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn lane_costs(&self, cols: &[__m512i]) -> __m512i {
        let n = cols.len();
        let one = _mm512_set1_epi64(1);
        let mut cost = _mm512_setzero_si512();
        for d in 1..=self.dmax {
            let mut seen = _mm512_setzero_si512();
            for (left, right) in cols.iter().zip(&cols[d..]) {
                let bit = _mm512_rolv_epi64(one, _mm512_sub_epi64(*right, *left));
                seen = _mm512_or_si512(seen, bit);
            }
            let pairs = _mm512_set1_epi64((n - d) as i64);
            let repeats = _mm512_sub_epi64(pairs, popcount_lanes(&[seen]));
            // ERR(d) ≤ n² and repeats < n fit the 32×32→64 `vpmuldq`.
            let weight = _mm512_set1_epi64(self.weight(d) as i64);
            cost = _mm512_add_epi64(cost, _mm512_mul_epi32(weight, repeats));
        }
        cost
    }

    /// Byte-lane probe body for rows of two to four mask words
    /// (33 ≤ n ≤ [`ROW_LANES_MAX_ORDER`]): write into `out[j]` the cost
    /// after swapping `m` with `j`, for `j in lo_bound..n`, `j != m`, 64
    /// candidates per pass, one per byte lane; the other entries are left
    /// alone.  See the module docs.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ, BW and VBMI at runtime (see
    /// [`probe_kernel_available`]).
    ///
    /// # Panics
    ///
    /// Panics if the rows hold one word or more than four (n ≤ 32 or
    /// n > 128), if the table keeps no counts, if the culprit is out of
    /// range, or if `out` is shorter than the order.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vbmi")]
    pub(crate) unsafe fn probe_body_avx512_bytes(
        &self,
        m: usize,
        lo_bound: usize,
        out: &mut [u64],
    ) {
        let n = self.n;
        assert!(
            (2..=4).contains(&self.mask_words),
            "the byte-lane probe body covers 33 ≤ n ≤ {ROW_LANES_MAX_ORDER}, got n = {n}"
        );
        assert!(self.keeps_counts(), "{NO_COUNTS}");
        assert!(m < n, "culprit {m} out of range for order {n}");
        assert!(out.len() >= n, "probe output shorter than the order");
        // n ≤ 128 makes one or two blocks of 64 candidates.
        match (self.mask_words, (n - lo_bound.min(n)).div_ceil(64)) {
            (_, 0) => {}
            (2, 1) => self.probe_bytes::<2, 1>(m, lo_bound, out),
            (2, _) => self.probe_bytes::<2, 2>(m, lo_bound, out),
            (_, 1) => self.probe_bytes::<4, 1>(m, lo_bound, out),
            _ => self.probe_bytes::<4, 2>(m, lo_bound, out),
        }
    }

    /// [`Self::probe_body_avx512_bytes`] with each row's byte table held in
    /// `Q` registers of 64 buckets — two while `2n − 1 ≤ 128` (n ≤ 64), four
    /// beyond — over `B` blocks of 64 candidates, the first at `lo_bound`.
    /// Both are constants so the block loop unrolls and its accumulators
    /// stay in registers.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ, BW and VBMI at runtime; the caller checks
    /// the order, the counts, the culprit and `out`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vbmi")]
    unsafe fn probe_bytes<const Q: usize, const B: usize>(
        &self,
        m: usize,
        lo_bound: usize,
        out: &mut [u64],
    ) {
        // Lane `l` of block `b` is candidate `lo_bound + 64b + l`.
        const PAD: usize = ROW_LANES_MAX_ORDER;
        let n = self.n;
        // The values as bytes (≤ n ≤ 128) at `PAD + p`, zero-padded so the
        // 64-byte neighbour loads at `block ± d` stay inside the buffer for
        // every block < n and d < n.
        let mut bytes = [0u8; 3 * PAD + 64];
        for (b, &v) in bytes[PAD..PAD + n].iter_mut().zip(&self.values) {
            *b = v as u8;
        }
        // Bucket arithmetic wraps in `u8`; every true bucket index is at most
        // 2n − 2 ≤ 254, so the wrapped result is exact.
        let off = (n - 1) as u8;
        let vm = self.values[m] as u8;
        let (vm_off, off_vm) = (splat(vm.wrapping_add(off)), splat(off.wrapping_sub(vm)));
        let (one, offv) = (splat(1), splat(off));
        // Per block, hoisted out of the row loop: the candidates' values.
        let mut vjs = [_mm512_setzero_si512(); B];
        for (b, vj) in vjs.iter_mut().enumerate() {
            *vj = _mm512_loadu_si512(bytes.as_ptr().add(PAD + lo_bound + 64 * b).cast());
        }
        // Counts come in as `u32` chunks of sixteen, four per table register;
        // a chunk's mask keeps its loads inside the row.
        let width = self.width;
        let mut chunk_live = [[0u16; 4]; Q];
        for (c, live) in chunk_live.iter_mut().flatten().enumerate() {
            let left = width.saturating_sub(16 * c);
            *live = if left >= 16 { !0 } else { (1u16 << left) - 1 };
        }
        // Byte k of a packed register is the low byte of count k mod 32 of a
        // pair of chunks; the high half comes from the second pair.
        let mut pick = [0u8; 64];
        for (k, p) in pick.iter_mut().enumerate() {
            *p = 4 * (k as u8 & 31);
        }
        let pick = _mm512_loadu_si512(pick.as_ptr().cast());
        const HIGH_HALF: __mmask64 = 0xffff_ffff_0000_0000;
        let mut accs = [[_mm512_setzero_si512(); 4]; B];
        let mut removal_total = 0i64;
        for d in 1..=self.dmax {
            let (meta, removal) = self.build_row_meta(m, d);
            removal_total += removal;
            // The row's baseline counts as a byte table (counts ≤ n − d ≤ 127),
            // with the culprit-vacated buckets patched.
            let row = self.counts.as_ptr().add(meta.base);
            let mut table = [_mm512_setzero_si512(); Q];
            for (q, (t, live)) in table.iter_mut().zip(&chunk_live).enumerate() {
                // Chunks past the row's end load nothing, so their address
                // is formed with wrapping arithmetic.
                let chunk = |c: usize| row.wrapping_add(64 * q + 16 * c).cast::<i32>();
                let lo = _mm512_permutex2var_epi8(
                    _mm512_maskz_loadu_epi32(live[0], chunk(0)),
                    pick,
                    _mm512_maskz_loadu_epi32(live[1], chunk(1)),
                );
                let hi = _mm512_permutex2var_epi8(
                    _mm512_maskz_loadu_epi32(live[2], chunk(2)),
                    pick,
                    _mm512_maskz_loadu_epi32(live[3], chunk(3)),
                );
                *t = _mm512_mask_blend_epi8(HIGH_HALF, lo, hi);
                for (r, a) in [(meta.r0, meta.a0), (meta.r1, meta.a1)] {
                    if r != usize::MAX && r >> 6 == q {
                        *t = _mm512_mask_sub_epi8(*t, 1 << (r & 63), *t, splat(a as u8));
                    }
                }
            }
            // Row constants: k1 = v_j + c1, k2 = c2 − v_j, and the gates of
            // the culprit's two pairs.
            let c1 = splat(off.wrapping_sub(meta.left_other as u8));
            let c2 = splat(off.wrapping_add(meta.right_other as u8));
            let g1: __mmask64 = if meta.has_left { !0 } else { 0 };
            let g2: __mmask64 = if meta.has_right { !0 } else { 0 };
            // ERR(d) < 2¹⁵ as an `i16` in the even (odd) half of each `i32`
            // lane: `vpmaddwd` then weights the even (odd) candidates.
            let w = meta.w as i32;
            let (w_even, w_odd) = (_mm512_set1_epi32(w), _mm512_set1_epi32(w << 16));
            for (b, (acc, &vj)) in accs.iter_mut().zip(&vjs).enumerate() {
                let at = lo_bound + 64 * b;
                let vl = _mm512_loadu_si512(bytes.as_ptr().add(PAD + at - d).cast());
                let vr = _mm512_loadu_si512(bytes.as_ptr().add(PAD + at + d).cast());
                // Lanes whose left (right) candidate pair exists, less the
                // culprit neighbours whose pair on that side is a culprit pair.
                let lane_md = if m >= d { lane_of64(at, m - d) } else { 0 };
                let lane_pd = lane_of64(at, m + d);
                let jl = !low_lanes64(d.saturating_sub(at)) & !lane_pd;
                let jr = low_lanes64(n.saturating_sub(at + d)) & !lane_md;
                // The six bucket indices in replay order; a culprit
                // neighbour re-adds its culprit pair against `v_m`.
                let k1 = _mm512_mask_mov_epi8(
                    _mm512_add_epi8(vj, c1),
                    lane_md,
                    _mm512_add_epi8(vj, off_vm),
                );
                let k2 = _mm512_mask_mov_epi8(
                    _mm512_sub_epi8(c2, vj),
                    lane_pd,
                    _mm512_sub_epi8(vm_off, vj),
                );
                let n1 = _mm512_sub_epi8(vm_off, vl);
                let n2 = _mm512_add_epi8(vr, off_vm);
                let o1 = _mm512_sub_epi8(_mm512_add_epi8(vj, offv), vl);
                let o2 = _mm512_sub_epi8(_mm512_add_epi8(vr, offv), vj);
                let (b1, b2, b3) = (lookup(&table, k1), lookup(&table, k2), lookup(&table, n1));
                let (b4, b5, b6) = (lookup(&table, n2), lookup(&table, o1), lookup(&table, o2));
                // A +1 event scores 1 iff its bucket is occupied when it
                // lands: a baseline pair, or an earlier +1 on that bucket.
                let s1 = _mm512_mask_test_epi8_mask(g1, b1, b1);
                let s2 = _mm512_mask_test_epi8_mask(g2, b2, b2)
                    | _mm512_mask_cmpeq_epi8_mask(g1 & g2, k2, k1);
                let s3 = _mm512_mask_test_epi8_mask(jl, b3, b3)
                    | _mm512_mask_cmpeq_epi8_mask(jl & g1, n1, k1)
                    | _mm512_mask_cmpeq_epi8_mask(jl & g2, n1, k2);
                let s4 = _mm512_mask_test_epi8_mask(jr, b4, b4)
                    | _mm512_mask_cmpeq_epi8_mask(jr & g1, n2, k1)
                    | _mm512_mask_cmpeq_epi8_mask(jr & g2, n2, k2)
                    | _mm512_mask_cmpeq_epi8_mask(jr & jl, n2, n1);
                // A −1 event scores −1 iff its bucket holds two or more pairs
                // when it lands.  Its own pair is a baseline pair, so that is
                // a second baseline pair or an earlier +1 on the bucket
                // (o1 = k1, o1 = n1, o2 = k2 and o2 = n2 would force j = m
                // or v_j = v_m).  When both candidate pairs share a bucket
                // (o1 = o2), o1 has left it before o2 lands, and no +1 can
                // hit that bucket.
                let t5 = _mm512_mask_cmpgt_epu8_mask(jl, b5, one)
                    | _mm512_mask_cmpeq_epi8_mask(jl & g2, o1, k2)
                    | _mm512_mask_cmpeq_epi8_mask(jl & jr, o1, n2);
                let dd = _mm512_mask_cmpeq_epi8_mask(jl & jr, o2, o1);
                let b6 = _mm512_mask_sub_epi8(b6, dd, b6, one);
                let t6 = _mm512_mask_cmpgt_epu8_mask(jr, b6, one)
                    | _mm512_mask_cmpeq_epi8_mask(jr & g1, o2, k1)
                    | _mm512_mask_cmpeq_epi8_mask(jr & jl, o2, n1);
                let mut score = _mm512_maskz_mov_epi8(s1, one);
                score = _mm512_mask_add_epi8(score, s2, score, one);
                score = _mm512_mask_add_epi8(score, s3, score, one);
                score = _mm512_mask_add_epi8(score, s4, score, one);
                score = _mm512_mask_sub_epi8(score, t5, score, one);
                score = _mm512_mask_sub_epi8(score, t6, score, one);
                // ERR(d) · score in `i32` lanes: lane k of acc[2h] (acc[2h + 1])
                // is candidate 32h + 2k (32h + 2k + 1) of the block.
                let halves = [
                    _mm512_cvtepi8_epi16(_mm512_castsi512_si256(score)),
                    _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64::<1>(score)),
                ];
                for (h, half) in halves.into_iter().enumerate() {
                    acc[2 * h] = _mm512_add_epi32(acc[2 * h], _mm512_madd_epi16(half, w_even));
                    acc[2 * h + 1] =
                        _mm512_add_epi32(acc[2 * h + 1], _mm512_madd_epi16(half, w_odd));
                }
            }
        }
        // Back into candidate order, plus the culprit-removal total, onto
        // `out`, leaving the culprit and the lanes past the order alone.
        let first = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let second =
            _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
        let removal = _mm512_set1_epi64(removal_total);
        for (b, acc) in accs.iter().enumerate() {
            let at = lo_bound + 64 * b;
            let live = low_lanes64(n - at) & !lane_of64(at, m);
            for h in 0..2 {
                let (even, odd) = (acc[2 * h], acc[2 * h + 1]);
                let sixteens = [
                    _mm512_permutex2var_epi32(even, first, odd),
                    _mm512_permutex2var_epi32(even, second, odd),
                ];
                for (g, v) in sixteens.into_iter().enumerate() {
                    let eights = [_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v)];
                    for (e, eight) in eights.into_iter().enumerate() {
                        let lane = 32 * h + 16 * g + 8 * e;
                        let k = (live >> lane) as u8;
                        if k == 0 {
                            continue;
                        }
                        let delta = _mm512_add_epi64(_mm512_cvtepi32_epi64(eight), removal);
                        let ptr = out.as_mut_ptr().add(at + lane).cast::<i64>();
                        let cur = _mm512_maskz_loadu_epi64(k, ptr);
                        _mm512_mask_storeu_epi64(ptr, k, _mm512_add_epi64(cur, delta));
                    }
                }
            }
        }
    }
}

/// Byte lookup of the bucket indices `idx` in a table of `Q` registers of 64
/// bytes: one two-register permute (`vpermi2b`) for two, two and a blend on
/// each index's top bit for four.
///
/// # Safety
///
/// Requires AVX-512 F, BW and VBMI at runtime; callers are
/// `#[target_feature]`-gated.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn lookup<const Q: usize>(table: &[__m512i; Q], idx: __m512i) -> __m512i {
    let low = _mm512_permutex2var_epi8(table[0], idx, table[1]);
    if Q == 2 {
        return low;
    }
    let high = _mm512_permutex2var_epi8(table[2], idx, table[3]);
    _mm512_mask_mov_epi8(low, _mm512_movepi8_mask(idx), high)
}

/// `x` in every byte lane.
///
/// # Safety
///
/// Requires AVX-512 F at runtime; callers are `#[target_feature]`-gated.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn splat(x: u8) -> __m512i {
    _mm512_set1_epi8(x as i8)
}

/// Mask of the lowest `k` of 64 byte lanes (all of them for `k ≥ 64`).
#[inline]
fn low_lanes64(k: usize) -> __mmask64 {
    if k >= 64 {
        !0
    } else {
        (1 << k) - 1
    }
}

/// The byte lane of position `p` in the block of 64 starting at `block`, as
/// a one-bit mask; zero when `p` lies outside the block.
#[inline]
fn lane_of64(block: usize, p: usize) -> __mmask64 {
    if (block..block + 64).contains(&p) {
        1 << (p - block)
    } else {
        0
    }
}

/// Mask of the lowest `k` lanes (all eight for `k ≥ 8`).
#[inline]
fn low_lanes(k: usize) -> __mmask8 {
    if k >= 8 {
        0xff
    } else {
        (1u8 << k) - 1
    }
}

/// One group of up to eight rows of the row-lane sweep, lane `l` holding
/// row `d0 + l`: its bitsets of occupied buckets (`seen`), plus the tracked
/// charges still owed to right endpoints (`right`) and the rows' weights
/// `ERR(d0 + l)` (`weights`).
struct RowGroup<const W: usize> {
    seen: [__m512i; W],
    right: __m512i,
    weights: __m512i,
}

impl<const W: usize> RowGroup<W> {
    /// OR the buckets of the pairs `(i, i + d0 + l)` into lane `l`'s bitset,
    /// for the `live` lanes, where `base` points at `values`.  A difference
    /// `δ` lands in the first word whose end exceeds it, at bit `δ mod 64`
    /// (`vprolvq` rotates by the count's low six bits, negative counts
    /// included); the words span 64 consecutive differences each, so
    /// distinct differences get distinct bits.  With `TRACK`, a lane whose
    /// bit was already set is a charged pair: `ERR(d)` is added to `errors`
    /// at both endpoints.  The
    /// left endpoint `i` takes the sum over the charged lanes; lane `l` of
    /// `right` gathers the charges of position `i + d0 + l` and slides down
    /// one lane per step, so lane 0 is final when it leaves.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime.  `base + i` and
    /// `base + i + d0 + l` must point into `values` for every live lane `l`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn mark<const TRACK: bool>(
        &mut self,
        base: *const i64,
        i: usize,
        d0: usize,
        live: __mmask8,
        word_ends: &[__m512i; W],
        errors: &mut [u64],
    ) {
        let left = base.add(i);
        let right = _mm512_maskz_loadu_epi64(live, left.add(d0));
        let diff = _mm512_sub_epi64(right, _mm512_set1_epi64(*left));
        let bit = _mm512_rolv_epi64(_mm512_set1_epi64(1), diff);
        let mut rest = live;
        let mut hit = 0;
        for (w, s) in self.seen.iter_mut().enumerate() {
            let k = if w + 1 == W {
                rest
            } else {
                _mm512_mask_cmplt_epi64_mask(rest, diff, word_ends[w])
            };
            if TRACK {
                hit |= _mm512_mask_test_epi64_mask(k, *s, bit);
            }
            *s = _mm512_mask_or_epi64(*s, k, *s, bit);
            rest &= !k;
        }
        if TRACK {
            let charge = _mm512_maskz_mov_epi64(hit, self.weights);
            self.right = _mm512_add_epi64(self.right, charge);
            errors[i] += _mm512_reduce_add_epi64(charge) as u64;
            errors[i + d0] += _mm_cvtsi128_si64(_mm512_castsi512_si128(self.right)) as u64;
            self.right = _mm512_alignr_epi64::<1>(_mm512_setzero_si512(), self.right);
        }
    }
}

impl CostModel {
    /// Row-lane AVX-512 body of [`CostModel::global_cost_bounded`], same
    /// contract: `Some(cost)` iff the from-scratch cost is `≤ limit`.  See the
    /// module docs for the lane layout.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`],
    /// the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds [`ROW_LANES_MAX_ORDER`].
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn global_cost_bounded_avx512(
        &self,
        values: &[usize],
        limit: u64,
    ) -> Option<u64> {
        let n = values.len();
        if n < 2 {
            return Some(0);
        }
        match (2 * n - 1).div_ceil(64) {
            1 => self.row_lanes::<1, false>(values, limit, &mut []),
            2 => self.row_lanes::<2, false>(values, limit, &mut []),
            3 => self.row_lanes::<3, false>(values, limit, &mut []),
            4 => self.row_lanes::<4, false>(values, limit, &mut []),
            _ => panic!("the row-lane evaluator covers n ≤ {ROW_LANES_MAX_ORDER}, got n = {n}"),
        }
    }

    /// The row-lane sweep at `W = ⌈(2n − 1) / 64⌉` occupancy words per lane,
    /// for `2 ≤ n ≤ 128`: `Some(cost)` iff the cost is `≤ limit`, checked
    /// after every group of eight rows.  With `TRACK`, `errors` (the table's
    /// per-position errors, zeroed by the caller) receives every charged
    /// pair's `ERR(d)` at both endpoints; the reset evaluator leaves it off
    /// and passes an empty slice.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn row_lanes<const W: usize, const TRACK: bool>(
        &self,
        values: &[usize],
        limit: u64,
        errors: &mut [u64],
    ) -> Option<u64> {
        let n = values.len();
        let dmax = self.max_distance(n);
        // `usize` is 64-bit on this arch; masked-out lanes are not read.
        let base = values.as_ptr().cast::<i64>();
        // Word w of a lane holds the differences in
        // [64w − (n − 1), 64(w + 1) − (n − 1)), the histogram's buckets
        // [64w, 64(w + 1)), with difference δ at bit δ mod 64.
        let mut word_ends = [_mm512_setzero_si512(); W];
        for (w, end) in word_ends.iter_mut().enumerate() {
            *end = _mm512_set1_epi64(64 * (w as i64 + 1) - (n as i64 - 1));
        }
        let mut cost = 0u64;
        for d0 in (1..=dmax).step_by(8) {
            let rows = (dmax + 1 - d0).min(8);
            let live = low_lanes(rows);
            let mut group = RowGroup {
                seen: [_mm512_setzero_si512(); W],
                right: _mm512_setzero_si512(),
                weights: _mm512_setzero_si512(),
            };
            if TRACK {
                let mut weights = [0u64; 8];
                for (l, w) in weights.iter_mut().enumerate().take(rows) {
                    *w = self.weight_at(n, d0 + l);
                }
                group.weights = _mm512_loadu_epi64(weights.as_ptr().cast());
            }
            // Lane l scores row d0 + l, whose pairs (i, i + d0 + l) exist
            // for i < n − d0 − l: every live row has a pair at i below
            // `full`, and the tail loses one lane per step.
            let full = (n - d0).saturating_sub(7);
            // SAFETY: lane l is live only while i + d0 + l < n, so every
            // pointer handed over stays inside `values`.
            for i in 0..full {
                group.mark::<TRACK>(base, i, d0, live, &word_ends, errors);
            }
            for i in full..n - d0 {
                let lanes = live & low_lanes(n - d0 - i);
                group.mark::<TRACK>(base, i, d0, lanes, &word_ends, errors);
            }
            // Distinct buckets per lane; a row has at most n − 1 ≤ 127.
            let mut distinct = [0u64; 8];
            _mm512_storeu_epi64(distinct.as_mut_ptr().cast(), popcount_lanes(&group.seen));
            // Row d has n − d pairs; each beyond its bucket's first repeats.
            for (l, &k) in distinct.iter().enumerate().take(rows) {
                let d = d0 + l;
                cost += ((n - d) as u64 - k) * self.weight_at(n, d);
            }
            if cost > limit {
                return None;
            }
        }
        Some(cost)
    }
}

impl ConflictTable {
    /// Row-lane AVX-512 tier of the table's refresh pass: the reset
    /// evaluator's sweep over the current values, tracking charged pairs,
    /// recomputes the cost and the errors.  Tables on this tier keep no
    /// masks.  Same cost and errors as `refresh_scalar`, which the
    /// dispatcher pins it to.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`],
    /// the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds [`ROW_LANES_MAX_ORDER`].
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn refresh_avx512(&mut self) {
        self.errors.iter_mut().for_each(|e| *e = 0);
        let model = *self.model();
        let (values, limit) = (&self.values[..], u64::MAX);
        let out = &mut self.errors[..];
        let swept = match self.mask_words {
            _ if self.n < 2 => Some(0),
            1 => model.row_lanes::<1, true>(values, limit, out),
            2 => model.row_lanes::<2, true>(values, limit, out),
            3 => model.row_lanes::<3, true>(values, limit, out),
            4 => model.row_lanes::<4, true>(values, limit, out),
            _ => panic!(
                "the row-lane refresh covers n ≤ {ROW_LANES_MAX_ORDER}, got n = {}",
                self.n
            ),
        };
        self.cost = swept.expect("no cost exceeds u64::MAX");
    }
}
