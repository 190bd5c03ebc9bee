//! AVX-512 lane-parallel bodies, all for n ≤ 128 ([`ROW_LANES_MAX_ORDER`]):
//! the two probe bodies, the reset's rotation body, and the row-lane sweep
//! behind the reset evaluator's bounded from-scratch cost and the conflict
//! table's refresh pass.
//!
//! # Probe bodies
//!
//! The scalar probe bodies (`probe_body_sim`, `probe_body`) are serial in
//! the one dimension the workload has plenty of: candidates.  Both vector
//! bodies score **eight candidates per pass**, one per 64-bit lane; they
//! differ in what a lane computes.
//!
//! * **From scratch, one-word rows (n ≤ 32)** —
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
//!   event algebra, while a two-word variant (a second bitset per lane,
//!   chosen by a compare) timed level with the permute body at
//!   n = 33–64, within run-to-run noise; two-word rows therefore stay with
//!   the permute body, which the wider rows need anyway.  The lane-cost
//!   loop ([`ConflictTable::lane_costs`]) takes the columns of any eight
//!   permutations and is shared with the rotation body below.
//! * **Event algebra, two to four words (33 ≤ n ≤ 128)** —
//!   [`ConflictTable::probe_body_avx512_wide`] over the patched slice-held
//!   rows ([`DynRows`]), the scalar replay's cell algebra with the candidate
//!   axis in lanes.  All six bucket bits of a cell are read from the row
//!   copies: one masked load puts a row's `W` words in the low lanes of one
//!   register, and each test is a word select `idx >> 6` through a lane
//!   permute (`vpermq`), a shift by `idx & 63` and an AND against 1.  The
//!   kernel suite pins the word select at every width edge (n = 33, 64, 65,
//!   80, 96, 97, 128); an off-by-one there fails it.
//!
//!   Shared-bucket corrections are evaluated *branchlessly in every lane*
//!   from ten 8-way index compares (`__mmask8` k-registers): a `+1` event
//!   with an earlier `+1` on its bucket truly scores 1, not its baseline occ
//!   bit (correct by `1 − occ`); a `−1` event with `a` earlier `+1`s truly
//!   scores `−[count + a ≥ 2]` (correct by `occ − multi`, then `1 − occ`).
//!   Equalities that would force `v_j = v_m` or `j = m` are impossible
//!   (permutation values are distinct) and not tested — the same derivation
//!   the scalar replay's telescoping argument rests on, checked bit for bit
//!   against the histogram reference by the same suites.
//!
//!   Memory traffic is hoisted out of the row loop entirely: the whole
//!   candidate axis is at most sixteen 8-lane accumulators, held across all
//!   rows and added onto `out` once at the end (the hoisted culprit-removal
//!   total rides in the accumulators' initial value).  The culprit-neighbour
//!   cells (`j = m ± d`) are folded into the lanes by a partner-value
//!   override; only both candidate pairs vacating one shared bucket
//!   (`o1 = o2`, detected as a k-register compare) leaves the vector path,
//!   via a lane mask on the accumulation, for the exact per-bucket merge,
//!   added straight onto `out`.
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
//! O(n·d_max) of the scoring.  The conflict table keeps no counts on this
//! tier: the two from-scratch bodies and the refresh pass read only the
//! values.
//!
//! # Row-lane sweep: reset evaluator and refresh pass
//!
//! The Costas reset scores its other candidates — every one where the table
//! keeps counts, families 2 and 3 on the count-free tier — from scratch
//! with an abort bound ([`CostModel::global_cost_bounded`]).  The scalar
//! body sweeps one row of
//! the difference triangle at a time through a `2n − 1`-entry histogram.
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
//! pair whose difference was already encountered in its row, so its bit
//! goes into a second bitset (`multi`, buckets holding two or more pairs)
//! and the pair is charged `ERR(d)` at both endpoints.  The left endpoint
//! `i` takes the sum over the hit lanes; the right endpoints
//! `i + d0 + l` accumulate in one register whose lane `l` stands for
//! position `i + d0 + l` and which slides down one lane per step, so lane 0
//! is final when it leaves.  After each group the bitsets are copied into
//! the table's row-major masks, each word rotated left by `(n − 1) mod 64`:
//! word `w`'s window holds exactly the histogram buckets `[64w, 64(w + 1))`
//! of `b = δ + n − 1`, with `δ` at bit `δ mod 64`, and the probe reads
//! bucket `b` at bit `b mod 64`.  The cost needs only distinctness, so the
//! reset evaluator skips the rotation.
//!
//! Dispatch is by runtime feature detection ([`probe_kernel_available`]):
//! AVX-512 F (shifts, rotates, compares, mask ops, `vpmuldq`) and DQ.
//! Machines without it take the scalar bodies — same contract, same
//! pinning.

use std::arch::x86_64::*;

use super::{row_merge, DynRows};
use crate::cost::{ConflictTable, CostModel, Rotation};
use crate::merge::BucketMerge;

/// Largest order the row-word vector bodies serve — the reset evaluator
/// ([`CostModel::global_cost_bounded_avx512`]), the refresh pass
/// ([`ConflictTable::refresh_avx512`]) and the permute probe body
/// ([`ConflictTable::probe_body_avx512_wide`]): a row's `2n − 1` buckets fit
/// in at most four 64-bit words.
pub(crate) const ROW_LANES_MAX_ORDER: usize = 128;

/// Runtime gate for the vector bodies in this module: AVX-512 F + DQ,
/// detected once and cached.
pub(crate) fn probe_kernel_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    })
}

/// Per-lane bit test of a (≤ 8)-word mask held in the low lanes of `words`:
/// a permute picks word `idx >> 6` for each lane, then a shift by
/// `idx mod 64` brings the bit down.
///
/// # Safety
///
/// Requires AVX-512 F at runtime; callers are `#[target_feature]`-gated.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn word_bit(words: __m512i, idx: __m512i) -> __m512i {
    let word = _mm512_permutexvar_epi64(_mm512_srli_epi64::<6>(idx), words);
    let s = _mm512_and_epi64(idx, _mm512_set1_epi64(63));
    _mm512_and_epi64(_mm512_srlv_epi64(word, s), _mm512_set1_epi64(1))
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
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`]).
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
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`]).
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

    /// Eight-lane AVX-512 event-algebra probe body over slice-held rows of
    /// two to four mask words (33 ≤ n ≤ [`ROW_LANES_MAX_ORDER`]) — drop-in
    /// replacement for `probe_body` (same contract: add each candidate's
    /// delta onto the prefilled `out`, skipping `m`).  Bucket bits come from
    /// word permutes; see the module docs.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`]).
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than four words.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn probe_body_avx512_wide(
        &self,
        rows: &DynRows<'_>,
        m: usize,
        lo_bound: usize,
        removal_total: i64,
        out: &mut [u64],
    ) {
        assert!(
            rows.words <= 4,
            "the permute probe body covers n ≤ {ROW_LANES_MAX_ORDER}, got {} words per row",
            rows.words
        );
        let n = self.n;
        let vm = self.values[m] as i64;
        let values = &self.values[..];
        let counts = &self.counts[..];
        let off = n as i64 - 1;
        let mut touched = BucketMerge::<6>::new();
        // One 8-lane accumulator per candidate block, alive across the whole
        // row loop; four words per row cap n at 128, so sixteen blocks cover
        // the candidate axis.  The culprit-removal half of every delta —
        // identical for every candidate — is their initial value.
        let nblocks = (n - lo_bound).div_ceil(8);
        let mut accs = [_mm512_set1_epi64(removal_total); 16];
        let one = _mm512_set1_epi64(1);
        let off_v = _mm512_set1_epi64(off);
        let vm_off = _mm512_set1_epi64(vm + off);
        let off_vm = _mm512_set1_epi64(off - vm);
        let live = low_lanes(rows.words);
        for (di, meta) in rows.metas.iter().enumerate() {
            let d = di + 1;
            // The row's patched words in the low lanes of one register each.
            // SAFETY (of the loads): each masked load reads the first
            // `words ≤ 4` elements of a slice just bounds-checked to hold them.
            let span = di * rows.words..(di + 1) * rows.words;
            let occ = _mm512_maskz_loadu_epi64(live, rows.occ[span.clone()].as_ptr().cast());
            let multi = _mm512_maskz_loadu_epi64(live, rows.multi[span].as_ptr().cast());
            // Row weights are ≤ n² < 2³¹ and lane scores are in −6..=6, so
            // the 32×32→64 `vpmuldq` below is exact.
            let w_v = _mm512_set1_epi64(meta.w);
            let kg1: __mmask8 = if meta.has_left { 0xff } else { 0 };
            let kg2: __mmask8 = if meta.has_right { 0xff } else { 0 };
            let k1c = _mm512_set1_epi64(off - meta.left_other);
            let k2c = _mm512_set1_epi64(off + meta.right_other);
            let m_md = m.wrapping_sub(d);
            let m_pd = m + d;
            for (b, acc) in accs[..nblocks].iter_mut().enumerate() {
                let block = lo_bound + 8 * b;
                let lanes = (n - block).min(8);
                let tail = low_lanes(lanes);
                // Candidate positions are consecutive within a block, so the
                // neighbour-presence gates are prefix/suffix lane masks,
                // computed scalar.
                let jl: __mmask8 = if d <= block {
                    0xff
                } else {
                    (0xffu32 << (d - block).min(8)) as u8
                };
                let jr = low_lanes((n - d).saturating_sub(block));
                // Candidate and neighbour values: the candidates are
                // contiguous and the neighbours sit at fixed offsets ±d, so
                // all three are masked loads (`usize` is 64-bit on this
                // arch).  A neighbour lane whose position falls off the array
                // keeps the candidate's own value — its events are gated by
                // `jl`/`jr` — and tail lanes come back 0, which every
                // consumer tolerates.  Masked-off lanes are never read, so
                // the neighbour base address, which can lie outside
                // `values` at an array edge, is formed with wrapping
                // arithmetic; every lane that is read is in bounds.
                let base = values.as_ptr().cast::<i64>();
                let vj = _mm512_maskz_loadu_epi64(tail, base.add(block));
                let vl = _mm512_mask_loadu_epi64(
                    vj,
                    jl & tail,
                    base.wrapping_add(block).wrapping_sub(d),
                );
                let vr = _mm512_mask_loadu_epi64(vj, jr & tail, base.wrapping_add(block + d));
                // The culprit-neighbour lanes (`j = m ± d`) are the standard
                // cell with one substitution: their `(j ∓ d, j)` candidate
                // pair *is* the culprit pair `(m, j)`, already removed by the
                // patch, so its two events are suppressed (clearing the lane
                // from `jl`/`jr`), and the re-add of that pair replaces the
                // `k1`/`k2` event's partner value with `v_m` (the culprit
                // slot holds the candidate's value after the swap).
                let lane_md = lane_of(block, lanes, m_md);
                let lane_pd = lane_of(block, lanes, m_pd);
                let jl = jl & !lane_pd;
                let jr = jr & !lane_md;
                // The six bucket indices of the cell's events.
                let k1 = _mm512_mask_mov_epi64(
                    _mm512_add_epi64(vj, k1c),
                    lane_md,
                    _mm512_add_epi64(vj, off_vm),
                );
                let k2 = _mm512_mask_mov_epi64(
                    _mm512_sub_epi64(k2c, vj),
                    lane_pd,
                    _mm512_sub_epi64(vm_off, vj),
                );
                let n1 = _mm512_sub_epi64(vm_off, vl);
                let n2 = _mm512_add_epi64(vr, off_vm);
                let o1 = _mm512_add_epi64(_mm512_sub_epi64(vj, vl), off_v);
                let o2 = _mm512_add_epi64(_mm512_sub_epi64(vr, vj), off_v);
                // The `occ` bits the four +1 events read (`k1`/`k2` gated on
                // their culprit pair being present), and both bits at the two
                // −1 events' buckets.
                let x1 = _mm512_maskz_mov_epi64(kg1, word_bit(occ, k1));
                let x2 = _mm512_maskz_mov_epi64(kg2, word_bit(occ, k2));
                let x3 = word_bit(occ, n1);
                let x4 = word_bit(occ, n2);
                let (oo1, mo1) = (word_bit(occ, o1), word_bit(multi, o1));
                let (oo2, mo2) = (word_bit(occ, o2), word_bit(multi, o2));
                // Independent-event score: +1 events add their baseline occ
                // bit, −1 events subtract their baseline multi bit.
                let mut score = _mm512_add_epi64(x1, x2);
                score = _mm512_mask_add_epi64(score, jl, score, _mm512_sub_epi64(x3, mo1));
                score = _mm512_mask_add_epi64(score, jr, score, _mm512_sub_epi64(x4, mo2));
                // Shared-bucket corrections in replay order k1, k2, n1, n2,
                // o1, o2 (see the module docs): ten index compares as
                // k-registers, corrections applied as masked adds.
                let e21 = _mm512_cmpeq_epi64_mask(k2, k1);
                let e31 = _mm512_cmpeq_epi64_mask(n1, k1);
                let e32 = _mm512_cmpeq_epi64_mask(n1, k2);
                let e41 = _mm512_cmpeq_epi64_mask(n2, k1);
                let e42 = _mm512_cmpeq_epi64_mask(n2, k2);
                let e43 = _mm512_cmpeq_epi64_mask(n2, n1);
                let a5a = _mm512_cmpeq_epi64_mask(o1, k2) & kg2;
                let a5b = _mm512_cmpeq_epi64_mask(o1, n2) & jr;
                let a6a = _mm512_cmpeq_epi64_mask(o2, k1) & kg1;
                let a6b = _mm512_cmpeq_epi64_mask(o2, n1) & jl;
                score =
                    _mm512_mask_add_epi64(score, e21 & kg1 & kg2, score, _mm512_sub_epi64(one, x2));
                score = _mm512_mask_add_epi64(
                    score,
                    ((e31 & kg1) | (e32 & kg2)) & jl,
                    score,
                    _mm512_sub_epi64(one, x3),
                );
                score = _mm512_mask_add_epi64(
                    score,
                    ((e41 & kg1) | (e42 & kg2) | (e43 & jl)) & jr,
                    score,
                    _mm512_sub_epi64(one, x4),
                );
                score = _mm512_mask_sub_epi64(
                    score,
                    (a5a | a5b) & jl,
                    score,
                    _mm512_sub_epi64(oo1, mo1),
                );
                score =
                    _mm512_mask_sub_epi64(score, a5a & a5b & jl, score, _mm512_sub_epi64(one, oo1));
                score = _mm512_mask_sub_epi64(
                    score,
                    (a6a | a6b) & jr,
                    score,
                    _mm512_sub_epi64(oo2, mo2),
                );
                score =
                    _mm512_mask_sub_epi64(score, a6a & a6b & jr, score, _mm512_sub_epi64(one, oo2));
                // Lanes the vector algebra cannot score: the culprit itself
                // and both candidate pairs vacating one shared bucket (the
                // second −1 needs "count ≥ 3", which two mask bits cannot
                // answer; the overridden neighbour lanes have one −1 event
                // and cannot collide this way).
                let dd = _mm512_cmpeq_epi64_mask(o1, o2) & jl & jr;
                let lane_m = lane_of(block, lanes, m);
                let good = !(dd | lane_m);
                *acc = _mm512_mask_add_epi64(*acc, good, *acc, _mm512_mul_epi32(w_v, score));
                // Exact per-bucket merge for the shared-bucket lanes (rare),
                // added straight onto `out`; the lane's clean rows still
                // arrive through its accumulator.
                let mut fix = dd & tail & !lane_m;
                while fix != 0 {
                    let l = fix.trailing_zeros() as usize;
                    fix &= fix - 1;
                    let j = block + l;
                    let vjx = values[j] as i64;
                    let delta =
                        row_merge(&mut touched, counts, values, meta, d, n, m, vm, off, j, vjx);
                    out[j] = out[j].wrapping_add_signed(delta);
                }
            }
        }
        // Single pass of `out` traffic: add each block's accumulator, masking
        // out the culprit lane and the tail.
        for (b, acc) in accs[..nblocks].iter().enumerate() {
            let block = lo_bound + 8 * b;
            let lanes = (n - block).min(8);
            let mask = low_lanes(lanes) & !lane_of(block, lanes, m);
            let out_ptr = out.as_mut_ptr().add(block).cast::<i64>();
            let cur = _mm512_maskz_loadu_epi64(mask, out_ptr);
            _mm512_mask_storeu_epi64(out_ptr, mask, _mm512_add_epi64(cur, *acc));
        }
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
/// row `d0 + l`: its bitsets of occupied buckets (`seen`) and, when the
/// sweep tracks them, of buckets holding two or more pairs (`twice`), plus
/// the tracked charges still owed to right endpoints (`right`) and the
/// rows' weights `ERR(d0 + l)` (`weights`).
struct RowGroup<const W: usize> {
    seen: [__m512i; W],
    twice: [__m512i; W],
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
    /// bit was already set is a charged pair: the bit also goes into
    /// `twice`, and `ERR(d)` is added to `errors` at both endpoints.  The
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
                let h = _mm512_mask_test_epi64_mask(k, *s, bit);
                self.twice[w] = _mm512_mask_or_epi64(self.twice[w], h, self.twice[w], bit);
                hit |= h;
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
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`]).
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
            1 => self.row_lanes::<1, false>(values, limit, [&mut [], &mut [], &mut []]),
            2 => self.row_lanes::<2, false>(values, limit, [&mut [], &mut [], &mut []]),
            3 => self.row_lanes::<3, false>(values, limit, [&mut [], &mut [], &mut []]),
            4 => self.row_lanes::<4, false>(values, limit, [&mut [], &mut [], &mut []]),
            _ => panic!("the row-lane evaluator covers n ≤ {ROW_LANES_MAX_ORDER}, got n = {n}"),
        }
    }

    /// The row-lane sweep at `W = ⌈(2n − 1) / 64⌉` occupancy words per lane,
    /// for `2 ≤ n ≤ 128`: `Some(cost)` iff the cost is `≤ limit`, checked
    /// after every group of eight rows.  With `TRACK`, `[errors, occ, multi]`
    /// (the table's per-position errors, zeroed by the caller, and its
    /// row-major masks) receive every charged pair's `ERR(d)` at both
    /// endpoints and every row's bitsets; the reset evaluator leaves it off
    /// and passes empty slices.
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
        [errors, occ, multi]: [&mut [u64]; 3],
    ) -> Option<u64> {
        let n = values.len();
        let dmax = self.max_distance(n);
        // `usize` is 64-bit on this arch; masked-out lanes are not read.
        let base = values.as_ptr().cast::<i64>();
        // Word w of a lane holds the differences in
        // [64w − (n − 1), 64(w + 1) − (n − 1)), the histogram's buckets
        // [64w, 64(w + 1)), with difference δ at bit δ mod 64: rotating a
        // word left by (n − 1) mod 64 puts bucket b at bit b mod 64.
        let mut word_ends = [_mm512_setzero_si512(); W];
        for (w, end) in word_ends.iter_mut().enumerate() {
            *end = _mm512_set1_epi64(64 * (w as i64 + 1) - (n as i64 - 1));
        }
        let to_buckets = ((n - 1) % 64) as u32;
        let mut cost = 0u64;
        for d0 in (1..=dmax).step_by(8) {
            let rows = (dmax + 1 - d0).min(8);
            let live = low_lanes(rows);
            let mut group = RowGroup {
                seen: [_mm512_setzero_si512(); W],
                twice: [_mm512_setzero_si512(); W],
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
            if TRACK {
                let mut lanes = [0u64; 8];
                for (w, (s, t)) in group.seen.iter().zip(&group.twice).enumerate() {
                    for (masks, bits) in [(&mut *occ, s), (&mut *multi, t)] {
                        _mm512_storeu_epi64(lanes.as_mut_ptr().cast(), *bits);
                        for (l, &word) in lanes.iter().enumerate().take(rows) {
                            masks[(d0 + l - 1) * W + w] = word.rotate_left(to_buckets);
                        }
                    }
                }
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
    /// evaluator's sweep over the current values, tracking buckets seen twice
    /// and charged pairs, recomputes the masks, the cost and the errors.
    /// Same result as `refresh_scalar`, which the dispatcher pins it to.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`]).
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds [`ROW_LANES_MAX_ORDER`].
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn refresh_avx512(&mut self) {
        self.errors.iter_mut().for_each(|e| *e = 0);
        let model = *self.model();
        let (values, limit) = (&self.values[..], u64::MAX);
        let out = [
            &mut self.errors[..],
            &mut self.occ_mask,
            &mut self.multi_mask,
        ];
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
