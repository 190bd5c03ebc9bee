//! AVX-512 lane-parallel bodies: the probe for register-width rows (n ≤ 64)
//! and the reset evaluator's bounded from-scratch cost (n ≤ 128).
//!
//! # Probe body
//!
//! The scalar event-replay kernel (`probe_body_sim`) is serial in the one
//! dimension the workload has plenty of: candidates.  Each (candidate, row)
//! cell reads six data-dependent bucket bits, and the replay's sequential
//! mask maintenance chains them — the scalar body tops out near the generic
//! path's throughput once n leaves the single-word regime.  This body keeps
//! the same event algebra but scores **eight candidates per instruction**:
//!
//! * The four single-variable bucket tests come from the per-row *shifted
//!   windows* ([`SimRow`]): broadcast the window once, then one variable
//!   shift by `value − 1` per lane (`vpsrlvq`) and an AND against 1.
//! * The two candidate-vacated buckets read the row's packed masks as two
//!   broadcast 64-bit words each; the word select (`index < 64`) is a mask
//!   blend, so two-word rows cost one extra shift + blend, not a gather.
//! * Shared-bucket corrections are evaluated *branchlessly in every lane*
//!   from ten 8-way index compares (`__mmask8` k-registers): a `+1` event
//!   with an earlier `+1` on its bucket truly scores 1, not its baseline occ
//!   bit (correct by `1 − occ`); a `−1` event with `a` earlier `+1`s truly
//!   scores `−[count + a ≥ 2]` (correct by `occ − multi`, then `1 − occ`).
//!   Equalities that would force `v_j = v_m` or `j = m` are impossible
//!   (permutation values are distinct) and not tested — the same derivation
//!   the scalar replay's telescoping argument rests on, checked bit for bit
//!   against the histogram reference by the same suites.
//!
//! Memory traffic is hoisted out of the row loop entirely: with n ≤ 64 the
//! whole candidate axis is at most eight 8-lane accumulators, held across
//! all rows and added onto `out` once at the end (the hoisted
//! culprit-removal total rides in the accumulators' initial value).
//!
//! Only two cell shapes leave the vector path, via a lane mask on the
//! accumulation: the culprit-neighbour cells (`j = m ± d`, a statically
//! known lane per row) and both candidate pairs vacating one shared bucket
//! (`o1 = o2`, detected as a k-register compare).  Those lanes are scored by
//! the exact per-bucket merge instead, added straight onto `out`.
//!
//! # Reset evaluator body
//!
//! The Costas reset scores ≈ 2n candidate permutations from scratch
//! ([`CostModel::global_cost_bounded`]).  The scalar body sweeps one row of
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
//! needed: after the group, a SWAR popcount of the bitsets gives each
//! row's distinct count, the eight rows' repeats are weighted by `ERR(d)`
//! and summed, and the sweep returns `None` as soon as the partial cost
//! exceeds the limit.  At one word per row the inner step is
//! three vector instructions (subtract with a broadcast operand, rotate,
//! masked OR) for eight pairs; a shift by `δ + n − 1` per word, the
//! obvious alternative, compiled to about twice the instructions.
//!
//! Dispatch is by runtime feature detection ([`probe_kernel_available`]):
//! AVX-512 F (shifts, rotates, compares, mask ops, `vpmuldq`) and DQ.
//! Machines without it take the scalar bodies — same contract, same
//! pinning.

use std::arch::x86_64::*;

use super::{row_merge, MaskWord, SimRow};
use crate::cost::{ConflictTable, CostModel};
use crate::merge::BucketMerge;

/// Largest order [`CostModel::global_cost_bounded_avx512`] serves: a lane
/// holds one row's `2n − 1` buckets in at most four 64-bit words.
pub(crate) const ROW_LANES_MAX_ORDER: usize = 128;

/// Runtime gate for [`ConflictTable::probe_body_avx512`]: AVX-512 F + DQ,
/// detected once and cached.
pub(crate) fn probe_kernel_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    })
}

/// Per-lane bit test of a (≤ 2)-word mask held as broadcast words: shift both
/// words by `idx mod 64` and blend on `idx < 64`.  `words` is always the
/// monomorphized kernel's `Wd::WORDS`, so the branch constant-folds —
/// single-word rows (all indices < 64, zero high word) compile down to one
/// shift and one AND.
///
/// # Safety
///
/// Requires AVX-512 F at runtime; callers are `#[target_feature]`-gated.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn bit_at(
    words: usize,
    lo: __m512i,
    hi: __m512i,
    idx: __m512i,
    one: __m512i,
    c63: __m512i,
    c64: __m512i,
) -> __m512i {
    let s = _mm512_and_epi64(idx, c63);
    let from_lo = _mm512_srlv_epi64(lo, s);
    let sel = if words == 1 {
        from_lo
    } else {
        let w = _mm512_cmplt_epi64_mask(idx, c64);
        _mm512_mask_mov_epi64(_mm512_srlv_epi64(hi, s), w, from_lo)
    };
    _mm512_and_epi64(sel, one)
}

impl ConflictTable {
    /// Eight-lane AVX-512 probe body over the register-width row contexts —
    /// drop-in replacement for `probe_body_sim` (same contract: add each
    /// candidate's delta onto the prefilled `out`, skipping `m`).  See the
    /// module docs for the lane algebra.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime (see [`probe_kernel_available`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn probe_body_avx512<Wd: MaskWord>(
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
        // One 8-lane accumulator per candidate block, alive across the whole
        // row loop; n ≤ 64 on this path, so eight cover the candidate axis.
        // The culprit-removal half of every delta — identical for every
        // candidate — is their initial value.
        let nblocks = (n - lo_bound).div_ceil(8);
        assert!(nblocks <= 8, "register-width path is limited to n ≤ 64");
        let mut accs = [_mm512_set1_epi64(removal_total); 8];
        let one = _mm512_set1_epi64(1);
        let c63 = _mm512_set1_epi64(63);
        let c64 = _mm512_set1_epi64(64);
        let off_v = _mm512_set1_epi64(off);
        let vm_off = _mm512_set1_epi64(vm + off);
        let off_vm = _mm512_set1_epi64(off - vm);
        for (di, row) in rows.iter().enumerate() {
            let d = di + 1;
            let meta = &row.meta;
            // Row weights are ≤ n² < 2³¹ and lane scores are in −6..=6, so
            // the 32×32→64 `vpmuldq` below is exact.
            let w_v = _mm512_set1_epi64(meta.w);
            let kg1: __mmask8 = if meta.has_left { 0xff } else { 0 };
            let kg2: __mmask8 = if meta.has_right { 0xff } else { 0 };
            let k1c = _mm512_set1_epi64(off - meta.left_other);
            let k2c = _mm512_set1_epi64(off + meta.right_other);
            let p1v = _mm512_set1_epi64(row.p1 as i64);
            let p2v = _mm512_set1_epi64(row.p2 as i64);
            let p3v = _mm512_set1_epi64(row.p3 as i64);
            let p4v = _mm512_set1_epi64(row.p4 as i64);
            let occ_lo = _mm512_set1_epi64(row.occ.lo64() as i64);
            let occ_hi = _mm512_set1_epi64(row.occ.hi64() as i64);
            let mul_lo = _mm512_set1_epi64(row.multi.lo64() as i64);
            let mul_hi = _mm512_set1_epi64(row.multi.hi64() as i64);
            let m_md = m.wrapping_sub(d);
            let m_pd = m + d;
            for (b, acc) in accs[..nblocks].iter_mut().enumerate() {
                let block = lo_bound + 8 * b;
                let lanes = (n - block).min(8);
                let tail: __mmask8 = if lanes == 8 { 0xff } else { (1u8 << lanes) - 1 };
                // Candidate positions are consecutive within a block, so the
                // neighbour-presence gates are prefix/suffix lane masks,
                // computed scalar.
                let jl: __mmask8 = if d <= block {
                    0xff
                } else {
                    (0xffu32 << (d - block).min(8)) as u8
                };
                let jr: __mmask8 = {
                    let t = (n - d).saturating_sub(block).min(8);
                    ((1u32 << t) - 1) as u8
                };
                // Candidate and neighbour values: the candidates are
                // contiguous and the neighbours sit at fixed offsets ±d, so
                // interior blocks are direct masked loads (`usize` is 64-bit
                // on this arch; masked-out lanes are not read and come back
                // 0, which every consumer tolerates).  Blocks straddling an
                // array edge take a scalar fill with absent neighbours
                // index-clamped to the candidate itself — their events are
                // gated by `jl`/`jr`.
                let base = values.as_ptr().cast::<i64>();
                let vj = _mm512_maskz_loadu_epi64(tail, base.add(block));
                let vl = if block >= d {
                    _mm512_maskz_loadu_epi64(tail, base.add(block - d))
                } else {
                    let mut vlb = [1i64; 8];
                    for (l, slot) in vlb.iter_mut().enumerate().take(lanes) {
                        let j = block + l;
                        *slot = values[if j >= d { j - d } else { j }] as i64;
                    }
                    _mm512_loadu_epi64(vlb.as_ptr())
                };
                let vr = if block + lanes + d <= n {
                    _mm512_maskz_loadu_epi64(tail, base.add(block + d))
                } else {
                    let mut vrb = [1i64; 8];
                    for (l, slot) in vrb.iter_mut().enumerate().take(lanes) {
                        let j = block + l;
                        *slot = values[if j + d < n { j + d } else { j }] as i64;
                    }
                    _mm512_loadu_epi64(vrb.as_ptr())
                };
                // The culprit-neighbour lanes (`j = m ± d`) are the standard
                // cell with one substitution: their `(j ∓ d, j)` candidate
                // pair *is* the culprit pair `(m, j)`, already removed by the
                // patch, so its two events are suppressed (clearing the lane
                // from `jl`/`jr`), and the re-add of that pair replaces the
                // `k1`/`k2` event's partner value with `v_m` (the culprit
                // slot holds the candidate's value after the swap).
                let lane_md: __mmask8 = if (block..block + lanes).contains(&m_md) {
                    1 << (m_md - block)
                } else {
                    0
                };
                let lane_pd: __mmask8 = if (block..block + lanes).contains(&m_pd) {
                    1 << (m_pd - block)
                } else {
                    0
                };
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
                // Single-variable occupancy tests: window bit at `value − 1`.
                let vj1 = _mm512_sub_epi64(vj, one);
                let vl1 = _mm512_sub_epi64(vl, one);
                let vr1 = _mm512_sub_epi64(vr, one);
                let mut x1 = _mm512_and_epi64(_mm512_srlv_epi64(p1v, vj1), one);
                let mut x2 = _mm512_and_epi64(_mm512_srlv_epi64(p2v, vj1), one);
                let x3 = _mm512_and_epi64(_mm512_srlv_epi64(p3v, vl1), one);
                let x4 = _mm512_and_epi64(_mm512_srlv_epi64(p4v, vr1), one);
                // The shifted windows bake in the row-constant partner, so
                // the overridden culprit-neighbour lanes re-read their
                // `k1`/`k2` bit from the packed masks (≤ 2 blocks per row
                // take this branch).
                if lane_md | lane_pd != 0 {
                    let bx1 = bit_at(Wd::WORDS, occ_lo, occ_hi, k1, one, c63, c64);
                    let bx2 = bit_at(Wd::WORDS, occ_lo, occ_hi, k2, one, c63, c64);
                    x1 = _mm512_mask_mov_epi64(x1, lane_md, bx1);
                    x2 = _mm512_mask_mov_epi64(x2, lane_pd, bx2);
                }
                // Candidate-vacated bucket bits from the packed masks (see
                // [`bit_at`]; single-word rows skip the high-word blend).
                let mo1 = bit_at(Wd::WORDS, mul_lo, mul_hi, o1, one, c63, c64);
                let oo1 = bit_at(Wd::WORDS, occ_lo, occ_hi, o1, one, c63, c64);
                let mo2 = bit_at(Wd::WORDS, mul_lo, mul_hi, o2, one, c63, c64);
                let oo2 = bit_at(Wd::WORDS, occ_lo, occ_hi, o2, one, c63, c64);
                // Independent-event score: +1 events add their baseline occ
                // bit, −1 events subtract their baseline multi bit (the
                // absent-side windows are pre-zeroed, so x1/x2 self-gate).
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
                let lane_m: __mmask8 = if (block..block + lanes).contains(&m) {
                    1 << (m - block)
                } else {
                    0
                };
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
            let mut mask: __mmask8 = if lanes == 8 { 0xff } else { (1u8 << lanes) - 1 };
            if (block..block + lanes).contains(&m) {
                mask &= !(1 << (m - block));
            }
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

/// OR the buckets of the pairs `(i, i + d0 + l)` into lane `l`'s bitset,
/// for the `live` lanes, where `left` points at `values[i]`.  A difference
/// `δ` lands in the first word whose end exceeds it, at bit `δ mod 64`
/// (`vprolvq` rotates by the count's low six bits, negative counts
/// included); the words span 64 consecutive differences each, so distinct
/// differences get distinct bits.
///
/// # Safety
///
/// Requires AVX-512 F and DQ at runtime.  `left` and `left + d0 + l` must
/// point into one slice for every live lane `l`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mark_pairs<const W: usize>(
    seen: &mut [__m512i; W],
    left: *const i64,
    d0: usize,
    live: __mmask8,
    word_ends: &[__m512i; W],
) {
    let right = _mm512_maskz_loadu_epi64(live, left.add(d0));
    let diff = _mm512_sub_epi64(right, _mm512_set1_epi64(*left));
    let bit = _mm512_rolv_epi64(_mm512_set1_epi64(1), diff);
    let mut rest = live;
    for (w, s) in seen.iter_mut().enumerate() {
        let k = if w + 1 == W {
            rest
        } else {
            _mm512_mask_cmplt_epi64_mask(rest, diff, word_ends[w])
        };
        *s = _mm512_mask_or_epi64(*s, k, *s, bit);
        rest &= !k;
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
            1 => self.row_lanes::<1>(values, limit),
            2 => self.row_lanes::<2>(values, limit),
            3 => self.row_lanes::<3>(values, limit),
            4 => self.row_lanes::<4>(values, limit),
            _ => panic!("the row-lane evaluator covers n ≤ {ROW_LANES_MAX_ORDER}, got n = {n}"),
        }
    }

    /// The row-lane sweep at `W = ⌈(2n − 1) / 64⌉` occupancy words per lane.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn row_lanes<const W: usize>(&self, values: &[usize], limit: u64) -> Option<u64> {
        let n = values.len();
        let dmax = self.max_distance(n);
        // `usize` is 64-bit on this arch; masked-out lanes are not read.
        let base = values.as_ptr().cast::<i64>();
        // Word w of a lane holds the differences in
        // [64w − (n − 1), 64(w + 1) − (n − 1)).
        let mut word_ends = [_mm512_setzero_si512(); W];
        for (w, end) in word_ends.iter_mut().enumerate() {
            *end = _mm512_set1_epi64(64 * (w as i64 + 1) - (n as i64 - 1));
        }
        let (m1, m2, m4) = (
            _mm512_set1_epi64(0x5555_5555_5555_5555),
            _mm512_set1_epi64(0x3333_3333_3333_3333),
            _mm512_set1_epi64(0x0f0f_0f0f_0f0f_0f0f),
        );
        let mut cost = 0u64;
        for d0 in (1..=dmax).step_by(8) {
            let rows = low_lanes(dmax - d0 + 1);
            let mut seen = [_mm512_setzero_si512(); W];
            // Lane l scores row d0 + l, whose pairs (i, i + d0 + l) exist
            // for i < n − d0 − l: every live row has a pair at i below
            // `full`, and the tail loses one lane per step.
            let full = (n - d0).saturating_sub(7);
            // SAFETY: lane l is live only while i + d0 + l < n, so every
            // pointer handed over stays inside `values`.
            for i in 0..full {
                mark_pairs(&mut seen, base.add(i), d0, rows, &word_ends);
            }
            for i in full..n - d0 {
                mark_pairs(
                    &mut seen,
                    base.add(i),
                    d0,
                    rows & low_lanes(n - d0 - i),
                    &word_ends,
                );
            }
            // Distinct buckets per lane: SWAR byte counts summed over the
            // words (≤ 32 per byte), then across the bytes.
            let mut bytes = _mm512_setzero_si512();
            for s in seen {
                let x = _mm512_sub_epi64(s, _mm512_and_si512(_mm512_srli_epi64::<1>(s), m1));
                let x = _mm512_add_epi64(
                    _mm512_and_si512(x, m2),
                    _mm512_and_si512(_mm512_srli_epi64::<2>(x), m2),
                );
                let x = _mm512_and_si512(_mm512_add_epi64(x, _mm512_srli_epi64::<4>(x)), m4);
                bytes = _mm512_add_epi64(bytes, x);
            }
            // A row has at most n − 1 ≤ 127 distinct buckets, so every
            // partial sum of its byte counts fits one byte.
            let bytes = _mm512_add_epi64(bytes, _mm512_srli_epi64::<8>(bytes));
            let bytes = _mm512_add_epi64(bytes, _mm512_srli_epi64::<16>(bytes));
            let bytes = _mm512_add_epi64(bytes, _mm512_srli_epi64::<32>(bytes));
            let mut distinct = [0u64; 8];
            _mm512_storeu_epi64(
                distinct.as_mut_ptr().cast(),
                _mm512_and_si512(bytes, _mm512_set1_epi64(0xff)),
            );
            // Row d has n − d pairs; each beyond its bucket's first repeats.
            for (l, &k) in distinct.iter().enumerate().take(dmax + 1 - d0) {
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
