//! AVX-512 lane-parallel bodies: the probe for rows of up to four mask
//! words, and the row-lane sweep behind the reset evaluator's bounded
//! from-scratch cost and the conflict table's refresh pass, all for
//! n ≤ 128 ([`ROW_LANES_MAX_ORDER`]).
//!
//! # Probe body
//!
//! The scalar probe bodies (`probe_body_sim`, `probe_body`) are serial in
//! the one dimension the workload has plenty of: candidates.  Each
//! (candidate, row) cell reads six data-dependent bucket bits, and the
//! scalar replay's sequential mask maintenance chains them.  The vector body
//! keeps the same event algebra but scores **eight candidates per
//! instruction**.  Its lane algebra is written once (`probe_lanes`) and
//! instantiated twice; the two instances differ only in how a cell reads a
//! bucket bit (the `LaneRows` trait):
//!
//! * **Windows, W ≤ 2 (n ≤ 64)** — [`ConflictTable::probe_body_avx512`]
//!   over the register-width rows.  The four single-variable bucket tests
//!   come from the per-row *shifted windows* ([`SimRow`]): broadcast the
//!   window once, then one variable shift by `value − 1` per lane
//!   (`vpsrlvq`) and an AND against 1.  The two candidate-vacated buckets
//!   read the row's packed masks as two broadcast 64-bit words each; the
//!   word select (`index < 64`) is a mask blend, so two-word rows cost one
//!   extra shift + blend, not a gather.
//! * **Permutes, W = 3..=4 (65 ≤ n ≤ 128)** —
//!   [`ConflictTable::probe_body_avx512_wide`] over the slice-held rows
//!   ([`DynRows`]).  A 64-bit window cannot hold n > 64 values, so all six
//!   bits are read from the patched row copies: one masked load puts a row's
//!   `W` words in the low lanes of one register, and each test is a word
//!   select `idx >> 6` through a lane permute (`vpermq`), a shift by
//!   `idx & 63` and an AND against 1.  The word select is what this body
//!   adds, so the kernel suite pins it at every width edge (n = 65, 80, 96,
//!   97, 128); an off-by-one there fails it.
//!
//!   Windows stay for W ≤ 2, where every value fits one 64-bit window: a
//!   window test is one shift and one AND, and the permute test adds the
//!   word select on top.
//!
//! Shared-bucket corrections are evaluated *branchlessly in every lane* from
//! ten 8-way index compares (`__mmask8` k-registers): a `+1` event with an
//! earlier `+1` on its bucket truly scores 1, not its baseline occ bit
//! (correct by `1 − occ`); a `−1` event with `a` earlier `+1`s truly scores
//! `−[count + a ≥ 2]` (correct by `occ − multi`, then `1 − occ`).
//! Equalities that would force `v_j = v_m` or `j = m` are impossible
//! (permutation values are distinct) and not tested — the same derivation
//! the scalar replay's telescoping argument rests on, checked bit for bit
//! against the histogram reference by the same suites.
//!
//! Memory traffic is hoisted out of the row loop entirely: the whole
//! candidate axis is at most eight 8-lane accumulators for n ≤ 64 and
//! sixteen for n ≤ 128, held across all rows and added onto `out` once at
//! the end (the hoisted culprit-removal total rides in the accumulators'
//! initial value).
//!
//! Only two cell shapes leave the vector path, via a lane mask on the
//! accumulation: the culprit-neighbour cells (`j = m ± d`, a statically
//! known lane per row) and both candidate pairs vacating one shared bucket
//! (`o1 = o2`, detected as a k-register compare).  Those lanes are scored by
//! the exact per-bucket merge instead, added straight onto `out`.
//!
//! # Row-lane sweep: reset evaluator and refresh pass
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
//! needed: after the group, a SWAR popcount of the bitsets gives each row's
//! distinct count, the eight rows' repeats are weighted by `ERR(d)` and
//! summed, and the sweep returns `None` as soon as the partial cost exceeds
//! the limit.  At one word per row the inner step is three vector
//! instructions (subtract with a broadcast operand, rotate, masked OR) for
//! eight pairs.  A shift by `δ + n − 1` per word, the obvious alternative,
//! compiled to about twice the instructions; subtracting `values[i] − (n − 1)`
//! to get bucket indices directly loses the memory-operand broadcast and
//! measured 5–17 % slower at n = 16–80 on a 2-vCPU AVX-512 Xeon.
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

use super::{row_merge, DynRows, MaskWord, RowMeta, SimRow};
use crate::cost::{ConflictTable, CostModel};
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
unsafe fn bit_at(words: usize, [lo, hi]: [__m512i; 2], idx: __m512i) -> __m512i {
    let s = _mm512_and_epi64(idx, _mm512_set1_epi64(63));
    let from_lo = _mm512_srlv_epi64(lo, s);
    let sel = if words == 1 {
        from_lo
    } else {
        let w = _mm512_cmplt_epi64_mask(idx, _mm512_set1_epi64(64));
        _mm512_mask_mov_epi64(_mm512_srlv_epi64(hi, s), w, from_lo)
    };
    _mm512_and_epi64(sel, _mm512_set1_epi64(1))
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

/// One 8-candidate block's lane vectors that a row's bit reader needs: the
/// candidate and neighbour values, the four `+1` bucket indices, and the
/// culprit-neighbour lanes (`j = m − d` / `j = m + d`) whose `k1` / `k2`
/// partner is overridden with `v_m`.
struct Cell {
    vj: __m512i,
    vl: __m512i,
    vr: __m512i,
    k1: __m512i,
    k2: __m512i,
    n1: __m512i,
    n2: __m512i,
    lane_md: __mmask8,
    lane_pd: __mmask8,
}

/// How the vector probe body reads a row's bucket bits — the one thing its
/// two instantiations do differently (see the module docs).
trait LaneRows {
    /// One row's bits in registers, set up once per row.
    type Row;
    /// Rows scored: distances `1..=rows()`.
    fn rows(&self) -> usize;
    /// Row `di`'s metadata and register state.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime.
    unsafe fn row(&self, di: usize) -> (&RowMeta, Self::Row);
    /// The `occ` bits (0 or 1 per lane) read by the four `+1` events, at
    /// `k1`, `k2`, `n1`, `n2`; `k1` / `k2` read 0 when that culprit pair is
    /// absent.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime.
    unsafe fn plus_bits(row: &Self::Row, cell: &Cell) -> [__m512i; 4];
    /// The `occ` and `multi` bits (0 or 1 per lane) at `idx`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime.
    unsafe fn bits_at(row: &Self::Row, idx: __m512i) -> (__m512i, __m512i);
}

/// A register-width row (W ≤ 2) as broadcast vectors: the shifted windows
/// `p1..p4` of [`SimRow`], then `occ` and `multi` as (low, high) words.
struct WindowRow {
    p: [__m512i; 4],
    occ: [__m512i; 2],
    multi: [__m512i; 2],
}

impl<Wd: MaskWord> LaneRows for [SimRow<Wd>] {
    type Row = WindowRow;

    fn rows(&self) -> usize {
        self.len()
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn row(&self, di: usize) -> (&RowMeta, WindowRow) {
        let row = &self[di];
        let bits = WindowRow {
            p: [
                _mm512_set1_epi64(row.p1 as i64),
                _mm512_set1_epi64(row.p2 as i64),
                _mm512_set1_epi64(row.p3 as i64),
                _mm512_set1_epi64(row.p4 as i64),
            ],
            occ: [
                _mm512_set1_epi64(row.occ.lo64() as i64),
                _mm512_set1_epi64(row.occ.hi64() as i64),
            ],
            multi: [
                _mm512_set1_epi64(row.multi.lo64() as i64),
                _mm512_set1_epi64(row.multi.hi64() as i64),
            ],
        };
        (&row.meta, bits)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn plus_bits(row: &WindowRow, cell: &Cell) -> [__m512i; 4] {
        // Window bit at `value − 1`; the absent-side windows are pre-zeroed,
        // so x1/x2 self-gate.
        let one = _mm512_set1_epi64(1);
        let vj1 = _mm512_sub_epi64(cell.vj, one);
        let vl1 = _mm512_sub_epi64(cell.vl, one);
        let vr1 = _mm512_sub_epi64(cell.vr, one);
        let mut x1 = _mm512_and_epi64(_mm512_srlv_epi64(row.p[0], vj1), one);
        let mut x2 = _mm512_and_epi64(_mm512_srlv_epi64(row.p[1], vj1), one);
        let x3 = _mm512_and_epi64(_mm512_srlv_epi64(row.p[2], vl1), one);
        let x4 = _mm512_and_epi64(_mm512_srlv_epi64(row.p[3], vr1), one);
        // The shifted windows bake in the row-constant partner, so the
        // overridden culprit-neighbour lanes re-read their `k1`/`k2` bit from
        // the packed masks (≤ 2 blocks per row take this branch).
        if cell.lane_md | cell.lane_pd != 0 {
            let bx1 = bit_at(Wd::WORDS, row.occ, cell.k1);
            let bx2 = bit_at(Wd::WORDS, row.occ, cell.k2);
            x1 = _mm512_mask_mov_epi64(x1, cell.lane_md, bx1);
            x2 = _mm512_mask_mov_epi64(x2, cell.lane_pd, bx2);
        }
        [x1, x2, x3, x4]
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn bits_at(row: &WindowRow, idx: __m512i) -> (__m512i, __m512i) {
        (
            bit_at(Wd::WORDS, row.occ, idx),
            bit_at(Wd::WORDS, row.multi, idx),
        )
    }
}

/// A slice-held row of three or four words: `occ` and `multi` each in the
/// low lanes of one register, plus the culprit-side gates.
struct PermRow {
    kg1: __mmask8,
    kg2: __mmask8,
    occ: __m512i,
    multi: __m512i,
}

impl LaneRows for DynRows<'_> {
    type Row = PermRow;

    fn rows(&self) -> usize {
        self.metas.len()
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn row(&self, di: usize) -> (&RowMeta, PermRow) {
        let meta = &self.metas[di];
        let span = di * self.words..(di + 1) * self.words;
        let (occ, multi) = (&self.occ[span.clone()], &self.multi[span]);
        // SAFETY (of the loads): each masked load reads the first
        // `min(words, 8)` elements of a slice just bounds-checked to hold
        // `words`.
        let live = low_lanes(self.words);
        let bits = PermRow {
            kg1: if meta.has_left { 0xff } else { 0 },
            kg2: if meta.has_right { 0xff } else { 0 },
            occ: _mm512_maskz_loadu_epi64(live, occ.as_ptr().cast()),
            multi: _mm512_maskz_loadu_epi64(live, multi.as_ptr().cast()),
        };
        (meta, bits)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn plus_bits(row: &PermRow, cell: &Cell) -> [__m512i; 4] {
        // The indices carry the overridden culprit-neighbour partners
        // already, so no lane needs a second read.
        [
            _mm512_maskz_mov_epi64(row.kg1, word_bit(row.occ, cell.k1)),
            _mm512_maskz_mov_epi64(row.kg2, word_bit(row.occ, cell.k2)),
            word_bit(row.occ, cell.n1),
            word_bit(row.occ, cell.n2),
        ]
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn bits_at(row: &PermRow, idx: __m512i) -> (__m512i, __m512i) {
        (word_bit(row.occ, idx), word_bit(row.multi, idx))
    }
}

impl ConflictTable {
    /// Eight-lane AVX-512 probe body over the register-width row contexts
    /// (n ≤ 64) — drop-in replacement for `probe_body_sim` (same contract:
    /// add each candidate's delta onto the prefilled `out`, skipping `m`).
    /// Bucket bits come from the shifted windows; see the module docs.
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
        // n ≤ 64: eight blocks cover the candidate axis.
        self.probe_lanes::<_, 8>(rows, m, lo_bound, removal_total, out);
    }

    /// The same lane body over slice-held rows of three or four mask words
    /// (65 ≤ n ≤ [`ROW_LANES_MAX_ORDER`]) — drop-in replacement for
    /// `probe_body`.  Bucket bits come from word permutes; see the module
    /// docs.
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
        // n ≤ 128: sixteen blocks cover the candidate axis.
        self.probe_lanes::<_, 16>(rows, m, lo_bound, removal_total, out);
    }

    /// The lane algebra shared by both vector probe bodies, over at most
    /// `BLOCKS` 8-candidate blocks; `S` says how a row's bucket bits are
    /// read.  See the module docs.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and DQ at runtime.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn probe_lanes<S: LaneRows + ?Sized, const BLOCKS: usize>(
        &self,
        rows: &S,
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
        // row loop.  The culprit-removal half of every delta — identical for
        // every candidate — is their initial value.
        let nblocks = (n - lo_bound).div_ceil(8);
        assert!(
            nblocks <= BLOCKS,
            "{nblocks} candidate blocks exceed this body's {BLOCKS}"
        );
        let mut accs = [_mm512_set1_epi64(removal_total); BLOCKS];
        let one = _mm512_set1_epi64(1);
        let off_v = _mm512_set1_epi64(off);
        let vm_off = _mm512_set1_epi64(vm + off);
        let off_vm = _mm512_set1_epi64(off - vm);
        for di in 0..rows.rows() {
            let (meta, row) = rows.row(di);
            let d = di + 1;
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
                let cell = Cell {
                    vj,
                    vl,
                    vr,
                    k1: _mm512_mask_mov_epi64(
                        _mm512_add_epi64(vj, k1c),
                        lane_md,
                        _mm512_add_epi64(vj, off_vm),
                    ),
                    k2: _mm512_mask_mov_epi64(
                        _mm512_sub_epi64(k2c, vj),
                        lane_pd,
                        _mm512_sub_epi64(vm_off, vj),
                    ),
                    n1: _mm512_sub_epi64(vm_off, vl),
                    n2: _mm512_add_epi64(vr, off_vm),
                    lane_md,
                    lane_pd,
                };
                let (k1, k2, n1, n2) = (cell.k1, cell.k2, cell.n1, cell.n2);
                let o1 = _mm512_add_epi64(_mm512_sub_epi64(vj, vl), off_v);
                let o2 = _mm512_add_epi64(_mm512_sub_epi64(vr, vj), off_v);
                let [x1, x2, x3, x4] = S::plus_bits(&row, &cell);
                let (oo1, mo1) = S::bits_at(&row, o1);
                let (oo2, mo2) = S::bits_at(&row, o2);
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
            let mut mask = low_lanes(lanes);
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
        let (m1, m2, m4) = (
            _mm512_set1_epi64(0x5555_5555_5555_5555),
            _mm512_set1_epi64(0x3333_3333_3333_3333),
            _mm512_set1_epi64(0x0f0f_0f0f_0f0f_0f0f),
        );
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
            // Distinct buckets per lane: SWAR byte counts summed over the
            // words (≤ 32 per byte), then across the bytes.
            let mut bytes = _mm512_setzero_si512();
            for s in group.seen {
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
