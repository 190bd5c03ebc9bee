//! AVX-512 lane-parallel bodies, all for n ≤ 128 ([`ROW_LANES_MAX_ORDER`]):
//! the two probe bodies, the reset's rotation and addition bodies, and the
//! row-lane sweep behind the reset evaluator's bounded from-scratch cost
//! and the conflict table's refresh pass.
//!
//! # Probe bodies
//!
//! The scalar probe bodies (`probe_body_sim`, `probe_body`) are serial in
//! the one dimension the workload has plenty of: candidates.  Both vector
//! bodies put the candidates in lanes; they differ in what a lane computes.
//!
//! * **From scratch, one-word rows (n ≤ 32), sixteen candidates per pass
//!   up to n = 16 and eight beyond** —
//!   [`ConflictTable::probe_body_avx512_scratch`].  Lane `l` holds the whole
//!   configuration after swapping the culprit `m` with candidate `j_l`:
//!   column `p` is `v[p]`, except `v[m]` at `p = j_l` and `v[j_l]` at
//!   `p = m`.  Each row `d` is one loop over the left index `i` that ORs
//!   `rolv(1, col[i + d] − col[i])` into a per-lane word; the differences
//!   lie in `(−n, n)`, so distinct differences set distinct bits.  The
//!   row's repeats are its `n − d` pairs minus the popcount, and the lane's
//!   cost is `Σ ERR(d)·repeats` — the row-lane sweep's "pairs minus distinct
//!   buckets" identity (below), so the body is exact by construction: it
//!   reads no counts and no masks and needs no shared-bucket corrections.
//!   It costs O(n·d_max) per candidate against the event algebra's
//!   O(d_max), which pays while a row fits one word.  The lane layout
//!   follows the row: while its `2n − 1 ≤ 31` buckets fit a 32-bit word
//!   (n ≤ [`U32_LANES_MAX_ORDER`]) a lane is a `u32` ([`U32x16`]: `vprolvd`,
//!   a nibble-lookup popcount weighted by `vpmaddwd`, and the exact cost,
//!   at most n³, fits the lane), so one pass scores every candidate of an
//!   order-16 probe; up to n = 32 a lane is a `u64` ([`U64x8`]).  On a
//!   2-vCPU AVX-512 Xeon a probe call at n = 16 takes about 140 ns in
//!   sixteen `u32` lanes, against 250 ns in eight `u64` lanes and 840 ns
//!   for the event algebra.  A prototype with two `u32` words per
//!   row for 17 ≤ n ≤ 32 read mixed: the rotations were level to 25 %
//!   faster, but the probe up to 37 % slower at n = 17, 20 and 24, so
//!   those orders keep the `u64` lanes.  The lane-cost loop
//!   ([`ConflictTable::lane_costs`]) takes the columns of any permutations,
//!   one per lane, and is shared with the reset bodies below.
//! * **Event algebra, two to four words (33 ≤ n ≤ 128), 64 candidates per
//!   pass** — [`ConflictTable::probe_body_avx512_bytes`], the scalar
//!   replay's cell algebra with one candidate per *byte* lane.  Per row `d`
//!   the row's `u16` counts become a byte table of at most 256 entries
//!   (counts are at most `n − d ≤ 127`): one `vpermi2b` picks the low
//!   bytes of 64 counts out of two 32-count loads.  The ≤ 2 buckets the
//!   culprit's pairs vacate lose one count each (a masked byte subtract),
//!   and the table stays in `Q` registers: two while
//!   `2n − 1 ≤ 128` (n ≤ 64), four beyond.  The six bucket indices of a
//!   cell (`k1`, `k2` re-add the culprit's pairs, `n1`, `n2` the
//!   candidate's, `o1`, `o2` remove the candidate's) are `u8` arithmetic on
//!   byte copies of the values — every index is at most `2n − 2 ≤ 254` —
//!   and each baseline count is one `vpermi2b` lookup (two and a blend on
//!   the index's top bit with four registers).
//!
//!   What a row needs from the culprit alone is built before the row loop,
//!   by one vector pre-pass over `d`, sixteen rows per pass in `u32` lanes
//!   ([`ConflictTable::row_contexts`]): `v[m − d]` and `v[m + d]` (a
//!   reversed and a straight 16-byte load from a zero-padded byte copy of
//!   the values, so a pair past either end reads 0, which no value is),
//!   the two vacated buckets, their counts by one gather each, and the
//!   row's share of the culprit-removal total.  A removed pair saves
//!   `ERR(d)` when its bucket holds another pair; when both pairs vacate
//!   one bucket, the second saves it when a third remains.  The scalar
//!   bodies build the same context one row at a time (`build_row_meta`),
//!   and a test pins the two together.
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
//! # Reset bodies: the first two families, sixteen or eight per pass
//!
//! The Costas reset's first perturbation family rotates by one cell every
//! sub-array starting or ending at the most erroneous variable, ≈ 2n
//! candidates.  On one-word rows
//! [`ConflictTable::rotation_body_avx512`] scores sixteen of them per pass
//! for n ≤ 16 and eight beyond, in the probe's lane layout, without
//! building any: lane `l` carries its rotation's bounds
//! `[lo, hi]`, direction and moved end value, and column `p` is `v[p]`,
//! `v[p + 1]` (left rotation, `lo ≤ p < hi`), `v[p − 1]` (right rotation,
//! `lo < p ≤ hi`) or the end value (`p = hi` left, `p = lo` right), chosen
//! per lane by k-mask compares of `p` against the bounds and three masked
//! moves of broadcast values.  The columns then go through the probe's
//! lane-cost loop, so each lane's cost is exact — no abort, no bound.  An
//! earlier prototype batched the candidates by copying and transposing
//! materialised permutations, and the copies ate the gain; generating the
//! columns from the bounds costs O(n) vector operations per pass, below the
//! O(n·d_max) of the scoring.  At n = 16 the 30 anchored rotations of a
//! culprit take about 430 ns in sixteen `u32` lanes against 770 ns in
//! eight `u64` lanes on a 2-vCPU AVX-512 Xeon.
//!
//! The second family adds a constant circularly to every value (at most
//! four constants).  [`ConflictTable::addition_body_avx512`] scores them
//! in one pass the same way: lane `l`'s column `p` is `v[p] + c_l`, less
//! `n` where that exceeds `n` (a compare and a masked move).  The
//! conflict table keeps no counts and no masks on this tier: the three
//! from-scratch bodies and the refresh pass read only the values.
//!
//! # Row-lane sweep: reset evaluator and refresh pass
//!
//! The Costas reset scores its other candidates — every one where the table
//! keeps counts, family 3 on the count-free tier — from scratch
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
//! lane's bit against its word before setting it (one `vptestmq` on the
//! lanes' words, picked by the same masks): a hit is a pair whose
//! difference was already encountered in its row, charged `ERR(d)` at both
//! endpoints.  The step only stores its hit mask as a byte.  After each
//! group of eight rows the hit bytes are the left endpoints' charges as
//! they stand; per row, a `vptestmb` of the bytes against the row's bit
//! gives its bitmap of charged left indices, which, shifted by `d`, sets
//! the row's bit in a second byte array for the right endpoints (a masked
//! byte add).  A charge byte becomes its sum of weights by two
//! sixteen-entry `vpermd` lookups, one per nibble, in tables built from the
//! group's eight weights, and is added into one `u32` lane per position
//! (a position's total is at most `2·Σ ERR(d)` < 2.8·10⁶ at n = 128); the
//! lanes are widened into the errors once, at the end.  This replaced a
//! per-step horizontal sum for the left endpoint, two scalar
//! read-modify-writes and a right-endpoint register sliding down one lane
//! per step (a loop-carried `valignq`).  No vector probe body reads the
//! occupancy masks, so the pass exports none: tables on this tier keep no
//! masks.
//!
//! Dispatch is by runtime feature detection ([`probe_kernel_available`]),
//! one gate for every body here: AVX-512 F (shifts, rotates, compares, mask
//! ops, `vpmuldq`), DQ, BW (byte and word lanes, `vpshufb`, `vpmaddwd`) and
//! VBMI (`vpermi2b`).
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

/// Zero bytes before the first value in [`ConflictTable::value_bytes`]:
/// as many as the largest order, so a load at `p − d` for any position `p`
/// and distance `d` stays inside the buffer.
const BYTES_PAD: usize = ROW_LANES_MAX_ORDER;

/// Length of [`ConflictTable::value_bytes`]: the values and padding on both
/// sides for 64-byte loads at `p + d`, and for the row-context pre-pass's
/// 16-byte loads at `m ± d`.
pub(crate) const VALUE_BYTES: usize = 3 * BYTES_PAD + 64;

/// The culprit context of each row of a byte-lane probe, at index `d − 1`,
/// as [`ConflictTable::row_contexts`] builds it: the per-row input of the
/// probe's row loop, which the scalar bodies take from `build_row_meta`.
/// Entries past the scored rows are unspecified.
pub(crate) struct RowContexts {
    /// `v[m − d]`, or zero where `d > m` (values start at 1).
    pub(crate) left: [u8; ROW_LANES_MAX_ORDER],
    /// `v[m + d]`, or zero where `m + d ≥ n`.
    pub(crate) right: [u8; ROW_LANES_MAX_ORDER],
    /// The buckets of the culprit's pairs `(m − d, m)` and `(m, m + d)`;
    /// meaningful where the pair exists.
    pub(crate) vacated: [[u8; ROW_LANES_MAX_ORDER]; 2],
    /// The counts of those buckets, zero where the pair does not exist.
    pub(crate) vacated_counts: [[u16; ROW_LANES_MAX_ORDER]; 2],
    /// The row's share of the culprit-removal total: `−ERR(d)` per removed
    /// pair that leaves a repeat behind.
    pub(crate) removal: [i32; ROW_LANES_MAX_ORDER],
}

impl Default for RowContexts {
    fn default() -> Self {
        Self {
            left: [0; ROW_LANES_MAX_ORDER],
            right: [0; ROW_LANES_MAX_ORDER],
            vacated: [[0; ROW_LANES_MAX_ORDER]; 2],
            vacated_counts: [[0; ROW_LANES_MAX_ORDER]; 2],
            removal: [0; ROW_LANES_MAX_ORDER],
        }
    }
}

/// Largest order whose rows' `2n − 1` buckets fit one 64-bit word: the
/// from-scratch bodies' whole range.
const ONE_WORD_MAX_ORDER: usize = 32;

/// Largest order whose rows' `2n − 1` buckets fit one 32-bit word: the
/// from-scratch bodies run sixteen `u32` lanes ([`U32x16`]) up to it and
/// eight `u64` lanes ([`U64x8`]) from there to n = 32.
pub(crate) const U32_LANES_MAX_ORDER: usize = 16;

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

/// Per-byte population counts of `s`, by a nibble lookup (`vpshufb`).
///
/// # Safety
///
/// Requires AVX-512 F and BW at runtime; callers are
/// `#[target_feature]`-gated.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn byte_popcounts(s: __m512i) -> __m512i {
    let nibbles = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    ));
    let low = _mm512_set1_epi8(0x0f);
    _mm512_add_epi8(
        _mm512_shuffle_epi8(nibbles, _mm512_and_si512(s, low)),
        _mm512_shuffle_epi8(nibbles, _mm512_and_si512(_mm512_srli_epi16::<4>(s), low)),
    )
}

/// Mask of the lowest `k` lanes as the low bits of a `u32` (all 32 for
/// `k ≥ 32`); a layout of fewer lanes keeps the bits it has.
#[inline]
fn low_bits(k: usize) -> u32 {
    if k >= 32 {
        !0
    } else {
        (1 << k) - 1
    }
}

/// The lane of position `p` in the block of `lanes` candidates starting at
/// `block`, as a one-bit mask; zero when `p` lies outside the block.
#[inline]
fn lane_of(block: usize, lanes: usize, p: usize) -> u32 {
    if (block..block + lanes).contains(&p) {
        1 << (p - block)
    } else {
        0
    }
}

/// Lane layout of the from-scratch bodies: lane `l` holds one candidate
/// permutation, and vector `p` its column `p`.  [`U32x16`] serves rows whose
/// `2n − 1 ≤ 31` buckets fit a 32-bit word (n ≤ [`U32_LANES_MAX_ORDER`]),
/// [`U64x8`] one-word rows up to n = 32.  Masks are the low
/// [`Lanes::LANES`] bits of a `u32`.
///
/// # Safety
///
/// Every method requires AVX-512 F, DQ and BW at runtime; the callers are
/// `#[target_feature]`-gated.  `load` and `store` also need `src` and
/// `dst` valid for the lanes their mask selects.
trait Lanes {
    /// Candidates per pass.
    const LANES: usize;
    /// `x` in every lane.
    unsafe fn splat(x: usize) -> __m512i;
    /// `src[l]` in the lanes `k` selects, zero elsewhere.
    unsafe fn load(src: *const usize, k: u32) -> __m512i;
    /// Lane `l` of `v` widened to `dst[l]`, for the lanes `k` selects.
    unsafe fn store(dst: *mut u64, k: u32, v: __m512i);
    unsafe fn add(a: __m512i, b: __m512i) -> __m512i;
    unsafe fn sub(a: __m512i, b: __m512i) -> __m512i;
    /// `a` rotated left by `b` modulo the lane width.
    unsafe fn rolv(a: __m512i, b: __m512i) -> __m512i;
    /// `w` times the set bits per lane, for a weight `w < 2¹⁵`.
    unsafe fn weighted_popcount(a: __m512i, w: usize) -> __m512i;
    unsafe fn cmpeq(a: __m512i, b: __m512i) -> u32;
    unsafe fn cmple(a: __m512i, b: __m512i) -> u32;
    unsafe fn cmpgt(a: __m512i, b: __m512i) -> u32;
    /// `a` in the lanes `k` selects, `src` elsewhere.
    unsafe fn mask_mov(src: __m512i, k: u32, a: __m512i) -> __m512i;
}

/// Sixteen `u32` lanes: the from-scratch bodies' layout for n ≤ 16.
struct U32x16;

/// Eight `u64` lanes: the from-scratch bodies' layout for 17 ≤ n ≤ 32.
struct U64x8;

impl Lanes for U32x16 {
    const LANES: usize = 16;
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn splat(x: usize) -> __m512i {
        _mm512_set1_epi32(x as i32)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn load(src: *const usize, k: u32) -> __m512i {
        // `usize` is 64-bit on this arch; the upper half's address is formed
        // with wrapping arithmetic, as it loads nothing when `k` is narrow.
        let low = _mm512_maskz_loadu_epi64(k as __mmask8, src.cast());
        let high = _mm512_maskz_loadu_epi64((k >> 8) as __mmask8, src.wrapping_add(8).cast());
        let low = _mm512_castsi256_si512(_mm512_cvtepi64_epi32(low));
        _mm512_inserti64x4::<1>(low, _mm512_cvtepi64_epi32(high))
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn store(dst: *mut u64, k: u32, v: __m512i) {
        let low = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(v));
        let high = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(v));
        _mm512_mask_storeu_epi64(dst.cast(), k as __mmask8, low);
        _mm512_mask_storeu_epi64(dst.wrapping_add(8).cast(), (k >> 8) as __mmask8, high);
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn add(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi32(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn sub(a: __m512i, b: __m512i) -> __m512i {
        _mm512_sub_epi32(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn rolv(a: __m512i, b: __m512i) -> __m512i {
        _mm512_rolv_epi32(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn weighted_popcount(s: __m512i, w: usize) -> __m512i {
        // Byte counts summed in byte pairs (`vpmaddubsw`), then in pairs
        // of pairs weighted by `w` (`vpmaddwd`).
        let pairs = _mm512_maddubs_epi16(byte_popcounts(s), _mm512_set1_epi8(1));
        _mm512_madd_epi16(pairs, _mm512_set1_epi16(w as i16))
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn cmpeq(a: __m512i, b: __m512i) -> u32 {
        _mm512_cmpeq_epi32_mask(a, b).into()
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn cmple(a: __m512i, b: __m512i) -> u32 {
        _mm512_cmple_epi32_mask(a, b).into()
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn cmpgt(a: __m512i, b: __m512i) -> u32 {
        _mm512_cmpgt_epi32_mask(a, b).into()
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn mask_mov(src: __m512i, k: u32, a: __m512i) -> __m512i {
        _mm512_mask_mov_epi32(src, k as __mmask16, a)
    }
}

impl Lanes for U64x8 {
    const LANES: usize = 8;
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn splat(x: usize) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn load(src: *const usize, k: u32) -> __m512i {
        // `usize` is 64-bit on this arch.
        _mm512_maskz_loadu_epi64(k as __mmask8, src.cast())
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn store(dst: *mut u64, k: u32, v: __m512i) {
        _mm512_mask_storeu_epi64(dst.cast(), k as __mmask8, v);
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn add(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi64(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn sub(a: __m512i, b: __m512i) -> __m512i {
        _mm512_sub_epi64(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn rolv(a: __m512i, b: __m512i) -> __m512i {
        _mm512_rolv_epi64(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn weighted_popcount(s: __m512i, w: usize) -> __m512i {
        // Byte counts summed per lane (`vpsadbw` against zero), then the
        // 32×32→64 `vpmuludq` of the low halves.
        let counts = _mm512_sad_epu8(byte_popcounts(s), _mm512_setzero_si512());
        _mm512_mul_epu32(counts, Self::splat(w))
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn cmpeq(a: __m512i, b: __m512i) -> u32 {
        _mm512_cmpeq_epi64_mask(a, b).into()
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn cmple(a: __m512i, b: __m512i) -> u32 {
        _mm512_cmple_epi64_mask(a, b).into()
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn cmpgt(a: __m512i, b: __m512i) -> u32 {
        _mm512_cmpgt_epi64_mask(a, b).into()
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn mask_mov(src: __m512i, k: u32, a: __m512i) -> __m512i {
        _mm512_mask_mov_epi64(src, k as __mmask8, a)
    }
}

impl ConflictTable {
    /// From-scratch AVX-512 probe body for one-word rows (n ≤ 32): write
    /// into `out[j]` the cost after swapping `m` with `j`, for
    /// `j in lo_bound..n`, `j != m`, sixteen candidates per pass in `u32`
    /// lanes for n ≤ 16 and eight in `u64` lanes beyond; the other entries
    /// are left alone.  See the module docs.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime (see
    /// [`probe_kernel_available`], the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than one word (n > 32), if the culprit
    /// is out of range, or if `out` is shorter than the order.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
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
        if n <= U32_LANES_MAX_ORDER {
            self.probe_scratch::<U32x16, U32_LANES_MAX_ORDER>(m, lo_bound, out);
        } else {
            self.probe_scratch::<U64x8, ONE_WORD_MAX_ORDER>(m, lo_bound, out);
        }
    }

    /// [`Self::probe_body_avx512_scratch`] in the lane layout `L`, for orders up
    /// to `C` (the layout's largest): the column buffer holds `C` vectors,
    /// each written before it is read.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime; the caller checks the order,
    /// the culprit and `out`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn probe_scratch<L: Lanes, const C: usize>(
        &self,
        m: usize,
        lo_bound: usize,
        out: &mut [u64],
    ) {
        let n = self.n;
        let values = &self.values[..];
        let vm = L::splat(values[m]);
        let mut cols = [_mm512_setzero_si512(); C];
        for block in (lo_bound..n).step_by(L::LANES) {
            let lanes = (n - block).min(L::LANES);
            // Lane l is the configuration with m and j = block + l swapped;
            // the tail lanes load 0.
            for (col, &v) in cols.iter_mut().zip(values) {
                *col = L::splat(v);
            }
            for l in 0..lanes {
                cols[block + l] = L::mask_mov(cols[block + l], 1 << l, vm);
            }
            cols[m] = L::load(values.as_ptr().add(block), low_bits(lanes));
            let cost = self.lane_costs::<L>(&cols[..n]);
            let store = low_bits(lanes) & !lane_of(block, lanes, m);
            L::store(out.as_mut_ptr().add(block), store, cost);
        }
    }

    /// From-scratch AVX-512 body of [`ConflictTable::rotation_costs`] for
    /// one-word rows (n ≤ 32): `out[k]` is the exact cost after applying
    /// `rotations[k]`, sixteen rotations per pass for n ≤ 16 and eight
    /// beyond.  Lane `l`'s column `p` is `v[p]`, `v[p + 1]` (left rotation,
    /// `lo ≤ p < hi`), `v[p − 1]` (right rotation, `lo < p ≤ hi`) or the
    /// moved end value (`v[lo]` at `p = hi` for a left rotation, `v[hi]` at
    /// `p = lo` for a right one), picked by k-mask compares against the
    /// lane's bounds, so no rotation is ever built; the columns then go
    /// through the probe's lane-cost loop.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime (see
    /// [`probe_kernel_available`], the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than one word (n > 32) or `out` is
    /// shorter than `rotations`.  Each rotation must satisfy
    /// `lo ≤ hi < n` (checked by the caller).
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    pub(crate) unsafe fn rotation_body_avx512(&self, rotations: &[Rotation], out: &mut [u64]) {
        let n = self.n;
        assert!(
            self.mask_words == 1,
            "the rotation body covers n ≤ 32, got n = {n}"
        );
        assert!(out.len() >= rotations.len(), "rotation output too short");
        if n <= U32_LANES_MAX_ORDER {
            self.rotations::<U32x16, U32_LANES_MAX_ORDER>(rotations, out);
        } else {
            self.rotations::<U64x8, ONE_WORD_MAX_ORDER>(rotations, out);
        }
    }

    /// [`Self::rotation_body_avx512`] in the lane layout `L`, for orders up
    /// to `C` (the layout's largest): the column buffer holds `C` vectors,
    /// each written before it is read.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime; the caller checks the order,
    /// the rotations and `out`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn rotations<L: Lanes, const C: usize>(&self, rotations: &[Rotation], out: &mut [u64]) {
        let n = self.n;
        let values = &self.values[..];
        let mut cols = [_mm512_setzero_si512(); C];
        let out = &mut out[..rotations.len()];
        for (batch, out) in rotations.chunks(L::LANES).zip(out.chunks_mut(L::LANES)) {
            // Idle lanes get bounds past the array, so every compare misses
            // and they score the current permutation.
            let (mut lo, mut hi, mut end) = ([n; 16], [n; 16], [0; 16]);
            let mut left = 0u32;
            for (l, r) in batch.iter().enumerate() {
                (lo[l], hi[l]) = (r.lo, r.hi);
                end[l] = values[if r.left { r.lo } else { r.hi }];
                left |= u32::from(r.left) << l;
            }
            let all = low_bits(L::LANES);
            let lo = L::load(lo.as_ptr(), all);
            let hi = L::load(hi.as_ptr(), all);
            let end = L::load(end.as_ptr(), all);
            for (p, col) in cols[..n].iter_mut().enumerate() {
                let at = L::splat(p);
                let (at_lo, at_hi) = (L::cmpeq(lo, at), L::cmpeq(hi, at));
                let inside = L::cmple(lo, at) & L::cmple(at, hi);
                *col = L::splat(values[p]);
                if p + 1 < n {
                    let next = inside & left & !at_hi;
                    *col = L::mask_mov(*col, next, L::splat(values[p + 1]));
                }
                if p > 0 {
                    let prev = inside & !left & !at_lo;
                    *col = L::mask_mov(*col, prev, L::splat(values[p - 1]));
                }
                *col = L::mask_mov(*col, (at_hi & left) | (at_lo & !left), end);
            }
            let cost = self.lane_costs::<L>(&cols[..n]);
            L::store(out.as_mut_ptr(), low_bits(out.len()), cost);
        }
    }

    /// From-scratch AVX-512 body of [`ConflictTable::addition_costs`] for
    /// one-word rows (n ≤ 32): `out[k]` is the exact cost after adding
    /// `constants[k]` circularly to every value, sixteen constants per pass
    /// for n ≤ 16 and eight beyond.  Lane `l`'s column `p` is
    /// `v[p] + c_l`, less `n` where that exceeds `n`, so no candidate is
    /// built; the columns then go through the probe's lane-cost loop.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime (see
    /// [`probe_kernel_available`], the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than one word (n > 32) or `out` is
    /// shorter than `constants`.  Each constant must lie below the order
    /// (checked by the caller).
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    pub(crate) unsafe fn addition_body_avx512(&self, constants: &[usize], out: &mut [u64]) {
        let n = self.n;
        assert!(
            self.mask_words == 1,
            "the addition body covers n ≤ 32, got n = {n}"
        );
        assert!(out.len() >= constants.len(), "addition output too short");
        if n <= U32_LANES_MAX_ORDER {
            self.additions::<U32x16, U32_LANES_MAX_ORDER>(constants, out);
        } else {
            self.additions::<U64x8, ONE_WORD_MAX_ORDER>(constants, out);
        }
    }

    /// [`Self::addition_body_avx512`] in the lane layout `L`, for orders up
    /// to `C` (the layout's largest): the column buffer holds `C` vectors,
    /// each written before it is read.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime; the caller checks the order,
    /// the constants and `out`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn additions<L: Lanes, const C: usize>(&self, constants: &[usize], out: &mut [u64]) {
        let n = self.n;
        let order = L::splat(n);
        let mut cols = [_mm512_setzero_si512(); C];
        for (batch, out) in constants.chunks(L::LANES).zip(out.chunks_mut(L::LANES)) {
            // Idle lanes add 0 and score the current permutation.
            let live = low_bits(batch.len());
            let c = L::load(batch.as_ptr(), live);
            for (col, &v) in cols[..n].iter_mut().zip(&self.values) {
                let sum = L::add(L::splat(v), c);
                *col = L::mask_mov(sum, L::cmpgt(sum, order), L::sub(sum, order));
            }
            let cost = self.lane_costs::<L>(&cols[..n]);
            L::store(out.as_mut_ptr(), live, cost);
        }
    }

    /// The lane-cost loop of the from-scratch bodies: lane `l` of `cols[p]`
    /// is column `p` of lane `l`'s permutation (n ≤ 32, and n ≤ 16 for
    /// [`U32x16`]), and the result's lane `l` is that permutation's exact
    /// cost.  Each row `d` ORs `rolv(1, col[i + d] − col[i])` into a
    /// per-lane word over the left index `i`; the differences lie in
    /// `(−n, n)`, which the lane width covers, so distinct differences set
    /// distinct bits, and the row's repeats are its `n − d` pairs minus the
    /// popcount.  The cost is `Σ ERR(d)·(n − d)`, a scalar, less the
    /// lane's `Σ ERR(d)·popcount`; `ERR(d) ≤ n² < 2¹⁵` and the cost, at
    /// most `n³`, fit the lane.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime; callers are
    /// `#[target_feature]`-gated.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    unsafe fn lane_costs<L: Lanes>(&self, cols: &[__m512i]) -> __m512i {
        let n = cols.len();
        let one = L::splat(1);
        // Σ ERR(d)·(n − d) over the rows, less Σ ERR(d)·distinct per lane.
        let (mut pairs, mut distinct) = (0, _mm512_setzero_si512());
        for d in 1..=self.dmax {
            let mut seen = _mm512_setzero_si512();
            for (left, right) in cols.iter().zip(&cols[d..]) {
                seen = _mm512_or_si512(seen, L::rolv(one, L::sub(*right, *left)));
            }
            let w = self.weight(d) as usize;
            pairs += w * (n - d);
            distinct = L::add(distinct, L::weighted_popcount(seen, w));
        }
        L::sub(L::splat(pairs), distinct)
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

    /// The values as bytes (each ≤ n ≤ 128) at `BYTES_PAD + p`, zero
    /// elsewhere: the byte-lane probe's neighbour loads at `block ± d` and
    /// the row-context pre-pass's loads at `m ± d` stay inside the buffer,
    /// and read zero — no value — past either end.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and BW at runtime; the order is at most
    /// [`ROW_LANES_MAX_ORDER`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(crate) unsafe fn value_bytes(&self) -> [u8; VALUE_BYTES] {
        let mut bytes = [0u8; VALUE_BYTES];
        let dst = bytes.as_mut_ptr().add(BYTES_PAD);
        for at in (0..self.n).step_by(8) {
            let k = low_bits(self.n - at) as __mmask8;
            let v = _mm512_maskz_loadu_epi64(k, self.values.as_ptr().add(at).cast());
            _mm512_mask_cvtepi64_storeu_epi8(dst.add(at).cast(), k, v);
        }
        bytes
    }

    /// The culprit context of every row `d` of a byte-lane probe at culprit
    /// `m`, built in one vector pre-pass over `d`, sixteen rows per pass in
    /// `u32` lanes: `v[m − d]` and `v[m + d]` read from `bytes` (zero for a
    /// pair past either end), the buckets the culprit's pairs vacate, their
    /// counts by one gather each, and each row's share of the
    /// culprit-removal total.  `bytes` is [`Self::value_bytes`].  Returns
    /// the total.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime; the table keeps its counts,
    /// `33 ≤ n ≤ 128` and `m < n`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    pub(crate) unsafe fn row_contexts(
        &self,
        m: usize,
        bytes: &[u8; VALUE_BYTES],
        ctx: &mut RowContexts,
    ) -> i64 {
        let (n, width) = (self.n, self.width);
        let vm = self.values[m] as i32;
        let off = n as i32 - 1;
        let (one, zero) = (_mm512_set1_epi32(1), _mm512_setzero_si512());
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let reverse = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        // Lane l of a pass starting at row d0 reads row d0 + l's counts at
        // `(d0 − 1 + l) · width + bucket`.
        let row_starts = _mm512_mullo_epi32(lanes, _mm512_set1_epi32(width as i32));
        let counts = self.counts.as_ptr().cast::<i32>();
        let mut total = zero;
        for d0 in (1..=self.dmax).step_by(16) {
            let at = d0 - 1;
            let live = low_bits(self.dmax - at) as __mmask16;
            // v[m − d0 − l] reversed into lane l; v[m + d0 + l] as loaded.
            let left = _mm_shuffle_epi8(
                _mm_loadu_si128(bytes.as_ptr().add(BYTES_PAD + m - d0 - 15).cast()),
                reverse,
            );
            let right = _mm_loadu_si128(bytes.as_ptr().add(BYTES_PAD + m + d0).cast());
            _mm_storeu_si128(ctx.left.as_mut_ptr().add(at).cast(), left);
            _mm_storeu_si128(ctx.right.as_mut_ptr().add(at).cast(), right);
            let (left, right) = (_mm512_cvtepu8_epi32(left), _mm512_cvtepu8_epi32(right));
            let has_left = _mm512_mask_test_epi32_mask(live, left, left);
            let has_right = _mm512_mask_test_epi32_mask(live, right, right);
            let vacated = [
                _mm512_sub_epi32(_mm512_set1_epi32(vm + off), left),
                _mm512_add_epi32(right, _mm512_set1_epi32(off - vm)),
            ];
            // Two bytes per count: each 32-bit read holds the count in its
            // low half (the pad entry covers the last one).
            let rows = _mm512_add_epi32(row_starts, _mm512_set1_epi32((at * width) as i32));
            let mut vacated_counts = [zero; 2];
            for ((c, &bucket), has) in vacated_counts
                .iter_mut()
                .zip(&vacated)
                .zip([has_left, has_right])
            {
                let idx = _mm512_add_epi32(rows, bucket);
                let read = _mm512_mask_i32gather_epi32::<2>(zero, has, idx, counts);
                *c = _mm512_and_si512(read, _mm512_set1_epi32(0xffff));
            }
            for (k, (&bucket, &c)) in vacated.iter().zip(&vacated_counts).enumerate() {
                let dst = ctx.vacated[k].as_mut_ptr().add(at);
                _mm_storeu_si128(dst.cast(), _mm512_cvtepi32_epi8(bucket));
                let dst = ctx.vacated_counts[k].as_mut_ptr().add(at);
                _mm256_storeu_si256(dst.cast(), _mm512_cvtepi32_epi16(c));
            }
            // Removing a pair from a bucket of count c ≥ 1 saves ERR(d)
            // when c ≥ 2.  When both pairs vacate one bucket, the second
            // saves ERR(d) when c ≥ 3.
            let shared = _mm512_mask_cmpeq_epi32_mask(has_left & has_right, vacated[0], vacated[1]);
            let second = _mm512_mask_add_epi32(one, shared, one, one);
            let saves_left = _mm512_mask_cmpgt_epi32_mask(has_left, vacated_counts[0], one);
            let saves_right = _mm512_mask_cmpgt_epi32_mask(has_right, vacated_counts[1], second);
            let weights = self.weights.as_ptr().add(d0).cast::<i64>();
            let w = _mm512_inserti64x4::<1>(
                _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_maskz_loadu_epi64(
                    live as __mmask8,
                    weights,
                ))),
                _mm512_cvtepi64_epi32(_mm512_maskz_loadu_epi64(
                    (live >> 8) as __mmask8,
                    weights.wrapping_add(8),
                )),
            );
            let saved = _mm512_mask_add_epi32(
                _mm512_maskz_mov_epi32(saves_left, w),
                saves_right,
                _mm512_maskz_mov_epi32(saves_left, w),
                w,
            );
            _mm512_storeu_si512(
                ctx.removal.as_mut_ptr().add(at).cast(),
                _mm512_sub_epi32(zero, saved),
            );
            total = _mm512_add_epi32(total, saved);
        }
        -i64::from(_mm512_reduce_add_epi32(total))
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
        let n = self.n;
        let bytes = self.value_bytes();
        let mut ctx = RowContexts::default();
        let removal_total = self.row_contexts(m, &bytes, &mut ctx);
        // Bucket arithmetic wraps in `u8`; every true bucket index is at most
        // 2n − 2 ≤ 254, so the wrapped result is exact.
        let off = (n - 1) as u8;
        let vm = self.values[m] as u8;
        let (vm_off, off_vm) = (splat(vm.wrapping_add(off)), splat(off.wrapping_sub(vm)));
        let (one, offv) = (splat(1), splat(off));
        // Per block, hoisted out of the row loop: the candidates' values.
        let mut vjs = [_mm512_setzero_si512(); B];
        for (b, vj) in vjs.iter_mut().enumerate() {
            let at = BYTES_PAD + lo_bound + 64 * b;
            *vj = _mm512_loadu_si512(bytes.as_ptr().add(at).cast());
        }
        // Counts come in as `u16` chunks of 32, two per table register; a
        // chunk's mask keeps its loads inside the row.
        let width = self.width;
        let mut chunk_live = [[0u32; 2]; Q];
        for (c, live) in chunk_live.iter_mut().flatten().enumerate() {
            *live = low_bits(width.saturating_sub(32 * c));
        }
        // Byte k of a table register is the low byte of count k of its two
        // chunks (counts ≤ n − d ≤ 127).
        let mut even = [0u8; 64];
        for (k, e) in even.iter_mut().enumerate() {
            *e = 2 * k as u8;
        }
        let even = _mm512_loadu_si512(even.as_ptr().cast());
        let mut accs = [[_mm512_setzero_si512(); 4]; B];
        for d in 1..=self.dmax {
            let r = d - 1;
            let (left, right) = (ctx.left[r], ctx.right[r]);
            let (has_left, has_right) = (left != 0, right != 0);
            // The row's baseline counts as a byte table, less the culprit's
            // pairs at the buckets they vacate.
            let row = self.counts.as_ptr().add(r * width);
            let mut table = [_mm512_setzero_si512(); Q];
            for (q, (t, live)) in table.iter_mut().zip(&chunk_live).enumerate() {
                // Chunks past the row's end load nothing, so their address
                // is formed with wrapping arithmetic.
                let chunk = |c: usize| row.wrapping_add(64 * q + 32 * c).cast::<i16>();
                *t = _mm512_permutex2var_epi8(
                    _mm512_maskz_loadu_epi16(live[0], chunk(0)),
                    even,
                    _mm512_maskz_loadu_epi16(live[1], chunk(1)),
                );
                for (bucket, has) in [
                    (ctx.vacated[0][r], has_left),
                    (ctx.vacated[1][r], has_right),
                ] {
                    let k = u64::from(has && usize::from(bucket >> 6) == q) << (bucket & 63);
                    *t = _mm512_mask_sub_epi8(*t, k, *t, one);
                }
            }
            // Row constants: k1 = v_j + c1, k2 = c2 − v_j, and the gates of
            // the culprit's two pairs.
            let c1 = splat(off.wrapping_sub(left));
            let c2 = splat(off.wrapping_add(right));
            let g1: __mmask64 = if has_left { !0 } else { 0 };
            let g2: __mmask64 = if has_right { !0 } else { 0 };
            // ERR(d) < 2¹⁵ as an `i16` in the even (odd) half of each `i32`
            // lane: `vpmaddwd` then weights the even (odd) candidates.
            let w = self.weight(d) as i32;
            let (w_even, w_odd) = (_mm512_set1_epi32(w), _mm512_set1_epi32(w << 16));
            for (b, (acc, &vj)) in accs.iter_mut().zip(&vjs).enumerate() {
                let at = lo_bound + 64 * b;
                let vl = _mm512_loadu_si512(bytes.as_ptr().add(BYTES_PAD + at - d).cast());
                let vr = _mm512_loadu_si512(bytes.as_ptr().add(BYTES_PAD + at + d).cast());
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

/// One group of up to eight rows of the row-lane sweep, lane `l` holding
/// row `d0 + l`: its bitsets of occupied buckets.
struct RowGroup<const W: usize> {
    seen: [__m512i; W],
}

impl<const W: usize> RowGroup<W> {
    /// OR the buckets of the pairs `(i, i + d0 + l)` into lane `l`'s bitset,
    /// for the `live` lanes, where `base` points at `values`.  A difference
    /// `δ` lands in the first word whose end exceeds it, at bit `δ mod 64`
    /// (`vprolvq` rotates by the count's low six bits, negative counts
    /// included); the words span 64 consecutive differences each, so
    /// distinct differences get distinct bits.  With `TRACK`, returns the
    /// lanes whose bit was already set — the charged pairs — and zero
    /// without.
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
    ) -> __mmask8 {
        let left = base.add(i);
        let right = _mm512_maskz_loadu_epi64(live, left.add(d0));
        let diff = _mm512_sub_epi64(right, _mm512_set1_epi64(*left));
        let bit = _mm512_rolv_epi64(_mm512_set1_epi64(1), diff);
        let mut rest = live;
        // Each lane's word before the OR, for one hit test over the words.
        let mut before = self.seen[0];
        for (w, s) in self.seen.iter_mut().enumerate() {
            let k = if w + 1 == W {
                rest
            } else {
                _mm512_mask_cmplt_epi64_mask(rest, diff, word_ends[w])
            };
            if TRACK && w > 0 {
                before = _mm512_mask_mov_epi64(before, k, *s);
            }
            *s = _mm512_mask_or_epi64(*s, k, *s, bit);
            rest &= !k;
        }
        if TRACK {
            _mm512_mask_test_epi64_mask(live, before, bit)
        } else {
            0
        }
    }
}

/// The refresh pass's per-position errors while it sweeps: lane `p mod 16`
/// of `acc[p / 16]` sums the `ERR(d)` charged to position `p < n ≤ 128` in
/// a `u32`, which holds any position's total, at most `2·Σ ERR(d)` below
/// 2.8·10⁶ at n = 128.
struct Charges {
    acc: [__m512i; ROW_LANES_MAX_ORDER / 16],
    /// `⌈n / 16⌉`, the registers in use.
    chunks: usize,
}

/// Bit `l` of the nibble `k`, as a mask over the sixteen nibbles `k`.
const NIBBLE_BITS: [__mmask16; 4] = [0xaaaa, 0xcccc, 0xf0f0, 0xff00];

impl Charges {
    /// Charge the pairs a row group recorded: for the left indices
    /// `i < pairs`, bit `l` of `hits[i]` marks the pair `(i, i + d0 + l)`,
    /// whose endpoints both take `weights[l] = ERR(d0 + l)`.  The hit bytes
    /// are the left endpoints' charges as they stand.  The right endpoints'
    /// bytes are built a row at a time: a `vptestmb` turns row `l`'s hits
    /// into a bitmap over `i`, shifted by `d0 + l` it marks the right
    /// endpoints, and a masked byte add sets their bit `l`.  A charge byte
    /// then becomes its sum of weights by two sixteen-entry `vpermd`
    /// lookups, one per nibble.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and BW at runtime.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn add_group(
        &mut self,
        hits: &[u8; ROW_LANES_MAX_ORDER],
        pairs: usize,
        d0: usize,
        weights: &[u64],
    ) {
        let zero = _mm512_setzero_si512();
        let mut bytes = [[0u8; ROW_LANES_MAX_ORDER]; 2];
        let mut left = [zero; 2];
        for (h, half) in left.iter_mut().enumerate() {
            let k = low_lanes64(pairs.saturating_sub(64 * h));
            *half = _mm512_maskz_loadu_epi8(k, hits.as_ptr().add(64 * h).cast());
        }
        let mut right = [zero; 2];
        let (mut low, mut high) = (zero, zero);
        for (l, &w) in weights.iter().enumerate() {
            let bit = _mm512_set1_epi8((1u8 << l) as i8);
            let row = u128::from(_mm512_test_epi8_mask(left[0], bit))
                | u128::from(_mm512_test_epi8_mask(left[1], bit)) << 64;
            let ends = row << (d0 + l);
            right[0] = _mm512_mask_add_epi8(right[0], ends as u64, right[0], bit);
            right[1] = _mm512_mask_add_epi8(right[1], (ends >> 64) as u64, right[1], bit);
            let nibble = if l < 4 { &mut low } else { &mut high };
            let w = _mm512_set1_epi32(w as i32);
            *nibble = _mm512_mask_add_epi32(*nibble, NIBBLE_BITS[l & 3], *nibble, w);
        }
        for (dst, src) in bytes.iter_mut().zip([left, right]) {
            _mm512_storeu_si512(dst.as_mut_ptr().cast(), src[0]);
            _mm512_storeu_si512(dst.as_mut_ptr().add(64).cast(), src[1]);
        }
        let nibbles = _mm512_set1_epi32(0xf);
        for (c, acc) in self.acc[..self.chunks].iter_mut().enumerate() {
            for ends in &bytes {
                let b = _mm512_cvtepu8_epi32(_mm_loadu_si128(ends.as_ptr().add(16 * c).cast()));
                let lo = _mm512_permutexvar_epi32(_mm512_and_si512(b, nibbles), low);
                let hi = _mm512_permutexvar_epi32(_mm512_srli_epi32::<4>(b), high);
                *acc = _mm512_add_epi32(*acc, _mm512_add_epi32(lo, hi));
            }
        }
    }

    /// Write the totals, widened, into `errors` (one per position).
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F at runtime; `errors` holds `n` entries.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(&self, errors: &mut [u64]) {
        let n = errors.len();
        for (c, &acc) in self.acc[..self.chunks].iter().enumerate() {
            let halves = [
                _mm512_castsi512_si256(acc),
                _mm512_extracti64x4_epi64::<1>(acc),
            ];
            for (h, half) in halves.into_iter().enumerate() {
                let at = 16 * c + 8 * h;
                let k = low_bits(n.saturating_sub(at)) as __mmask8;
                let dst = errors.as_mut_ptr().wrapping_add(at).cast();
                _mm512_mask_storeu_epi64(dst, k, _mm512_cvtepu32_epi64(half));
            }
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
    /// Requires AVX-512 F, DQ and BW at runtime (see
    /// [`probe_kernel_available`], the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds [`ROW_LANES_MAX_ORDER`].
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
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
    /// per-position errors, one per position) is overwritten with every
    /// charged pair's `ERR(d)` summed at both endpoints; the reset evaluator
    /// leaves it off and passes an empty slice.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ and BW at runtime.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
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
        // Charged lanes of the current group, one byte per left index.
        let mut hits = [0u8; ROW_LANES_MAX_ORDER];
        let mut charges = Charges {
            acc: [_mm512_setzero_si512(); ROW_LANES_MAX_ORDER / 16],
            chunks: n.div_ceil(16),
        };
        let mut cost = 0u64;
        for d0 in (1..=dmax).step_by(8) {
            let rows = (dmax + 1 - d0).min(8);
            let live = low_bits(rows) as __mmask8;
            let mut group = RowGroup {
                seen: [_mm512_setzero_si512(); W],
            };
            // Lane l scores row d0 + l, whose pairs (i, i + d0 + l) exist
            // for i < n − d0 − l: every live row has a pair at i below
            // `full`, and the tail loses one lane per step.
            let full = (n - d0).saturating_sub(7);
            // SAFETY: lane l is live only while i + d0 + l < n, so every
            // pointer handed over stays inside `values`.
            for (i, hit) in hits[..full].iter_mut().enumerate() {
                let charged = group.mark::<TRACK>(base, i, d0, live, &word_ends);
                if TRACK {
                    *hit = charged;
                }
            }
            for (i, hit) in hits[..n - d0].iter_mut().enumerate().skip(full) {
                let lanes = live & low_bits(n - d0 - i) as __mmask8;
                let charged = group.mark::<TRACK>(base, i, d0, lanes, &word_ends);
                if TRACK {
                    *hit = charged;
                }
            }
            // Distinct buckets per lane; a row has at most n − 1 ≤ 127.
            let mut distinct = [0u64; 8];
            _mm512_storeu_epi64(distinct.as_mut_ptr().cast(), popcount_lanes(&group.seen));
            // Row d has n − d pairs; each beyond its bucket's first repeats.
            let mut weights = [0u64; 8];
            for (l, (&k, w)) in distinct.iter().zip(&mut weights).enumerate().take(rows) {
                let d = d0 + l;
                *w = self.weight_at(n, d);
                cost += ((n - d) as u64 - k) * *w;
            }
            if TRACK {
                charges.add_group(&hits, n - d0, d0, &weights[..rows]);
            }
            if cost > limit {
                return None;
            }
        }
        if TRACK {
            charges.store(errors);
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
    /// Requires AVX-512 F, DQ and BW at runtime (see
    /// [`probe_kernel_available`], the gate every caller checks).
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds [`ROW_LANES_MAX_ORDER`].
    #[target_feature(enable = "avx512f,avx512dq,avx512bw")]
    pub(crate) unsafe fn refresh_avx512(&mut self) {
        let model = *self.model();
        let (values, limit) = (&self.values[..], u64::MAX);
        let out = &mut self.errors[..];
        let swept = match self.mask_words {
            _ if self.n < 2 => {
                out.fill(0);
                Some(0)
            }
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
