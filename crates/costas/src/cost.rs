//! The paper's error model and the incremental conflict table.
//!
//! §IV-A/§IV-B of the paper define how the CAP is scored inside Adaptive Search:
//!
//! * Each row `d` of the difference triangle is scanned; every difference value that
//!   has already been encountered in the same row adds `ERR(d)` to the global cost and
//!   to the per-variable cost of both endpoints of the offending pair.
//! * The basic model uses `ERR(d) = 1`; the optimised model uses `ERR(d) = n² − d²`,
//!   penalising more heavily the errors in the first rows (which contain more
//!   differences) — worth ≈17 % of runtime in the paper.
//! * Chang's remark allows checking only the rows `d ≤ ⌊(n−1)/2⌋` — worth ≈30 %.
//!
//! Both optimisations are configurable through [`CostModel`], so the ablation benches
//! can turn each off independently.
//!
//! [`ConflictTable`] holds the current permutation and recomputes the cost, the
//! per-variable errors and the probe's occupancy masks from it in one pass after
//! every change; where an event-algebra probe needs them it also keeps a per-row
//! histogram of difference values, moved in O(rows-to-check) per swap — this is
//! the data structure the inner loop of every local-search solver in this
//! workspace stands on.

use crate::array::Permutation;
use crate::merge::BucketMerge;

/// Weighting function `ERR(d)` applied to an error at distance `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrWeight {
    /// `ERR(d) = 1` — the basic model (just counts conflicts).
    Unit,
    /// `ERR(d) = n² − d²` — the paper's optimised weighting (§IV-B).
    #[default]
    Quadratic,
}

impl ErrWeight {
    /// Evaluate the weight for a given order and distance.
    #[inline]
    pub fn weight(self, n: usize, d: usize) -> u64 {
        match self {
            ErrWeight::Unit => 1,
            ErrWeight::Quadratic => (n * n - d * d) as u64,
        }
    }
}

/// Which rows of the difference triangle are scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowSpan {
    /// All rows `d = 1 … n − 1`.
    Full,
    /// Only `d = 1 … ⌊(n−1)/2⌋`, valid by Chang's remark (§IV-B) — a permutation with
    /// no repeat in the first half of the triangle is already a Costas array.
    #[default]
    ChangHalf,
}

impl RowSpan {
    /// The largest distance scored for order `n`.
    #[inline]
    pub const fn max_distance(self, n: usize) -> usize {
        match self {
            RowSpan::Full => n.saturating_sub(1),
            RowSpan::ChangHalf => {
                if n <= 1 {
                    0
                } else {
                    // Chang's bound: d ≤ ⌊(n−1)/2⌋, but never below 1 for n ≥ 2 so the
                    // cost function still distinguishes configurations at tiny orders.
                    let d = (n - 1) / 2;
                    if d == 0 {
                        1
                    } else {
                        d
                    }
                }
            }
        }
    }
}

/// Full description of the scoring model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostModel {
    /// Error weighting per distance.
    pub weight: ErrWeight,
    /// Which rows are scored.
    pub span: RowSpan,
}

impl CostModel {
    /// The paper's optimised model: quadratic weights over the Chang half-triangle.
    pub const fn optimized() -> Self {
        Self {
            weight: ErrWeight::Quadratic,
            span: RowSpan::ChangHalf,
        }
    }

    /// The paper's basic model: unit weights over the full triangle.
    pub const fn basic() -> Self {
        Self {
            weight: ErrWeight::Unit,
            span: RowSpan::Full,
        }
    }

    /// Largest scored distance for order `n`.
    pub const fn max_distance(&self, n: usize) -> usize {
        self.span.max_distance(n)
    }

    /// Weight of an error at distance `d` for order `n`.
    pub fn weight_at(&self, n: usize, d: usize) -> u64 {
        self.weight.weight(n, d)
    }

    /// Compute the global cost of a permutation from scratch (reference
    /// implementation, O(n·d_max); the solvers use [`ConflictTable`] instead).
    ///
    /// Convenience wrapper over [`CostModel::global_cost_with`] that allocates a
    /// fresh scratch histogram; callers evaluating many candidates (the Costas
    /// reset procedure, test oracles) should hold a scratch buffer and use the
    /// `_with` variant.
    pub fn global_cost(&self, values: &[usize]) -> u64 {
        self.global_cost_with(values, &mut Vec::new())
    }

    /// Allocation-free from-scratch global cost: `scratch` is a reusable one-row
    /// histogram (resized to `2n − 1` and zeroed per row).
    pub fn global_cost_with(&self, values: &[usize], scratch: &mut Vec<u32>) -> u64 {
        let n = values.len();
        if n < 2 {
            return 0;
        }
        let width = 2 * n - 1;
        let dmax = self.max_distance(n);
        scratch.clear();
        scratch.resize(width, 0);
        let mut cost = 0u64;
        for d in 1..=dmax {
            if d > 1 {
                scratch.iter_mut().for_each(|c| *c = 0);
            }
            let w = self.weight_at(n, d);
            for i in 0..(n - d) {
                let diff = values[i + d] as i64 - values[i] as i64;
                let idx = (diff + (n as i64 - 1)) as usize;
                if scratch[idx] > 0 {
                    cost += w;
                }
                scratch[idx] += 1;
            }
        }
        cost
    }

    /// Like [`CostModel::global_cost_with`], but gives up as soon as the running
    /// cost exceeds `limit` and returns `None`: `Some(cost)` if and only if
    /// `cost ≤ limit`.
    ///
    /// Rows of the difference triangle contribute independently and
    /// non-negatively, so every partial sum is a lower bound on the final cost:
    /// `None` therefore *proves* `cost > limit` without finishing the sweep.
    /// This is the Costas reset's evaluator for every candidate the reset
    /// does not batch: all ≈ 2n of them where the table keeps its counts,
    /// and the ≤ 7 constant additions and prefix shifts on the count-free
    /// tier (x86-64 with AVX-512 F + DQ + BW + VBMI, n ≤ 32), whose ≈ 2n
    /// anchored rotations are scored exactly, eight per pass, by
    /// [`ConflictTable::rotation_costs`] instead.  The abort saves less than
    /// one might hope: on the benchmark's Costas walks (optimised model),
    /// before the rotations were batched, reset candidates scanned on
    /// average 4.5 of 7, 13.4 of 19 and 28.6 of 39 rows at n = 16, 40 and
    /// 80, so the sweep itself has to be fast.
    ///
    /// Two tiers, chosen by CPU feature and order only:
    ///
    /// * **AVX-512 row lanes** (x86-64 with AVX-512 F + DQ + BW + VBMI,
    ///   n ≤ 128): one row of the triangle per 64-bit lane, eight rows per
    ///   pass, each row's buckets as a 1–4-word occupancy bitset; the abort
    ///   is checked after every eight rows (see `kernel::simd`).  `scratch`
    ///   is not touched.
    /// * **Scalar histogram** (every other host, n > 128): one row at a time
    ///   through the `2n − 1`-entry `scratch` histogram, zeroed per row, the
    ///   abort checked after every row.
    ///
    /// Both return the same value for every permutation; a `debug_assert!` pins the
    /// vector tier to the scalar one on every call, and the kernel suite
    /// checks both tiers directly.
    pub fn global_cost_bounded(
        &self,
        values: &[usize],
        limit: u64,
        scratch: &mut Vec<u32>,
    ) -> Option<u64> {
        #[cfg(target_arch = "x86_64")]
        if values.len() <= crate::kernel::simd::ROW_LANES_MAX_ORDER
            && crate::kernel::simd::probe_kernel_available()
        {
            // SAFETY: gated on runtime detection of the exact features the
            // row-lane body is compiled for (AVX-512 F + DQ + BW + VBMI), and
            // the order fits its four occupancy words per lane.
            let bounded = unsafe { self.global_cost_bounded_avx512(values, limit) };
            debug_assert_eq!(
                bounded,
                self.global_cost_bounded_scalar(values, limit, scratch),
                "row-lane reset evaluator diverged from the scalar body (limit {limit})"
            );
            return bounded;
        }
        self.global_cost_bounded_scalar(values, limit, scratch)
    }

    /// Scalar histogram body of [`CostModel::global_cost_bounded`]: the
    /// portable tier, the n > 128 fallback, and the vector tier's reference.
    pub(crate) fn global_cost_bounded_scalar(
        &self,
        values: &[usize],
        limit: u64,
        scratch: &mut Vec<u32>,
    ) -> Option<u64> {
        let n = values.len();
        if n < 2 {
            return Some(0);
        }
        let width = 2 * n - 1;
        let dmax = self.max_distance(n);
        scratch.clear();
        scratch.resize(width, 0);
        let mut cost = 0u64;
        for d in 1..=dmax {
            if d > 1 {
                scratch.iter_mut().for_each(|c| *c = 0);
            }
            let w = self.weight_at(n, d);
            for i in 0..(n - d) {
                let diff = values[i + d] as i64 - values[i] as i64;
                let idx = (diff + (n as i64 - 1)) as usize;
                if scratch[idx] > 0 {
                    cost += w;
                }
                scratch[idx] += 1;
            }
            if cost > limit {
                return None;
            }
        }
        Some(cost)
    }

    /// Compute the per-variable errors of a permutation from scratch.
    ///
    /// Following the paper: scanning each row left to right, when a pair `(Vᵢ, Vᵢ₊d)`
    /// has a difference already encountered in the row, both `Vᵢ` and `Vᵢ₊d` are
    /// charged `ERR(d)`.
    ///
    /// Convenience wrapper over [`CostModel::variable_errors_with`] that allocates
    /// a fresh scratch histogram per call.  This is the *reference* path: the
    /// solvers read [`ConflictTable::errors`], which the table's refresh pass
    /// recomputes after every change.
    pub fn variable_errors(&self, values: &[usize], out: &mut Vec<u64>) {
        self.variable_errors_with(values, out, &mut Vec::new());
    }

    /// Allocation-free from-scratch per-variable errors: `scratch` is a reusable
    /// one-row histogram (resized to `2n − 1` and zeroed per row).
    pub fn variable_errors_with(
        &self,
        values: &[usize],
        out: &mut Vec<u64>,
        scratch: &mut Vec<u32>,
    ) {
        let n = values.len();
        out.clear();
        out.resize(n, 0);
        if n < 2 {
            return;
        }
        let width = 2 * n - 1;
        let dmax = self.max_distance(n);
        scratch.clear();
        scratch.resize(width, 0);
        for d in 1..=dmax {
            if d > 1 {
                scratch.iter_mut().for_each(|c| *c = 0);
            }
            let w = self.weight_at(n, d);
            for i in 0..(n - d) {
                let diff = values[i + d] as i64 - values[i] as i64;
                let idx = (diff + (n as i64 - 1)) as usize;
                if scratch[idx] > 0 {
                    out[i] += w;
                    out[i + d] += w;
                }
                scratch[idx] += 1;
            }
        }
    }
}

/// A rotation of the sub-array at positions `lo..=hi` by one cell: left
/// moves `v[lo]` to position `hi` and every other cell down one place, right
/// moves `v[hi]` to position `lo` and every other cell up one place.  The
/// Costas reset's first perturbation family rotates the sub-arrays starting
/// or ending at the most erroneous variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rotation {
    /// First position of the sub-array.
    pub lo: usize,
    /// Last position of the sub-array (inclusive).
    pub hi: usize,
    /// Rotate left (`true`) or right (`false`).
    pub left: bool,
}

impl Rotation {
    /// Rotate `values[lo..=hi]` in place.
    pub fn apply(self, values: &mut [usize]) {
        let cells = &mut values[self.lo..=self.hi];
        if self.left {
            cells.rotate_left(1);
        } else {
            cells.rotate_right(1);
        }
    }
}

/// One permutation under one [`CostModel`], with the cost, the per-position
/// errors and the probe's occupancy masks derived from it, and — only where
/// an event-algebra probe reads it — its conflict histogram.
///
/// `counts[(d−1) * width + diff_index]` stores how many pairs at distance `d`
/// currently have each difference value.  A row with histogram counts
/// `c₁,…,c_k` contributes `ERR(d) · Σ max(cᵢ − 1, 0)` to the global cost,
/// which is exactly the paper's "already encountered" counting.
///
/// # Recompute, don't maintain
///
/// Everything but the counts is recomputed from the values after every
/// change ([`ConflictTable::apply_swap`], [`ConflictTable::reset_to`],
/// [`ConflictTable::rebuild`]) by one *refresh pass*: the cost, the
/// per-position errors under the paper's attribution rule (scanning a row
/// left to right, a pair whose difference was already encountered charges
/// `ERR(d)` to both endpoints) and, where the table keeps them, the
/// occupancy masks.  The pass has two tiers, chosen by CPU feature and order
/// only:
///
/// * **AVX-512 row lanes** (the *vector tier*: x86-64 with AVX-512 F + DQ +
///   BW + VBMI, n ≤ 128): the reset evaluator's lane loop
///   ([`CostModel::global_cost_bounded`]) over the values, one row per
///   lane, with a per-lane "already seen" test whose charged pairs feed the
///   errors (see `kernel::simd`).  No probe body on this tier reads the
///   masks, so the table keeps none.
/// * **Scalar** (every other host, n > 128): one scan of each row's pairs
///   sets each pair's `occ` bit, its `multi` bit when the bucket was already
///   seen in the row, and charges the errors; the cost is each row's pairs
///   beyond its distinct buckets.  It reads only the values and is the
///   reference the vector tier is pinned to by a `debug_assert!` on every
///   refresh and by the kernel suite.
///
/// The counts are kept only where a probe body reads them: the event-algebra
/// tiers (n ≥ 33, and every order off the vector tier), where a swap moves
/// the counts of the ≤ 4·d_max pairs touching the two positions by ±1.  On
/// the **count-free tier** — the vector tier's one-word rows (n ≤ 32,
/// [`ConflictTable::batches_rotations`]) — the probe and the reset's
/// rotations score whole permutations from scratch, so the permutation is
/// the table's whole state: `apply_swap` is a swap plus a refresh,
/// `reset_to` and `rebuild` a refresh, and the read-only oracles
/// ([`ConflictTable::delta_for_swap`], the `_reference` probes,
/// [`ConflictTable::row_cost`]) work from the values.
///
/// The contract — [`ConflictTable::errors`] equals a from-scratch
/// [`CostModel::variable_errors`], and [`ConflictTable::cost`] a from-scratch
/// [`CostModel::global_cost`], after *any* `apply_swap` / `reset_to` /
/// `rebuild` sequence — is enforced by `debug_assert!`s in the apply path and
/// by the property suites.
#[derive(Debug, Clone)]
pub struct ConflictTable {
    model: CostModel,
    pub(crate) n: usize,
    pub(crate) width: usize,
    pub(crate) dmax: usize,
    pub(crate) values: Vec<usize>,
    /// The conflict histogram, kept where `keeps_counts` holds and empty
    /// elsewhere (see the type-level docs).
    pub(crate) counts: Vec<u32>,
    /// Fixed at construction: off on the count-free tier, unless a test
    /// asks for a scalar-tier table there.
    keeps_counts: bool,
    /// Fixed at construction: off on the vector tier
    /// ([`ConflictTable::vector_probe`]), where no body reads the masks,
    /// unless a test asks for a scalar-tier table there.
    keeps_masks: bool,
    /// Derived by the refresh pass: the weighted global cost.
    pub(crate) cost: u64,
    /// Derived by the refresh pass: the per-position errors (paper
    /// attribution rule).
    pub(crate) errors: Vec<u64>,
    /// Words per row of the occupancy bitmasks: `⌈width / 64⌉`.  `1` for n ≤ 32
    /// (the historical single-word layout, bit for bit), `2` for 33 ≤ n ≤ 64,
    /// and so on without bound.
    pub(crate) mask_words: usize,
    /// Per-row occupancy bitmasks, cache-blocked so each row's words are
    /// contiguous: bucket `b` of row `d` lives at word
    /// `(d − 1) · mask_words + (b >> 6)`, bit `b & 63`.  A bit of `occ_mask` is
    /// set iff the bucket holds ≥ 1 pair, of `multi_mask` iff ≥ 2.  The batched
    /// probe kernel ([`crate::kernel`]) reads each candidate's cost delta out of
    /// these words instead of six histogram loads.  Derived by the scalar
    /// refresh pass where `keeps_masks` holds (length `dmax · mask_words`,
    /// so empty only at n = 1, which has no rows) and empty on the vector
    /// tier, whose probe bodies read the values and the counts instead.
    pub(crate) occ_mask: Vec<u64>,
    pub(crate) multi_mask: Vec<u64>,
    /// Reusable scratch for the arbitrary-width (`mask_words ≥ 3`) probe
    /// kernel, behind a `RefCell` so the read-only probe contract (`&self`)
    /// holds without per-call allocation.
    pub(crate) kernel_scratch: std::cell::RefCell<crate::kernel::DynScratch>,
    /// `weights[d]` = `ERR(d)`, precomputed so the apply/probe paths do not
    /// re-evaluate `n² − d²` per touched pair (`weights[0]` unused).
    weights: Vec<u64>,
}

impl ConflictTable {
    /// Build the table for a permutation.
    pub fn new(values: &[usize], model: CostModel) -> Self {
        Self::build(values, model, false)
    }

    /// A table that keeps its counts and masks on every tier, for the tests
    /// that call the scalar bodies directly at orders the vector tier owns.
    #[cfg(test)]
    pub(crate) fn scalar_tier(values: &[usize], model: CostModel) -> Self {
        Self::build(values, model, true)
    }

    fn build(values: &[usize], model: CostModel, scalar_tier: bool) -> Self {
        let n = values.len();
        assert!(n >= 1, "conflict table needs a non-empty permutation");
        let width = if n >= 2 { 2 * n - 1 } else { 1 };
        let dmax = model.max_distance(n);
        let mask_words = width.div_ceil(64);
        let mut table = Self {
            model,
            n,
            width,
            dmax,
            values: values.to_vec(),
            counts: Vec::new(),
            keeps_counts: true,
            keeps_masks: true,
            cost: 0,
            errors: vec![0; n],
            mask_words,
            occ_mask: Vec::new(),
            multi_mask: Vec::new(),
            kernel_scratch: std::cell::RefCell::new(crate::kernel::DynScratch::default()),
            weights: (0..=dmax).map(|d| model.weight_at(n, d.max(1))).collect(),
        };
        table.keeps_counts = scalar_tier || !table.batches_rotations();
        if table.keeps_counts {
            table.counts = vec![0; dmax * width];
        }
        table.keeps_masks = scalar_tier || !table.vector_probe();
        if table.keeps_masks {
            table.occ_mask = vec![0; dmax * mask_words];
            table.multi_mask = vec![0; dmax * mask_words];
        }
        table.rebuild();
        table
    }

    /// Does this table run on its values alone?  True on x86-64 with
    /// AVX-512 F + DQ + BW + VBMI for one-word rows (n ≤ 32): there the probe
    /// scores eight swapped permutations per pass,
    /// [`ConflictTable::rotation_costs`] eight sub-array rotations per pass,
    /// and the table keeps no counts (see the type-level docs).  A property of the order and the CPU only.
    pub fn batches_rotations(&self) -> bool {
        self.mask_words == 1 && self.vector_probe()
    }

    /// Does this table keep its conflict histogram?  Everywhere an
    /// event-algebra probe body may read it.
    pub(crate) fn keeps_counts(&self) -> bool {
        self.keeps_counts
    }

    /// Does this table keep its occupancy masks?  Everywhere a scalar
    /// event-algebra body may read them: off the vector tier.
    pub(crate) fn keeps_masks(&self) -> bool {
        self.keeps_masks
    }

    /// Heap bytes a table of order `n` under `model` holds once its probe
    /// scratch has grown: the buffers [`ConflictTable::new`] allocates plus
    /// the slice-held kernel's scratch rows.  About `4.5 n²` bytes under the
    /// optimised model, nearly all of it the counts.  The counts are charged
    /// even though the count-free tier (n ≤ 32 on AVX-512 hosts) keeps none,
    /// and the masks even though the vector tier (n ≤ 128 there) keeps
    /// none, so the bound does not depend on the CPU; sizing guards derive
    /// the largest admissible order from it.
    pub const fn heap_bytes(n: usize, model: CostModel) -> u128 {
        let dmax = model.max_distance(n);
        let width = if n >= 2 { 2 * n - 1 } else { 1 };
        let words = width.div_ceil(64);
        let (n, dmax, width, words) = (n as u128, dmax as u128, width as u128, words as u128);
        16 * n // values, errors
            + 4 * dmax * width // counts (u32)
            + 8 * (dmax + 1) // weights
            + 16 * dmax * words // occ_mask, multi_mask
            + crate::kernel::DynScratch::heap_bytes(dmax, words)
    }

    /// Precomputed `ERR(d)`.
    #[inline]
    pub(crate) fn weight(&self, d: usize) -> u64 {
        self.weights[d]
    }

    /// Build from a validated [`Permutation`].
    pub fn from_permutation(perm: &Permutation, model: CostModel) -> Self {
        Self::new(perm.values(), model)
    }

    /// Refill the histogram (where the table keeps one) from the stored
    /// permutation and refresh the masks (where it keeps them), the cost and
    /// the per-position errors (O(n·d_max)).
    pub fn rebuild(&mut self) {
        if self.keeps_counts {
            self.counts.iter_mut().for_each(|c| *c = 0);
            for d in 1..=self.dmax {
                for i in 0..(self.n - d) {
                    let idx = self.index(d, i);
                    self.counts[idx] += 1;
                }
            }
        }
        self.refresh();
    }

    /// Recompute the masks (where the table keeps them), the cost and the
    /// per-position errors from the values: the refresh pass every change
    /// ends in.  See the type-level docs for the two tiers.
    fn refresh(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if !self.keeps_masks {
            // SAFETY: a table keeps no masks only on the vector tier, gated
            // on runtime detection of the exact features the row-lane body
            // is compiled for, and n ≤ 128 fits its four occupancy words per
            // lane.
            unsafe { self.refresh_avx512() };
            debug_assert!(
                {
                    let mut reference = self.clone();
                    reference.refresh_scalar();
                    (reference.cost, &reference.errors) == (self.cost, &self.errors)
                },
                "row-lane refresh diverged from the scalar tier"
            );
            return;
        }
        self.refresh_scalar();
    }

    /// Scalar tier of the refresh pass: the portable tier, the n > 128
    /// fallback and the vector tier's reference.  One left-to-right scan of
    /// each row's pairs, reading only the values: a pair whose bucket was
    /// already seen in the row sets the bucket's `multi` bit and is charged;
    /// every pair sets its `occ` bit; the row's cost is its pairs beyond the
    /// distinct buckets.  Where the table keeps no masks (the vector tier,
    /// n ≤ 128, four words per row at most) each row's bits go to a local
    /// buffer instead.
    pub(crate) fn refresh_scalar(&mut self) {
        let (n, words) = (self.n, self.mask_words);
        self.cost = 0;
        self.errors.iter_mut().for_each(|e| *e = 0);
        let (mut occ_row, mut multi_row) = ([0u64; 4], [0u64; 4]);
        for d in 1..=self.dmax {
            let w = self.weights[d];
            let (occ, multi) = if self.keeps_masks {
                let row = (d - 1) * words..d * words;
                (&mut self.occ_mask[row.clone()], &mut self.multi_mask[row])
            } else {
                (&mut occ_row[..words], &mut multi_row[..words])
            };
            occ.iter_mut().for_each(|o| *o = 0);
            multi.iter_mut().for_each(|m| *m = 0);
            for i in 0..(n - d) {
                let b = self.values[i + d] + (n - 1) - self.values[i];
                let (word, bit) = (b >> 6, b & 63);
                let seen = (occ[word] >> bit) & 1;
                multi[word] |= seen << bit;
                occ[word] |= 1 << bit;
                let charge = w * seen;
                self.errors[i] += charge;
                self.errors[i + d] += charge;
            }
            // Row d has n − d pairs; each beyond its bucket's first repeats.
            let distinct: u32 = occ.iter().map(|o| o.count_ones()).sum();
            self.cost += w * ((n - d) as u64 - u64::from(distinct));
        }
    }

    #[inline]
    fn diff_index(&self, d: usize, diff: i64) -> usize {
        (d - 1) * self.width + (diff + (self.n as i64 - 1)) as usize
    }

    #[inline]
    fn index(&self, d: usize, i: usize) -> usize {
        let diff = self.values[i + d] as i64 - self.values[i] as i64;
        self.diff_index(d, diff)
    }

    /// Replace the current permutation (same order) and rebuild.
    pub fn reset_to(&mut self, values: &[usize]) {
        assert_eq!(values.len(), self.n, "order mismatch in reset_to");
        self.values.copy_from_slice(values);
        self.rebuild();
    }

    /// Current permutation values.
    pub fn values(&self) -> &[usize] {
        &self.values
    }

    /// Current weighted global cost.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Order of the permutation.
    pub fn order(&self) -> usize {
        self.n
    }

    /// The cost model in use.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Is the current configuration a solution under this model?
    ///
    /// Note: with [`RowSpan::ChangHalf`] a zero cost already implies the full Costas
    /// property (Chang 1987), which the integration tests double-check against the
    /// naive oracle.
    pub fn is_solution(&self) -> bool {
        self.cost == 0
    }

    /// Per-variable errors of the current configuration (paper attribution rule).
    ///
    /// A copy of the vector the last refresh pass computed — O(n), no
    /// histogram sweep, no allocation beyond the caller's buffer.  Prefer
    /// [`ConflictTable::errors`] when a borrowed view is enough.
    pub fn variable_errors(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.errors);
    }

    /// Borrowed view of the per-position errors, recomputed by the refresh
    /// pass after every change.
    ///
    /// Contract: after any sequence of [`ConflictTable::apply_swap`] /
    /// [`ConflictTable::reset_to`] / [`ConflictTable::rebuild`], this equals
    /// exactly what [`CostModel::variable_errors`] recomputes from scratch.
    pub fn errors(&self) -> &[u64] {
        &self.errors
    }

    /// Move the counts of every pair touching position `i` or `j` (`i < j`)
    /// by `delta` (`1`, or `u32::MAX` for −1), each pair once: the set depends
    /// only on `i`, `j`, the order and the scored span, not on the values, so
    /// [`ConflictTable::apply_swap`] walks it once before and once after the
    /// swap.  A pair touching both positions (`j − i ≤ d_max`) is visited
    /// once thanks to the `j − d != i` guard.
    #[inline]
    fn shift_touched_counts(&mut self, i: usize, j: usize, delta: u32) {
        let n = self.n;
        for d in 1..=self.dmax {
            let lefts = [
                (i >= d).then(|| i - d),
                (i + d < n).then_some(i),
                (j >= d && j - d != i).then(|| j - d),
                (j + d < n).then_some(j),
            ];
            for l in lefts.into_iter().flatten() {
                let idx = self.index(d, l);
                self.counts[idx] = self.counts[idx].wrapping_add(delta);
            }
        }
    }

    /// Apply a swap of positions `i` and `j`, allocation-free: where the
    /// table keeps counts, those of the ≤ 4·d_max touched pairs move by ±1;
    /// then one refresh pass recomputes the masks, the cost and the
    /// per-position errors (see the type-level docs).  No-op when `i == j`.
    pub fn apply_swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        if self.keeps_counts {
            self.shift_touched_counts(i, j, u32::MAX);
            self.values.swap(i, j);
            self.shift_touched_counts(i, j, 1);
        } else {
            self.values.swap(i, j);
        }
        self.refresh();
        debug_assert!(
            self.consistency_check(),
            "refreshed cost diverged from the from-scratch cost after swap ({i}, {j})"
        );
        debug_assert!(
            self.errors_consistency_check(),
            "refreshed error vector diverged from the from-scratch recompute \
             after swap ({i}, {j})"
        );
    }

    /// Value sitting at position `p` once positions `i` and `j` are swapped,
    /// without performing the swap.
    #[inline]
    fn value_after_swap(&self, p: usize, i: usize, j: usize) -> i64 {
        let q = if p == i {
            j
        } else if p == j {
            i
        } else {
            p
        };
        self.values[q] as i64
    }

    /// Signed change in global cost a swap of positions `i` and `j` would cause,
    /// computed **read-only** (`&self`, no mutation, allocation-free).
    ///
    /// Where the table keeps counts this is O(d_max): the affected pairs are
    /// the same set [`ConflictTable::apply_swap`] walks, but instead of
    /// mutating the histogram twice the net count change of every touched
    /// bucket is gathered first (a bucket can be hit by several of the ≤ 4
    /// affected pairs per distance) and the weighted cost difference
    /// `ERR(d) · (max(c′ − 1, 0) − max(c − 1, 0))` is summed per distinct
    /// bucket.  On the count-free tier (n ≤ 32) the swapped permutation is
    /// copied to the stack and scored from scratch, one `u64` bitset per row.
    pub fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        if i == j || self.n < 2 {
            return 0;
        }
        if !self.keeps_counts {
            let mut swapped = [0usize; 32];
            let swapped = &mut swapped[..self.n];
            swapped.copy_from_slice(&self.values);
            swapped.swap(i, j);
            return self.one_word_cost(swapped) as i64 - self.cost as i64;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let mut delta = 0i64;
        for d in 1..=self.dmax {
            // Touched buckets at this distance with their net count change: at
            // most 4 affected pairs, each removing one difference and adding one.
            let mut touched = BucketMerge::<8>::new();
            let lefts = [
                (i >= d).then(|| i - d),
                (i + d < self.n).then_some(i),
                (j >= d && j - d != i).then(|| j - d),
                (j + d < self.n).then_some(j),
            ];
            for l in lefts.into_iter().flatten() {
                let r = l + d;
                let old = self.values[r] as i64 - self.values[l] as i64;
                let new = self.value_after_swap(r, i, j) - self.value_after_swap(l, i, j);
                if old != new {
                    touched.push(self.diff_index(d, old), -1);
                    touched.push(self.diff_index(d, new), 1);
                }
            }
            let w = self.weight(d) as i64;
            for (idx, net) in touched.nets() {
                let c = i64::from(self.counts[idx]);
                delta += w * ((c + net - 1).max(0) - (c - 1).max(0));
            }
        }
        delta
    }

    /// From-scratch cost of a permutation of this table's order n ≤ 32, one
    /// `u64` bitset per row (the row's `2n − 1 ≤ 63` buckets fit one word):
    /// a row's repeats are its pairs beyond its distinct buckets.
    fn one_word_cost(&self, values: &[usize]) -> u64 {
        let n = values.len();
        debug_assert!(n == self.n && self.mask_words == 1);
        (1..=self.dmax)
            .map(|d| {
                let seen = (0..n - d).fold(0u64, |seen, i| {
                    seen | 1 << (values[i + d] + (n - 1) - values[i])
                });
                self.weights[d] * ((n - d) as u64 - u64::from(seen.count_ones()))
            })
            .sum()
    }

    /// Exact costs of sub-array rotations of the current permutation:
    /// `out[k]` is the cost after applying `rotations[k]`.  Read-only.
    ///
    /// On the count-free tier ([`ConflictTable::batches_rotations`]) an
    /// AVX-512 body scores eight rotations per pass without building any of
    /// them, allocation-free (see `kernel::simd`).  Elsewhere each rotation
    /// is materialised and scored by [`CostModel::global_cost_with`]; the
    /// Costas reset does not call it there, but advances its candidates by
    /// transpositions and scores them with the bounded evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `rotations` or a rotation does not
    /// satisfy `lo ≤ hi < n`.
    pub fn rotation_costs(&self, rotations: &[Rotation], out: &mut [u64]) {
        assert!(out.len() >= rotations.len(), "rotation output too short");
        for r in rotations {
            assert!(
                r.lo <= r.hi && r.hi < self.n,
                "rotation {r:?} out of range for order {}",
                self.n
            );
        }
        #[cfg(target_arch = "x86_64")]
        if self.batches_rotations() {
            // SAFETY: `batches_rotations` detected the exact features the
            // body is compiled for (AVX-512 F + DQ + BW + VBMI), and the rows
            // hold one word.
            unsafe { self.rotation_body_avx512(rotations, out) };
            debug_assert!(
                rotations.iter().zip(&*out).all(|(r, &cost)| {
                    let mut rotated = self.values.clone();
                    r.apply(&mut rotated);
                    cost == self.model.global_cost(&rotated)
                }),
                "batched rotation costs diverged from the from-scratch cost"
            );
            return;
        }
        let (mut rotated, mut scratch) = (self.values.clone(), Vec::new());
        for (r, cost) in rotations.iter().zip(out) {
            rotated.copy_from_slice(&self.values);
            r.apply(&mut rotated);
            *cost = self.model.global_cost_with(&rotated, &mut scratch);
        }
    }

    /// Batched read-only probe: write into `out[j]` the global cost the configuration
    /// would have after swapping `culprit` with `j`, for every position `j`
    /// (`out[culprit]` is the current cost).  Pure: `&self`, no observable mutation,
    /// no allocation beyond the caller's `out` buffer.
    ///
    /// The "remove the culprit's pairs" half of the work — the ≤ 2 pairs per distance
    /// that touch `culprit` lose their current difference whatever the partner is —
    /// is hoisted out of the per-candidate loop: it is evaluated once per distance,
    /// and the per-candidate pass only scores the re-added culprit differences plus
    /// the candidate's own pairs against that precomputed baseline.
    ///
    /// Candidates are scored by the probe kernels in [`crate::kernel`], in
    /// three tiers chosen by CPU feature and row width (one mask word per row
    /// for n ≤ 32, two for n ≤ 64, and so on):
    ///
    /// * on x86-64 with AVX-512 F + DQ + BW + VBMI, n ≤ 32: a from-scratch
    ///   body that scores eight swapped permutations per pass;
    /// * on x86-64 with AVX-512 F + DQ + BW + VBMI, 33 ≤ n ≤ 128: a byte-lane
    ///   event-algebra body, 64 candidates per pass, one per byte lane,
    ///   reading exact counts by byte-table lookups;
    /// * elsewhere (other CPUs, n > 128): the scalar event-algebra bodies,
    ///   monomorphized per row width for n ≤ 64 and slice-walking beyond.
    ///
    /// The plain histogram path, which builds each row's histogram from the
    /// values, is retained as the reference implementation behind
    /// [`ConflictTable::probe_partners_reference`], and `debug_assert!` pins
    /// the kernels to it on every call.
    pub fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        self.probe_partners_range(culprit, 0, out);
    }

    /// Like [`ConflictTable::probe_partners`] but only fills `out[j]` for
    /// `j > culprit`; entries at and below `culprit` hold the current cost.
    ///
    /// This is the upper-triangle variant for solvers that sweep every unordered
    /// pair (the quadratic tabu baseline): probing only the partners above the row
    /// index halves the sweep's probe work.
    pub fn probe_partners_above(&self, culprit: usize, out: &mut Vec<u64>) {
        self.probe_partners_range(culprit, culprit + 1, out);
    }

    /// Scalar **reference implementation** of [`ConflictTable::probe_partners`]:
    /// same contract, bit-for-bit the same results, but always scoring candidates
    /// one at a time against a difference histogram it builds from the values
    /// on each call — never a mask-based kernel, never the table's counts.
    /// The kernel-equivalence conformance properties and the hot-path
    /// `debug_assert!`s pin the accelerated probes to this path.
    pub fn probe_partners_reference(&self, culprit: usize, out: &mut Vec<u64>) {
        self.probe_reference_range(culprit, 0, out);
    }

    /// Scalar reference for [`ConflictTable::probe_partners_above`].
    pub fn probe_partners_above_reference(&self, culprit: usize, out: &mut Vec<u64>) {
        self.probe_reference_range(culprit, culprit + 1, out);
    }

    /// Reference-path prologue shared by the `_reference` probes.
    fn probe_reference_range(&self, m: usize, lo_bound: usize, out: &mut Vec<u64>) {
        let n = self.n;
        assert!(m < n, "culprit {m} out of range for order {n}");
        out.clear();
        out.resize(n, self.cost);
        if n < 2 || lo_bound >= n {
            return;
        }
        self.probe_range_generic(m, lo_bound, out);
    }

    /// Dispatched implementation: fill `out[j]` for `j in lo..n`, `j != m`,
    /// by the tiers listed on [`ConflictTable::probe_partners`].  The row
    /// width is a property of the order, so the choice needs no setting.
    /// Both `debug_assert!`s pin the dispatched path to an independent
    /// implementation on every call: the flat-histogram reference and the
    /// per-pair `delta_for_swap` oracle.
    fn probe_partners_range(&self, m: usize, lo_bound: usize, out: &mut Vec<u64>) {
        let n = self.n;
        assert!(m < n, "culprit {m} out of range for order {n}");
        out.clear();
        out.resize(n, self.cost);
        if n < 2 || lo_bound >= n {
            return;
        }
        let vector = self.vector_probe();
        match self.mask_words {
            // SAFETY: `vector_probe` detected the exact features the bodies
            // are compiled for (AVX-512 F + DQ + BW + VBMI); the rows hold
            // one word, or two to four (n ≤ 128).
            #[cfg(target_arch = "x86_64")]
            1 if vector => unsafe { self.probe_body_avx512_scratch(m, lo_bound, out) },
            #[cfg(target_arch = "x86_64")]
            2..=4 if vector => unsafe { self.probe_body_avx512_bytes(m, lo_bound, out) },
            // dmax ≤ n − 1, and the row capacity R only needs to cover the
            // largest order of each width class: n ≤ 32 for one word per row
            // (u64), n ≤ 64 for two (packed into one u128).
            1 => self.probe_range_masked::<u64, 32>(m, lo_bound, out),
            2 => self.probe_range_masked::<u128, 64>(m, lo_bound, out),
            _ => self.probe_range_masked_dyn(m, lo_bound, out),
        }
        debug_assert!(
            {
                let mut reference = Vec::new();
                self.probe_reference_range(m, lo_bound, &mut reference);
                reference == *out
            },
            "batched probe diverged from probe_partners_reference (culprit {m})"
        );
        debug_assert!(
            out.iter().enumerate().all(|(j, &c)| {
                let expected = if j >= lo_bound && j != m {
                    (self.cost as i64 + self.delta_for_swap(m, j)) as u64
                } else {
                    self.cost
                };
                c == expected
            }),
            "batched probe diverged from the per-pair delta path (culprit {m})"
        );
    }

    /// Generic probe body (any order), the body of the `_reference` probes:
    /// baseline counts are read from a histogram of each row built from the
    /// values, with the culprit-vacated buckets patched via two scalars.
    fn probe_range_generic(&self, m: usize, lo_bound: usize, out: &mut [u64]) {
        let n = self.n;
        let vm = self.values[m] as i64;
        let values = &self.values[..];
        let mut counts = Vec::new();
        let bucket = |diff: i64| (diff + (n as i64 - 1)) as usize;
        // One accumulator reused across every candidate of the batch (cleared per
        // candidate): constructing it inside the loop would re-zero its storage
        // for each of the n − 1 candidates.
        let mut touched = BucketMerge::<6>::new();
        for d in 1..=self.dmax {
            let w = self.weight(d) as i64;
            self.row_histogram(d, &mut counts);
            let counts = &counts[..];
            // Hoisted per-distance removal: the culprit pairs (m − d, m) and
            // (m, m + d) lose their current differences whatever the partner is.
            let left_other = (m >= d).then(|| values[m - d] as i64);
            let right_other = (m + d < n).then(|| values[m + d] as i64);
            // Buckets vacated by the culprit (the two pairs can share one), kept
            // as two scalars so the per-candidate baseline is branch-free:
            // baseline(idx) = counts[idx] − a0·[idx = r0] − a1·[idx = r1].
            let mut removed = BucketMerge::<2>::new();
            if let Some(lo) = left_other {
                removed.push(bucket(vm - lo), 1);
            }
            if let Some(ro) = right_other {
                removed.push(bucket(ro - vm), 1);
            }
            let (mut r0, mut a0, mut r1, mut a1) = (usize::MAX, 0i64, usize::MAX, 0i64);
            let mut removal_delta = 0i64;
            for (slot, (r, a)) in removed
                .entries_mut()
                .iter()
                .zip([(&mut r0, &mut a0), (&mut r1, &mut a1)])
            {
                let c = i64::from(counts[slot.0]);
                removal_delta += w * ((c - slot.1 - 1).max(0) - (c - 1).max(0));
                *r = slot.0;
                *a = slot.1;
            }
            // Baseline count for a bucket: the histogram with the culprit's old
            // pairs already removed.
            let baseline = |idx: usize| -> i64 {
                i64::from(counts[idx]) - a0 * i64::from(idx == r0) - a1 * i64::from(idx == r1)
            };
            let m_minus_d = m.wrapping_sub(d);
            let m_plus_d = m + d;
            for (j, out_slot) in out.iter_mut().enumerate().skip(lo_bound) {
                if j == m {
                    continue;
                }
                let vj = values[j] as i64;
                let mut delta = removal_delta;
                // The candidate cells where a culprit pair and a candidate pair
                // are the same pair (j = m ± d) take the generic merge path below.
                if j != m_minus_d && j != m_plus_d {
                    // Fast path: ≤ 6 single-count events — culprit re-additions
                    // k1/k2 (+1) and candidate-pair moves o→n (−1, +1).  When all
                    // touched buckets are pairwise distinct, each event scores
                    // independently against its baseline `b`: +1 adds w·[b ≥ 1],
                    // −1 subtracts w·[b ≥ 2].  (o = n is impossible: v_j ≠ v_m.)
                    let mut collide = false;
                    let (mut k1, mut k2) = (usize::MAX, usize::MAX);
                    if let Some(lo) = left_other {
                        k1 = bucket(vj - lo);
                    }
                    if let Some(ro) = right_other {
                        k2 = bucket(ro - vj);
                        collide |= k1 == k2;
                    }
                    let (mut o1, mut n1) = (usize::MAX, usize::MAX);
                    let has_left = j >= d;
                    if has_left {
                        let vl = values[j - d] as i64;
                        o1 = bucket(vj - vl);
                        n1 = bucket(vm - vl);
                        collide |= (k1 == o1) | (k1 == n1) | (k2 == o1) | (k2 == n1);
                    }
                    let has_right = j + d < n;
                    if has_right {
                        let vr = values[j + d] as i64;
                        let o2 = bucket(vr - vj);
                        let n2 = bucket(vr - vm);
                        collide |= (k1 == o2) | (k1 == n2) | (k2 == o2) | (k2 == n2);
                        collide |= (o1 == o2) | (o1 == n2) | (n1 == o2) | (n1 == n2);
                        if !collide {
                            delta +=
                                w * (i64::from(baseline(n2) >= 1) - i64::from(baseline(o2) >= 2));
                        }
                    }
                    if !collide {
                        if k1 != usize::MAX {
                            delta += w * i64::from(baseline(k1) >= 1);
                        }
                        if k2 != usize::MAX {
                            delta += w * i64::from(baseline(k2) >= 1);
                        }
                        if has_left {
                            delta +=
                                w * (i64::from(baseline(n1) >= 1) - i64::from(baseline(o1) >= 2));
                        }
                        *out_slot = out_slot.wrapping_add_signed(delta);
                        continue;
                    }
                    delta = removal_delta;
                }
                // Generic path (culprit-neighbour cells and the rare bucket
                // collisions): merge nets per bucket and score each distinct
                // bucket once.  ≤ 2 culprit re-additions + ≤ 2 pairs × 2 entries.
                touched.clear();
                // Culprit pair (m − d, m): position m now holds v_j; the left
                // neighbour is v_m instead when the candidate *is* that neighbour.
                if let Some(lo) = left_other {
                    let lo = if m_minus_d == j { vm } else { lo };
                    touched.push(bucket(vj - lo), 1);
                }
                // Culprit pair (m, m + d), mirrored.
                if let Some(ro) = right_other {
                    let ro = if m_plus_d == j { vm } else { ro };
                    touched.push(bucket(ro - vj), 1);
                }
                // Candidate pair (j − d, j) — unless it touches the culprit, in
                // which case it is one of the culprit pairs handled above.
                if j >= d && j - d != m {
                    let lo = values[j - d] as i64;
                    let (old, new) = (vj - lo, vm - lo);
                    if old != new {
                        touched.push(bucket(old), -1);
                        touched.push(bucket(new), 1);
                    }
                }
                // Candidate pair (j, j + d), mirrored.
                if j + d < n && j + d != m {
                    let ro = values[j + d] as i64;
                    let (old, new) = (ro - vj, ro - vm);
                    if old != new {
                        touched.push(bucket(old), -1);
                        touched.push(bucket(new), 1);
                    }
                }
                for (idx, net) in touched.nets() {
                    let b = baseline(idx);
                    delta += w * ((b + net - 1).max(0) - (b - 1).max(0));
                }
                *out_slot = out_slot.wrapping_add_signed(delta);
            }
        }
    }

    /// Cost the configuration would have after swapping positions `i` and `j`,
    /// without changing the current configuration.
    ///
    /// Thin compatibility wrapper over [`ConflictTable::delta_for_swap`]; solvers
    /// should prefer the delta/batched probes directly.  Under `debug_assertions`
    /// the prediction is cross-checked against the mutating apply/un-apply path.
    pub fn cost_after_swap(&mut self, i: usize, j: usize) -> u64 {
        let predicted = (self.cost as i64 + self.delta_for_swap(i, j)) as u64;
        #[cfg(debug_assertions)]
        {
            self.apply_swap(i, j);
            let actual = self.cost;
            self.apply_swap(i, j);
            debug_assert_eq!(
                actual, predicted,
                "delta path diverged from the apply path for swap ({i}, {j})"
            );
        }
        predicted
    }

    /// Weighted cost contributed by row `d` of the current difference triangle
    /// (`Σ ERR(d)·max(c − 1, 0)` over the row's histogram buckets, built from
    /// the values on each call).
    ///
    /// Diagnostic/decomposition helper: the rows contribute to
    /// [`ConflictTable::cost`] independently, so `Σ_d row_cost(d)` equals the
    /// global cost exactly.
    ///
    /// # Panics
    /// Panics if `d` is outside `1..=max_distance`.
    pub fn row_cost(&self, d: usize) -> u64 {
        assert!((1..=self.dmax).contains(&d), "row {d} is not scored");
        let w = self.weight(d);
        let mut counts = Vec::new();
        self.row_histogram(d, &mut counts);
        counts
            .iter()
            .map(|&c| w * u64::from(c.saturating_sub(1)))
            .sum()
    }

    /// Row `d`'s histogram of bucket counts (`2n − 1` buckets), built from
    /// the values into `counts` — what the read-only oracles read instead of
    /// the table's maintained counts.
    fn row_histogram(&self, d: usize, counts: &mut Vec<u32>) {
        let n = self.n;
        counts.clear();
        counts.resize(self.width, 0);
        for i in 0..n - d {
            counts[self.values[i + d] + (n - 1) - self.values[i]] += 1;
        }
    }

    /// Debug helper: recompute the cost from scratch and compare with the running
    /// value.  Used by tests and `debug_assert!`s in the engine.
    pub fn consistency_check(&self) -> bool {
        self.model.global_cost(&self.values) == self.cost
    }

    /// Debug helper: recompute the per-position errors from scratch and compare
    /// with the refreshed vector.  Used by tests and the `debug_assert!` in
    /// [`ConflictTable::apply_swap`].
    pub fn errors_consistency_check(&self) -> bool {
        let mut expected = Vec::new();
        self.model.variable_errors(&self.values, &mut expected);
        expected == self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::{default_rng, random_permutation, RandExt};

    fn one_based(mut p: Vec<usize>) -> Vec<usize> {
        p.iter_mut().for_each(|v| *v += 1);
        p
    }

    #[test]
    fn weights_match_definitions() {
        assert_eq!(ErrWeight::Unit.weight(10, 3), 1);
        assert_eq!(ErrWeight::Quadratic.weight(10, 3), 91);
        assert_eq!(ErrWeight::Quadratic.weight(5, 1), 24);
    }

    #[test]
    fn row_span_bounds() {
        assert_eq!(RowSpan::Full.max_distance(10), 9);
        assert_eq!(RowSpan::ChangHalf.max_distance(10), 4);
        assert_eq!(RowSpan::ChangHalf.max_distance(11), 5);
        assert_eq!(RowSpan::ChangHalf.max_distance(5), 2);
        assert_eq!(RowSpan::ChangHalf.max_distance(2), 1);
        assert_eq!(RowSpan::ChangHalf.max_distance(1), 0);
        assert_eq!(RowSpan::Full.max_distance(1), 0);
    }

    #[test]
    fn cost_zero_iff_costas_for_both_models() {
        let costas = [3usize, 4, 2, 1, 5];
        let not_costas = [1usize, 2, 3, 4, 5];
        for model in [CostModel::basic(), CostModel::optimized()] {
            assert_eq!(model.global_cost(&costas), 0);
            assert!(model.global_cost(&not_costas) > 0);
        }
    }

    #[test]
    fn basic_model_cost_counts_violations() {
        // identity of order 5: full-triangle violations = 6 (see triangle tests)
        let model = CostModel::basic();
        assert_eq!(model.global_cost(&[1, 2, 3, 4, 5]), 6);
    }

    #[test]
    fn chang_half_zero_implies_full_costas_exhaustively_small_n() {
        // Chang's theorem: no repeats for d ≤ ⌊(n−1)/2⌋ ⟹ Costas.  Verify exhaustively
        // for n ≤ 7 by comparing the two spans on every permutation.
        use crate::check::is_costas_permutation;
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            fn rec(cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
                let n = used.len();
                if cur.len() == n {
                    out.push(cur.clone());
                    return;
                }
                for v in 1..=n {
                    if !used[v - 1] {
                        used[v - 1] = true;
                        cur.push(v);
                        rec(cur, used, out);
                        cur.pop();
                        used[v - 1] = false;
                    }
                }
            }
            let mut out = Vec::new();
            rec(&mut Vec::new(), &mut vec![false; n], &mut out);
            out
        }
        let half = CostModel {
            weight: ErrWeight::Unit,
            span: RowSpan::ChangHalf,
        };
        for n in 2..=7 {
            for p in permutations(n) {
                let zero_half = half.global_cost(&p) == 0;
                assert_eq!(zero_half, is_costas_permutation(&p), "n={n} p={p:?}");
            }
        }
    }

    #[test]
    fn variable_errors_sum_is_twice_unit_cost() {
        // With ERR(d) = 1, each conflict charges both endpoints once, so the sum of
        // variable errors equals 2 × (number of conflicts) = 2 × global cost.
        let model = CostModel::basic();
        let mut errs = Vec::new();
        for perm in [
            vec![1usize, 2, 3, 4, 5, 6],
            vec![2, 4, 6, 1, 3, 5],
            vec![6, 5, 4, 3, 2, 1],
        ] {
            model.variable_errors(&perm, &mut errs);
            let total: u64 = errs.iter().sum();
            assert_eq!(total, 2 * model.global_cost(&perm), "{perm:?}");
        }
    }

    #[test]
    fn conflict_table_matches_scratch_cost() {
        let mut rng = default_rng(42);
        for n in [2usize, 3, 5, 8, 13, 19] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                for _ in 0..20 {
                    let p = one_based(random_permutation(n, &mut rng));
                    let table = ConflictTable::new(&p, model);
                    assert_eq!(table.cost(), model.global_cost(&p), "n={n} {p:?}");
                    assert!(table.consistency_check());
                }
            }
        }
    }

    #[test]
    fn apply_swap_keeps_cost_consistent() {
        let mut rng = default_rng(7);
        for n in [4usize, 7, 12, 18] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let mut table = ConflictTable::new(&p, model);
                for _ in 0..200 {
                    let i = rng.index(n);
                    let j = rng.index(n);
                    table.apply_swap(i, j);
                    assert!(
                        table.consistency_check(),
                        "n={n} model={model:?} after swapping {i},{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn cost_after_swap_is_side_effect_free() {
        let mut rng = default_rng(9);
        let n = 15;
        let p = one_based(random_permutation(n, &mut rng));
        let mut table = ConflictTable::new(&p, CostModel::optimized());
        let before_values = table.values().to_vec();
        let before_cost = table.cost();
        for _ in 0..100 {
            let i = rng.index(n);
            let j = rng.index(n);
            let predicted = table.cost_after_swap(i, j);
            assert_eq!(table.values(), &before_values[..]);
            assert_eq!(table.cost(), before_cost);
            // and the prediction matches actually doing it
            let mut copy = table.clone();
            copy.apply_swap(i, j);
            assert_eq!(copy.cost(), predicted);
        }
    }

    #[test]
    fn delta_for_swap_matches_apply_path() {
        let mut rng = default_rng(13);
        for n in [2usize, 3, 5, 9, 14, 21] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let table = ConflictTable::new(&p, model);
                for i in 0..n {
                    for j in 0..n {
                        let mut copy = table.clone();
                        copy.apply_swap(i, j);
                        assert_eq!(
                            table.cost() as i64 + table.delta_for_swap(i, j),
                            copy.cost() as i64,
                            "n={n} model={model:?} swap ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delta_for_swap_is_read_only_and_symmetric() {
        let p = one_based(random_permutation(16, &mut default_rng(21)));
        let table = ConflictTable::new(&p, CostModel::optimized());
        let before_values = table.values().to_vec();
        let before_cost = table.cost();
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(table.delta_for_swap(i, j), table.delta_for_swap(j, i));
            }
        }
        assert_eq!(table.values(), &before_values[..]);
        assert_eq!(table.cost(), before_cost);
        assert!(table.consistency_check());
    }

    #[test]
    fn probe_partners_matches_per_pair_deltas() {
        let mut rng = default_rng(31);
        let mut out = Vec::new();
        for n in [1usize, 2, 4, 7, 13, 19] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let table = ConflictTable::new(&p, model);
                for culprit in 0..n {
                    table.probe_partners(culprit, &mut out);
                    assert_eq!(out.len(), n);
                    assert_eq!(out[culprit], table.cost());
                    for (j, &probed) in out.iter().enumerate() {
                        let mut copy = table.clone();
                        copy.apply_swap(culprit, j);
                        assert_eq!(
                            probed,
                            copy.cost(),
                            "n={n} model={model:?} ({culprit}, {j})"
                        );
                    }
                }
                assert_eq!(table.values(), &p[..], "probe must not mutate");
            }
        }
    }

    #[test]
    fn probe_partners_above_fills_only_the_upper_triangle() {
        let mut rng = default_rng(47);
        let mut full = Vec::new();
        let mut upper = Vec::new();
        for n in [2usize, 5, 11, 16] {
            let p = one_based(random_permutation(n, &mut rng));
            let table = ConflictTable::new(&p, CostModel::optimized());
            for culprit in 0..n {
                table.probe_partners(culprit, &mut full);
                table.probe_partners_above(culprit, &mut upper);
                for j in 0..n {
                    if j > culprit {
                        assert_eq!(upper[j], full[j], "n={n} ({culprit}, {j})");
                    } else {
                        assert_eq!(upper[j], table.cost(), "n={n} ({culprit}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn probe_agrees_with_apply_for_large_orders() {
        // Orders with 2n − 1 > 63 take the multi-word kernel; the reference
        // probe covers the generic histogram body.  Both are checked against
        // the mutating apply path here.
        type Probe = fn(&ConflictTable, usize, &mut Vec<u64>);
        let probes: [(&str, Probe); 2] = [
            ("kernel", ConflictTable::probe_partners),
            ("generic", ConflictTable::probe_partners_reference),
        ];
        let mut rng = default_rng(103);
        let mut out = Vec::new();
        for n in [33usize, 40] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let table = ConflictTable::new(&p, model);
                for (name, probe) in probes {
                    for culprit in 0..n {
                        probe(&table, culprit, &mut out);
                        for (j, &probed) in out.iter().enumerate() {
                            let mut copy = table.clone();
                            copy.apply_swap(culprit, j);
                            assert_eq!(
                                probed,
                                copy.cost(),
                                "{name} n={n} model={model:?} ({culprit}, {j})"
                            );
                        }
                    }
                }
                assert_eq!(table.values(), &p[..], "probe must not mutate");
                assert!(table.errors_consistency_check());
            }
        }
    }

    #[test]
    fn swap_with_self_is_noop() {
        let p = [3usize, 4, 2, 1, 5];
        let mut table = ConflictTable::new(&p, CostModel::optimized());
        let c = table.cost();
        table.apply_swap(2, 2);
        assert_eq!(table.cost(), c);
        assert_eq!(table.values(), &p);
    }

    #[test]
    fn reset_to_rebuilds() {
        let mut table = ConflictTable::new(&[1, 2, 3, 4, 5], CostModel::optimized());
        assert!(table.cost() > 0);
        table.reset_to(&[3, 4, 2, 1, 5]);
        assert_eq!(table.cost(), 0);
        assert!(table.is_solution());
    }

    #[test]
    fn order_one_table_is_trivially_solved() {
        let table = ConflictTable::new(&[1], CostModel::optimized());
        assert_eq!(table.cost(), 0);
        assert!(table.is_solution());
    }

    #[test]
    fn scratch_variants_agree_with_the_allocating_api() {
        let mut rng = default_rng(57);
        let mut scratch = Vec::new();
        let mut errs = Vec::new();
        let mut errs_with = Vec::new();
        for n in [1usize, 2, 5, 11, 18] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                for _ in 0..10 {
                    let p = one_based(random_permutation(n, &mut rng));
                    assert_eq!(
                        model.global_cost(&p),
                        model.global_cost_with(&p, &mut scratch),
                        "n={n} {p:?}"
                    );
                    model.variable_errors(&p, &mut errs);
                    model.variable_errors_with(&p, &mut errs_with, &mut scratch);
                    assert_eq!(errs, errs_with, "n={n} {p:?}");
                }
            }
        }
    }

    #[test]
    fn maintained_errors_match_scratch_after_construction() {
        let mut rng = default_rng(61);
        let mut expected = Vec::new();
        let mut copied = Vec::new();
        for n in [1usize, 2, 4, 9, 15, 20] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let table = ConflictTable::new(&p, model);
                model.variable_errors(&p, &mut expected);
                assert_eq!(table.errors(), &expected[..], "n={n} {p:?}");
                table.variable_errors(&mut copied);
                assert_eq!(copied, expected);
            }
        }
    }

    #[test]
    fn maintained_errors_survive_swap_and_reset_sequences() {
        let mut rng = default_rng(71);
        let mut expected = Vec::new();
        let mut scratch = Vec::new();
        for n in [2usize, 5, 9, 14, 19] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let mut table = ConflictTable::new(&p, model);
                for step in 0..150 {
                    if step % 37 == 36 {
                        let fresh = one_based(random_permutation(n, &mut rng));
                        table.reset_to(&fresh);
                    } else {
                        table.apply_swap(rng.index(n), rng.index(n));
                    }
                    model.variable_errors_with(table.values(), &mut expected, &mut scratch);
                    assert_eq!(
                        table.errors(),
                        &expected[..],
                        "n={n} model={model:?} step={step}"
                    );
                }
            }
        }
    }

    #[test]
    fn maintained_errors_sum_is_twice_unit_cost() {
        let mut rng = default_rng(83);
        let n = 16;
        let p = one_based(random_permutation(n, &mut rng));
        let mut table = ConflictTable::new(&p, CostModel::basic());
        for _ in 0..100 {
            table.apply_swap(rng.index(n), rng.index(n));
            assert_eq!(table.errors().iter().sum::<u64>(), 2 * table.cost());
        }
    }

    #[test]
    fn row_cost_decomposes_the_global_cost() {
        let mut rng = default_rng(91);
        for n in [2usize, 5, 11, 17] {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let table = ConflictTable::new(&p, model);
                let dmax = model.max_distance(n);
                let total: u64 = (1..=dmax).map(|d| table.row_cost(d)).sum();
                assert_eq!(total, table.cost(), "n={n} model={model:?}");
            }
        }
    }

    #[test]
    fn count_free_table_matches_from_scratch_oracles() {
        // Along seeded swap and `reset_to` walks, every read-only oracle of a
        // table without counts (n ≤ 32 on AVX-512 hosts) equals a
        // from-scratch computation on its values: the cost, the errors, each
        // row's cost, `delta_for_swap` and the reference probe for every
        // pair.  Elsewhere the same checks run on the counts-keeping table.
        let mut rng = default_rng(0xC0_4E7F);
        let (mut count_free, mut tables) = (0, 0);
        let (mut errors, mut probed) = (Vec::new(), Vec::new());
        for n in 2..=32usize {
            for model in [CostModel::basic(), CostModel::optimized()] {
                let p = one_based(random_permutation(n, &mut rng));
                let mut table = ConflictTable::new(&p, model);
                tables += 1;
                count_free += usize::from(!table.keeps_counts());
                for step in 0..8 {
                    if step % 4 == 3 {
                        table.reset_to(&one_based(random_permutation(n, &mut rng)));
                    } else {
                        table.apply_swap(rng.index(n), rng.index(n));
                    }
                    let context = format!("n={n} {model:?} step {step}");
                    let values = table.values().to_vec();
                    let cost = model.global_cost(&values);
                    assert_eq!(table.cost(), cost, "cost ({context})");
                    model.variable_errors(&values, &mut errors);
                    assert_eq!(table.errors(), &errors[..], "errors ({context})");
                    for d in 1..=model.max_distance(n) {
                        let mut diffs: Vec<_> = (0..n - d)
                            .map(|i| values[i + d] as i64 - values[i] as i64)
                            .collect();
                        diffs.sort_unstable();
                        diffs.dedup();
                        let repeats = (n - d - diffs.len()) as u64;
                        assert_eq!(
                            table.row_cost(d),
                            model.weight_at(n, d) * repeats,
                            "row {d} ({context})"
                        );
                    }
                    for m in 0..n {
                        table.probe_partners_reference(m, &mut probed);
                        for (j, &got) in probed.iter().enumerate() {
                            let mut swapped = values.clone();
                            swapped.swap(m, j);
                            let after = model.global_cost(&swapped);
                            assert_eq!(got, after, "probe ({m}, {j}) ({context})");
                            assert_eq!(
                                table.delta_for_swap(m, j),
                                after as i64 - cost as i64,
                                "delta ({m}, {j}) ({context})"
                            );
                        }
                    }
                }
            }
        }
        println!("count-free oracles: {count_free} of {tables} tables kept no counts");
    }

    #[test]
    fn variable_errors_identify_the_culprit() {
        // [2, 4, 6, 1, 3, 5] has its conflicts concentrated on the arithmetic runs;
        // simply check the maximum-error variable has strictly positive error and the
        // error vector has the right length.
        let model = CostModel::optimized();
        let mut errs = Vec::new();
        model.variable_errors(&[2, 4, 6, 1, 3, 5], &mut errs);
        assert_eq!(errs.len(), 6);
        assert!(errs.iter().any(|&e| e > 0));
    }
}
