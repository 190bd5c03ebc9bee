//! The Costas Array Problem modelled for Adaptive Search (paper §IV).
//!
//! * Configuration: a permutation of `1..=n` (implicit `alldifferent`).
//! * Cost: repeated values in the rows of the difference triangle, weighted by
//!   `ERR(d)` and restricted to the Chang half-triangle in the optimised model —
//!   provided by [`costas::ConflictTable`].
//! * Custom reset (§IV-B): when the engine hits a local minimum it asks the model to
//!   propose a perturbed configuration.  Three perturbation families are tried:
//!
//!   1. circular shifts (left and right by one cell) of every sub-array starting or
//!      ending at the most erroneous variable `V_m`;
//!   2. adding a constant circularly (mod `n`) to every variable, with constants
//!      `1, 2, n−2, n−3`;
//!   3. left-shifting by one cell the prefix ending at a randomly chosen erroneous
//!      variable other than `V_m` (at most three candidates tried).
//!
//!   As soon as a perturbation is *strictly better* than the entry configuration it is
//!   adopted (the paper reports this succeeds in ≈32 % of resets, independent of `n`);
//!   otherwise all candidates are evaluated and the best one is adopted.
//!
//!   Every candidate is scored from scratch, in one of two ways chosen by the
//!   table's tier ([`ConflictTable::batches_rotations`]):
//!
//!   * On x86-64 with AVX-512 F + DQ + BW + VBMI and n ≤ 32, the ≈ 2n
//!     family-1 rotations and the ≤ 4 family-2 constant additions are
//!     scored exactly by [`ConflictTable::rotation_costs`] (sixteen per
//!     call) and [`ConflictTable::addition_costs`] (all of them in one
//!     call), which never build them: sixteen candidates per vector pass
//!     for n ≤ 16, eight up to n = 32.  Only an adopted or best candidate
//!     is materialised.
//!   * Everywhere else, and for family 3 on every tier, each candidate
//!     is built in a reusable buffer (family 1 by advancing two transposition
//!     chains) and scored by [`CostModel::global_cost_bounded`], which aborts
//!     once the candidate can no longer be adopted or become the best so far.
//!     On x86-64 with AVX-512 F + DQ + BW + VBMI and n ≤ 128 that evaluator
//!     scores eight difference-triangle rows per vector pass; elsewhere it
//!     sweeps a scalar histogram.  Family 3 stays there on every tier: its
//!     candidates are picked by random draws that interleave with the
//!     decisions' tie coin flips, so they cannot be scored ahead of them.
//!
//!   Every score, exact or bounded, goes through one decision routine
//!   ([`judge`]) in the paper's candidate order, and an aborted bounded score
//!   is exactly a candidate the exact score would pass over, so the reset's
//!   choices, its random draws and the whole trajectory do not depend on the
//!   host.  Under the paper's `RL = 1` the reset runs at almost every local
//!   minimum and is the largest layer of a Costas step at n = 16.  The reset
//!   allocates nothing: candidates are built in reusable buffers owned by the
//!   problem.

use costas::{add_circular, ConflictTable, CostModel, Rotation};
use xrand::{RandExt, Rng64};

use crate::problem::PermutationProblem;

/// Configuration of the CAP model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostasModelConfig {
    /// Scoring model (error weighting and row span).
    pub cost_model: CostModel,
    /// Enable the dedicated three-perturbation reset procedure.  When `false` the
    /// model always defers to the engine's generic reset — this is the knob the
    /// ablation bench uses to measure the paper's "≈3.7× from the dedicated reset".
    pub dedicated_reset: bool,
}

impl Default for CostasModelConfig {
    fn default() -> Self {
        Self {
            cost_model: CostModel::optimized(),
            dedicated_reset: true,
        }
    }
}

impl CostasModelConfig {
    /// The paper's basic model: `ERR(d) = 1`, full triangle, generic reset.
    pub fn basic() -> Self {
        Self {
            cost_model: CostModel::basic(),
            dedicated_reset: false,
        }
    }

    /// The paper's fully optimised model (default).
    pub fn optimized() -> Self {
        Self::default()
    }
}

/// How many erroneous variables perturbation family 3 samples: the paper's "at
/// most three" (§IV-B).
const PREFIX_SHIFT_CANDIDATES: usize = 3;

/// The CAP as a [`PermutationProblem`].
#[derive(Debug, Clone)]
pub struct CostasProblem {
    table: ConflictTable,
    config: CostasModelConfig,
    // scratch buffers for the reset procedure
    scratch: Vec<usize>,
    best_candidate: Vec<usize>,
    cost_scratch: Vec<u32>,
    chain_a: Vec<usize>,
    chain_b: Vec<usize>,
    erroneous: Vec<usize>,
}

impl CostasProblem {
    /// CAP of order `n` with the optimised model.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, CostasModelConfig::default())
    }

    /// CAP of order `n` with an explicit model configuration.
    pub fn with_config(n: usize, config: CostasModelConfig) -> Self {
        assert!(n > 0, "Costas order must be positive");
        let identity: Vec<usize> = (1..=n).collect();
        Self {
            table: ConflictTable::new(&identity, config.cost_model),
            config,
            scratch: vec![0; n],
            best_candidate: vec![0; n],
            cost_scratch: Vec::with_capacity(2 * n),
            chain_a: vec![0; n],
            chain_b: vec![0; n],
            erroneous: Vec::with_capacity(n),
        }
    }

    /// Heap bytes of an order-`n` instance under `cost_model`: the conflict
    /// table ([`ConflictTable::heap_bytes`]) plus the reset's five
    /// order-`n` candidate buffers and its `2n − 1`-bucket cost scratch.
    pub(crate) const fn heap_bytes(n: usize, cost_model: CostModel) -> u128 {
        let m = n as u128;
        ConflictTable::heap_bytes(n, cost_model) + 5 * 8 * m + 4 * 2 * m
    }

    /// The model configuration.
    pub fn config(&self) -> &CostasModelConfig {
        &self.config
    }

    /// Order of the instance.
    pub fn order(&self) -> usize {
        self.table.order()
    }

    /// Evaluate one candidate: [`Self::score_candidate`], then
    /// [`Self::decide_candidate`].  Returns `true` when the candidate was
    /// adopted (early escape).
    fn consider_candidate(
        &mut self,
        candidate: &[usize],
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        let cost = self.score_candidate(candidate, entry_cost, *best_cost);
        self.decide_candidate(candidate, cost, entry_cost, best_cost, rng)
    }

    /// Score one candidate, *bounded*: a candidate only matters below
    /// `entry_cost` (immediate adoption) or at/below `best_cost` (best-so-far
    /// tracking, ties included), so the sweep aborts — through the reusable
    /// histogram scratch, allocation-free — as soon as its partial cost
    /// provably exceeds both thresholds, and returns `None`.
    fn score_candidate(
        &mut self,
        candidate: &[usize],
        entry_cost: u64,
        best_cost: u64,
    ) -> Option<u64> {
        let model = *self.table.model();
        let limit = entry_cost.saturating_sub(1).max(best_cost);
        model.global_cost_bounded(candidate, limit, &mut self.cost_scratch)
    }

    /// Act on a built candidate's [`Self::score_candidate`] result as
    /// [`judge`] rules: adopt it, remember it as the best so far, or pass.
    /// Returns `true` when the candidate was adopted (early escape).
    fn decide_candidate(
        &mut self,
        candidate: &[usize],
        cost: Option<u64>,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        match judge(cost, entry_cost, best_cost, rng) {
            Verdict::Adopt => {
                self.table.reset_to(candidate);
                true
            }
            Verdict::Best => {
                self.best_candidate.copy_from_slice(candidate);
                false
            }
            Verdict::Pass => false,
        }
    }

    /// Evaluate the left- and right-rotation candidates of one anchored
    /// range, in that order.  `same` says the two chains hold one
    /// permutation (a two-cell range, whose two rotations are one swap): the
    /// right copy then takes the left copy's score instead of being scored
    /// again, and is still decided, so it still takes its tie coin flip and
    /// the random stream is unchanged.  Reusing the score is exact: the left
    /// copy's decision can only lower the bound to that very score, so a
    /// second bounded scoring would return the same result.  Returns `true`
    /// on early escape.
    fn consider_rotation_pair(
        &mut self,
        left: &[usize],
        right: &[usize],
        same: bool,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        debug_assert_eq!(
            same,
            left == right,
            "`same` must say whether the chains coincide"
        );
        let left_cost = self.score_candidate(left, entry_cost, *best_cost);
        if self.decide_candidate(left, left_cost, entry_cost, best_cost, rng) {
            return true;
        }
        let right_cost = if same {
            left_cost
        } else {
            self.score_candidate(right, entry_cost, *best_cost)
        };
        self.decide_candidate(right, right_cost, entry_cost, best_cost, rng)
    }

    /// Perturbation family 1: circular shifts of sub-arrays anchored at `m`,
    /// evaluated in the fixed order the paper lists them — sub-arrays
    /// `[m..=hi]` for increasing `hi`, then `[lo..=m]` for increasing `lo`,
    /// left rotation before right rotation — batched where the table scores
    /// rotations from its values, chained elsewhere.  Both paths take the
    /// same decisions and random draws.  Returns `true` on early escape.
    fn try_anchored_shifts(
        &mut self,
        m: usize,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        if self.table.batches_rotations() {
            self.anchored_shifts_batched(m, entry_cost, best_cost, rng)
        } else {
            self.anchored_shifts_chained(m, entry_cost, best_cost, rng)
        }
    }

    /// Family 1 on the count-free tier: exact costs of sixteen rotations
    /// per call from [`ConflictTable::rotation_costs`], then [`judge`] on
    /// each in order; only an adopted or best rotation is built.  Scoring
    /// is exact, so the two-cell range's second copy is scored like any
    /// other.
    fn anchored_shifts_batched(
        &mut self,
        m: usize,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        let n = self.order();
        // Candidate k: the range of rotation pair k / 2, left if k is even.
        let above = n - 1 - m;
        let rotation = |k: usize| {
            let pair = k / 2;
            let (lo, hi) = if pair < above {
                (m, m + 1 + pair)
            } else {
                (pair - above, m)
            };
            Rotation {
                lo,
                hi,
                left: k.is_multiple_of(2),
            }
        };
        let total = 2 * (n - 1);
        let mut batch = [Rotation {
            lo: 0,
            hi: 0,
            left: true,
        }; 16];
        let mut costs = [0u64; 16];
        for first in (0..total).step_by(16) {
            let len = (total - first).min(16);
            for (k, r) in batch[..len].iter_mut().enumerate() {
                *r = rotation(first + k);
            }
            self.table.rotation_costs(&batch[..len], &mut costs);
            for (r, &cost) in batch[..len].iter().zip(&costs) {
                let verdict = judge(Some(cost), entry_cost, best_cost, rng);
                if self.act_unbuilt(verdict, |values, out| {
                    out.copy_from_slice(values);
                    r.apply(out);
                }) {
                    return true;
                }
            }
        }
        false
    }

    /// Act on the verdict for an exactly scored candidate that has not been
    /// built: build it from the current values with `build` only when it is
    /// adopted (then adopt it) or becomes the best so far.  Returns `true`
    /// when it was adopted (early escape).
    fn act_unbuilt(&mut self, verdict: Verdict, build: impl Fn(&[usize], &mut [usize])) -> bool {
        match verdict {
            Verdict::Adopt => {
                build(self.table.values(), &mut self.scratch);
                self.table.reset_to(&self.scratch);
                true
            }
            Verdict::Best => {
                build(self.table.values(), &mut self.best_candidate);
                false
            }
            Verdict::Pass => false,
        }
    }

    /// Family 1 where the table keeps its counts: each candidate buffer is
    /// *advanced* instead of rebuilt, since consecutive rotations of nested
    /// ranges differ by exactly one transposition
    /// (`rotl [m..=hi+1] = swap(hi, hi+1) ∘ rotl [m..=hi]`,
    /// `rotr [m..=hi+1] = swap(m, hi+1) ∘ rotr [m..=hi]`,
    /// `rotl [lo+1..=m] = swap(lo, m) ∘ rotl [lo..=m]`,
    /// `rotr [lo+1..=m] = swap(lo, lo+1) ∘ rotr [lo..=m]`),
    /// so producing each of the ≈ 2n candidates is O(1) instead of O(n), and
    /// each is scored with the running bound.  Returns `true` on early
    /// escape.
    fn anchored_shifts_chained(
        &mut self,
        m: usize,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        let n = self.order();
        let mut left_chain = std::mem::take(&mut self.chain_a);
        let mut right_chain = std::mem::take(&mut self.chain_b);
        let mut escaped = false;
        'outer: {
            // Sub-arrays [m..=hi] for hi ascending.
            left_chain.copy_from_slice(self.table.values());
            right_chain.copy_from_slice(self.table.values());
            for hi in (m + 1)..n {
                if hi == m + 1 {
                    // both rotations of a two-element range are the same swap
                    left_chain.swap(m, m + 1);
                    right_chain.swap(m, m + 1);
                } else {
                    left_chain.swap(hi - 1, hi);
                    right_chain.swap(m, hi);
                }
                if self.consider_rotation_pair(
                    &left_chain,
                    &right_chain,
                    hi == m + 1,
                    entry_cost,
                    best_cost,
                    rng,
                ) {
                    escaped = true;
                    break 'outer;
                }
            }
            // Sub-arrays [lo..=m] for lo ascending.
            if m >= 1 {
                left_chain.copy_from_slice(self.table.values());
                left_chain[0..=m].rotate_left(1);
                right_chain.copy_from_slice(self.table.values());
                right_chain[0..=m].rotate_right(1);
                for lo in 0..m {
                    if lo > 0 {
                        left_chain.swap(lo - 1, m);
                        right_chain.swap(lo - 1, lo);
                    }
                    if self.consider_rotation_pair(
                        &left_chain,
                        &right_chain,
                        lo + 1 == m,
                        entry_cost,
                        best_cost,
                        rng,
                    ) {
                        escaped = true;
                        break 'outer;
                    }
                }
            }
        }
        self.chain_a = left_chain;
        self.chain_b = right_chain;
        escaped
    }

    /// Perturbation family 2: add a constant circularly (mod `n`) to every
    /// value, batched where the table scores additions sixteen or eight per
    /// pass, built and bounded elsewhere.  Both paths take the same
    /// decisions and random draws.  Returns `true` on early escape.
    fn try_constant_additions(
        &mut self,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        if self.table.batches_rotations() {
            self.constant_additions_batched(entry_cost, best_cost, rng)
        } else {
            self.constant_additions_bounded(entry_cost, best_cost, rng)
        }
    }

    /// Family 2 on the count-free tier: the exact costs of every constant
    /// in one call to [`ConflictTable::addition_costs`], then [`judge`] on
    /// each in order; only an adopted or best addition is built.
    fn constant_additions_batched(
        &mut self,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        let (constants, len) = addition_constants(self.order());
        let mut costs = [0u64; 4];
        self.table.addition_costs(&constants[..len], &mut costs);
        for (&c, &cost) in constants[..len].iter().zip(&costs) {
            let verdict = judge(Some(cost), entry_cost, best_cost, rng);
            if self.act_unbuilt(verdict, |values, out| add_circular(values, c, out)) {
                return true;
            }
        }
        false
    }

    /// Family 2 where the table keeps its counts: each addition built in
    /// the reusable buffer and scored with the running bound.
    fn constant_additions_bounded(
        &mut self,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        let (constants, len) = addition_constants(self.order());
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut escaped = false;
        for &c in &constants[..len] {
            // the table's values are unchanged until a candidate is adopted, at
            // which point the loop exits — so re-reading them per constant is safe
            add_circular(self.table.values(), c, &mut scratch);
            if self.consider_candidate(&scratch, entry_cost, best_cost, rng) {
                escaped = true;
                break;
            }
        }
        self.scratch = scratch;
        escaped
    }

    /// Perturbation family 3: left-shift the prefix ending at a random erroneous
    /// variable different from `m`.
    fn try_prefix_shifts(
        &mut self,
        m: usize,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        // the table's per-position error vector, current after every change
        let mut erroneous = std::mem::take(&mut self.erroneous);
        erroneous.clear();
        erroneous.extend(
            self.table
                .errors()
                .iter()
                .enumerate()
                .filter(|&(i, &e)| e > 0 && i != m)
                .map(|(i, _)| i),
        );
        if erroneous.is_empty() {
            self.erroneous = erroneous;
            return false;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let tries = PREFIX_SHIFT_CANDIDATES.min(erroneous.len());
        let mut escaped = false;
        for _ in 0..tries {
            let pick = erroneous[rng.index(erroneous.len())];
            if pick == 0 {
                continue; // a prefix of length one cannot be shifted
            }
            // values are unchanged until a candidate is adopted (which exits)
            scratch.copy_from_slice(self.table.values());
            scratch[0..=pick].rotate_left(1);
            if self.consider_candidate(&scratch, entry_cost, best_cost, rng) {
                escaped = true;
                break;
            }
        }
        self.scratch = scratch;
        self.erroneous = erroneous;
        escaped
    }
}

/// Family 2's constants for order `n`, in the paper's order, and how many
/// there are: the historical sequence 1, 2, n−2, n−3 (n ≥ 4 only for the
/// last), multiples of n dropped, *consecutive* duplicates collapsed — kept
/// verbatim so trajectories are unchanged.  Every constant lies in `1..n`.
fn addition_constants(n: usize) -> ([usize; 4], usize) {
    let mut raw = [1, 2, n - 2, 0usize];
    let mut raw_len = 3;
    if n >= 4 {
        raw[3] = n - 3;
        raw_len = 4;
    }
    let mut constants = [0usize; 4];
    let mut len = 0;
    for &c in &raw[..raw_len] {
        if c % n != 0 && (len == 0 || constants[len - 1] != c) {
            constants[len] = c;
            len += 1;
        }
    }
    (constants, len)
}

/// What the reset does with one scored candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Strictly better than the entry configuration: adopt it at once.
    Adopt,
    /// The best candidate so far (a strict improvement, or a tie that won
    /// its coin flip); `best_cost` already holds its cost.
    Best,
    /// Neither.
    Pass,
}

/// The reset's one decision routine, for every family and both family-1
/// paths: adopt a candidate strictly cheaper than `entry_cost`; otherwise
/// make it the best so far if it beats `best_cost`, or ties it and wins a
/// coin flip.  A bounded score that aborted (`None`, proven above both
/// thresholds) passes without drawing, exactly as its exact cost would, so
/// the random stream does not depend on which scorer ran.
fn judge(cost: Option<u64>, entry_cost: u64, best_cost: &mut u64, rng: &mut dyn Rng64) -> Verdict {
    let Some(cost) = cost else {
        return Verdict::Pass;
    };
    if cost < entry_cost {
        return Verdict::Adopt;
    }
    // Ties are broken stochastically so repeated resets from similar
    // configurations do not always pick the same perturbation.
    if cost < *best_cost || (cost == *best_cost && rng.next_u64() & 1 == 0) {
        *best_cost = cost;
        return Verdict::Best;
    }
    Verdict::Pass
}

impl PermutationProblem for CostasProblem {
    fn size(&self) -> usize {
        self.table.order()
    }

    fn set_configuration(&mut self, values: &[usize]) {
        self.table.reset_to(values);
    }

    fn configuration(&self) -> &[usize] {
        self.table.values()
    }

    fn global_cost(&self) -> u64 {
        self.table.cost()
    }

    fn variable_errors(&self, out: &mut Vec<u64>) {
        self.table.variable_errors(out);
    }

    fn cached_errors(&self) -> Option<&[u64]> {
        Some(self.table.errors())
    }

    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        self.table.delta_for_swap(i, j)
    }

    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        self.table.probe_partners(culprit, out);
    }

    fn probe_partners_reference(&self, culprit: usize, out: &mut Vec<u64>) {
        self.table.probe_partners_reference(culprit, out);
    }

    /// The bitmask probe kernel serves every order with a scored row (n ≥ 2).
    fn has_accelerated_probe(&self) -> bool {
        self.order() >= 2
    }

    fn apply_swap(&mut self, i: usize, j: usize) {
        self.table.apply_swap(i, j);
    }

    fn custom_reset(&mut self, worst_var: usize, rng: &mut dyn Rng64) -> Option<u64> {
        if !self.config.dedicated_reset || self.order() < 3 {
            return None;
        }
        let entry_cost = self.table.cost();
        let mut best_cost = u64::MAX;
        self.best_candidate.copy_from_slice(self.table.values());

        let escaped = self.try_anchored_shifts(worst_var, entry_cost, &mut best_cost, rng)
            || self.try_constant_additions(entry_cost, &mut best_cost, rng)
            || self.try_prefix_shifts(worst_var, entry_cost, &mut best_cost, rng);

        if !escaped {
            // No perturbation beat the entry configuration: adopt the best one anyway
            // (the paper: "all perturbations are tested exhaustively and the best is
            // selected").
            let best = std::mem::take(&mut self.best_candidate);
            self.table.reset_to(&best);
            self.best_candidate = best;
        }
        Some(self.table.cost())
    }

    fn name(&self) -> &'static str {
        "costas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costas::Permutation;
    use xrand::default_rng;

    fn random_config(n: usize, seed: u64) -> Vec<usize> {
        let mut rng = default_rng(seed);
        let mut p = xrand::random_permutation(n, &mut rng);
        p.iter_mut().for_each(|v| *v += 1);
        p
    }

    #[test]
    fn problem_implements_the_trait_consistently() {
        let mut p = CostasProblem::new(10);
        let config = random_config(10, 3);
        p.set_configuration(&config);
        assert_eq!(p.size(), 10);
        assert_eq!(p.configuration(), &config[..]);
        assert_eq!(p.global_cost(), CostModel::optimized().global_cost(&config));
        let mut errs = Vec::new();
        p.variable_errors(&mut errs);
        assert_eq!(errs.len(), 10);
        let before = p.global_cost();
        let predicted = p.cost_after_swap(0, 5);
        assert_eq!(p.global_cost(), before, "prediction must not mutate");
        p.apply_swap(0, 5);
        assert_eq!(p.global_cost(), predicted);
    }

    #[test]
    fn custom_reset_preserves_permutation_and_returns_cost() {
        let mut rng = default_rng(11);
        for n in [5usize, 9, 14, 19] {
            let mut p = CostasProblem::new(n);
            for seed in 0..10u64 {
                let config = random_config(n, seed * 31 + n as u64);
                p.set_configuration(&config);
                let mut errs = Vec::new();
                p.variable_errors(&mut errs);
                let worst = errs
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, e)| *e)
                    .map(|(i, _)| i)
                    .unwrap();
                let reported = p
                    .custom_reset(worst, &mut rng)
                    .expect("dedicated reset enabled");
                assert!(Permutation::validate(p.configuration()).is_ok(), "n={n}");
                assert_eq!(reported, p.global_cost());
                assert_eq!(
                    reported,
                    CostModel::optimized().global_cost(p.configuration())
                );
            }
        }
    }

    #[test]
    fn custom_reset_changes_the_configuration_when_stuck() {
        // From a random (almost surely conflicted) configuration the reset should move
        // to a different configuration in the vast majority of cases.
        let mut rng = default_rng(5);
        let mut p = CostasProblem::new(13);
        let mut changed = 0;
        for seed in 0..20u64 {
            let config = random_config(13, seed);
            p.set_configuration(&config);
            p.custom_reset(0, &mut rng);
            if p.configuration() != &config[..] {
                changed += 1;
            }
        }
        assert!(
            changed >= 15,
            "reset changed the configuration only {changed}/20 times"
        );
    }

    #[test]
    fn custom_reset_often_escapes_strictly() {
        // The paper reports ≈32 % immediate escapes; accept anything well above zero.
        let mut rng = default_rng(17);
        let mut p = CostasProblem::new(17);
        let mut escapes = 0;
        let trials = 200;
        for seed in 0..trials {
            let config = random_config(17, seed as u64 + 1000);
            p.set_configuration(&config);
            let entry = p.global_cost();
            let after = p.custom_reset(0, &mut rng).unwrap();
            if after < entry {
                escapes += 1;
            }
        }
        assert!(
            escapes * 10 >= trials,
            "expected ≥10% strict escapes from random configurations, got {escapes}/{trials}"
        );
    }

    #[test]
    fn rotation_chain_identities_hold() {
        // The transposition identities try_anchored_shifts advances its candidate
        // buffers by, checked against materialised rotations.
        for n in [2usize, 3, 5, 8, 13] {
            let base = random_config(n, 41 + n as u64);
            for m in 0..n {
                let mut left = base.clone();
                let mut right = base.clone();
                for hi in (m + 1)..n {
                    if hi == m + 1 {
                        left.swap(m, m + 1);
                        right.swap(m, m + 1);
                    } else {
                        left.swap(hi - 1, hi);
                        right.swap(m, hi);
                    }
                    let mut expect = base.clone();
                    expect[m..=hi].rotate_left(1);
                    assert_eq!(left, expect, "rotl [{m}..={hi}] of order {n}");
                    let mut expect = base.clone();
                    expect[m..=hi].rotate_right(1);
                    assert_eq!(right, expect, "rotr [{m}..={hi}] of order {n}");
                    // The reset scores the right chain again only where the
                    // two chains differ: everywhere but the two-cell range.
                    assert_eq!(left == right, hi == m + 1, "[{m}..={hi}] of order {n}");
                }
                if m >= 1 {
                    let mut left = base.clone();
                    left[0..=m].rotate_left(1);
                    let mut right = base.clone();
                    right[0..=m].rotate_right(1);
                    for lo in 0..m {
                        if lo > 0 {
                            left.swap(lo - 1, m);
                            right.swap(lo - 1, lo);
                        }
                        let mut expect = base.clone();
                        expect[lo..=m].rotate_left(1);
                        assert_eq!(left, expect, "rotl [{lo}..={m}] of order {n}");
                        let mut expect = base.clone();
                        expect[lo..=m].rotate_right(1);
                        assert_eq!(right, expect, "rotr [{lo}..={m}] of order {n}");
                        assert_eq!(left == right, lo + 1 == m, "[{lo}..={m}] of order {n}");
                    }
                }
            }
        }
    }

    /// Family 1 from `p`'s current state down one path, then the adoption
    /// of the best candidate `custom_reset` falls back to: the adopted
    /// configuration, its reported cost and the generator's next draw.
    fn family_one(
        p: &mut CostasProblem,
        m: usize,
        batched: bool,
        rng: &mut xrand::DefaultRng,
    ) -> (Vec<usize>, u64, u64) {
        let entry_cost = p.global_cost();
        let mut best_cost = u64::MAX;
        p.best_candidate.copy_from_slice(p.table.values());
        let escaped = if batched {
            p.anchored_shifts_batched(m, entry_cost, &mut best_cost, rng)
        } else {
            p.anchored_shifts_chained(m, entry_cost, &mut best_cost, rng)
        };
        if !escaped {
            let best = p.best_candidate.clone();
            p.set_configuration(&best);
        }
        (p.configuration().to_vec(), p.global_cost(), rng.next_u64())
    }

    #[test]
    fn batched_and_chained_family_one_replay_each_other() {
        // 250 random states with random anchors and 250 engine-walk states
        // anchored at their most erroneous variable, per order: both family-1
        // paths must adopt the same configuration, report the same cost and
        // leave the generator at the same draw.  On hosts without AVX-512 the
        // batched path scores materialised rotations; the decisions it
        // replays are the same.
        use crate::config::AsConfig;
        use crate::engine::{Engine, StepOutcome};
        for n in [3usize, 4, 5, 8, 13, 16, 31, 32] {
            let mut rng = default_rng(0x0F1A_7C4E ^ n as u64);
            let mut states: Vec<(Vec<usize>, usize)> = (0..250)
                .map(|_| (random_config(n, rng.next_u64()), rng.index(n)))
                .collect();
            let mut engine = Engine::new(CostasProblem::new(n), AsConfig::default(), n as u64);
            while states.len() < 500 {
                if engine.step() == StepOutcome::Solved {
                    engine.restart();
                }
                let p = engine.problem();
                let errors = p.table.errors();
                let worst = (0..n).max_by_key(|&i| (errors[i], n - i)).unwrap();
                states.push((p.configuration().to_vec(), worst));
            }
            for (k, (config, m)) in states.iter().enumerate() {
                let mut p = CostasProblem::new(n);
                p.set_configuration(config);
                let mut q = p.clone();
                let seed = rng.next_u64();
                let batched = family_one(&mut p, *m, true, &mut default_rng(seed));
                let chained = family_one(&mut q, *m, false, &mut default_rng(seed));
                assert_eq!(batched, chained, "n={n} state {k} anchor {m}: {config:?}");
            }
        }
    }

    /// Family 2 from `p`'s current state down one path, entered with
    /// `best_cost` as the best so far, then the adoption of the best
    /// candidate `custom_reset` falls back to: the adopted configuration,
    /// its reported cost, the final best cost and the generator's next draw.
    fn family_two(
        p: &mut CostasProblem,
        best_cost: u64,
        batched: bool,
        rng: &mut xrand::DefaultRng,
    ) -> (Vec<usize>, u64, u64, u64) {
        let entry_cost = p.global_cost();
        let mut best_cost = best_cost;
        p.best_candidate.copy_from_slice(p.table.values());
        let escaped = if batched {
            p.constant_additions_batched(entry_cost, &mut best_cost, rng)
        } else {
            p.constant_additions_bounded(entry_cost, &mut best_cost, rng)
        };
        if !escaped {
            let best = p.best_candidate.clone();
            p.set_configuration(&best);
        }
        (
            p.configuration().to_vec(),
            p.global_cost(),
            best_cost,
            rng.next_u64(),
        )
    }

    #[test]
    fn batched_and_bounded_family_two_replay_each_other() {
        // 250 random states and 250 engine-walk states per order, each
        // entered with a best cost so far of none, the entry cost, one
        // addition's exact cost (a tie, so a coin flip) or one below it
        // (an abort on the bounded path): both family-2 paths must adopt
        // the same configuration, report the same cost, end on the same
        // best cost and leave the generator at the same draw.  On hosts
        // without AVX-512 the batched path scores materialised additions;
        // the decisions it replays are the same.
        use crate::config::AsConfig;
        use crate::engine::{Engine, StepOutcome};
        for n in [3usize, 4, 5, 8, 13, 16, 17, 31, 32] {
            let mut rng = default_rng(0x0F2A_DD17 ^ n as u64);
            let mut states: Vec<Vec<usize>> =
                (0..250).map(|_| random_config(n, rng.next_u64())).collect();
            let mut engine = Engine::new(CostasProblem::new(n), AsConfig::default(), n as u64);
            while states.len() < 500 {
                if engine.step() == StepOutcome::Solved {
                    engine.restart();
                }
                states.push(engine.problem().configuration().to_vec());
            }
            let (constants, len) = addition_constants(n);
            let mut costs = [0u64; 4];
            for (k, config) in states.iter().enumerate() {
                let mut p = CostasProblem::new(n);
                p.set_configuration(config);
                p.table.addition_costs(&constants[..len], &mut costs);
                let tie = costs[rng.index(len)];
                for best_cost in [u64::MAX, p.global_cost(), tie, tie.saturating_sub(1)] {
                    let mut q = p.clone();
                    let seed = rng.next_u64();
                    let batched =
                        family_two(&mut p.clone(), best_cost, true, &mut default_rng(seed));
                    let bounded = family_two(&mut q, best_cost, false, &mut default_rng(seed));
                    assert_eq!(
                        batched, bounded,
                        "n={n} state {k} best {best_cost}: {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn custom_reset_lands_in_the_legal_perturbation_set() {
        // Whatever the reset procedure adopts must be one of the paper's
        // perturbations of the entry configuration: an anchored sub-array
        // rotation, a circular constant addition, or a prefix left-shift.
        let mut rng = default_rng(23);
        for n in [5usize, 9, 13] {
            let mut p = CostasProblem::new(n);
            for seed in 0..30u64 {
                let entry = random_config(n, seed * 131 + n as u64);
                p.set_configuration(&entry);
                let mut errs = Vec::new();
                p.variable_errors(&mut errs);
                let m = errs
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, e)| *e)
                    .map(|(i, _)| i)
                    .unwrap();
                let mut legal: Vec<Vec<usize>> = Vec::new();
                for hi in (m + 1)..n {
                    for right in [false, true] {
                        let mut c = entry.clone();
                        if right {
                            c[m..=hi].rotate_right(1);
                        } else {
                            c[m..=hi].rotate_left(1);
                        }
                        legal.push(c);
                    }
                }
                for lo in 0..m {
                    for right in [false, true] {
                        let mut c = entry.clone();
                        if right {
                            c[lo..=m].rotate_right(1);
                        } else {
                            c[lo..=m].rotate_left(1);
                        }
                        legal.push(c);
                    }
                }
                for add in 1..n {
                    let c: Vec<usize> = entry.iter().map(|&v| (v - 1 + add) % n + 1).collect();
                    legal.push(c);
                }
                for pick in 1..n {
                    let mut c = entry.clone();
                    c[0..=pick].rotate_left(1);
                    legal.push(c);
                }
                let reported = p.custom_reset(m, &mut rng).expect("dedicated reset");
                assert!(
                    legal.iter().any(|c| c == p.configuration()),
                    "n={n} seed={seed}: reset landed outside the perturbation set"
                );
                assert_eq!(reported, p.global_cost());
            }
        }
    }

    #[test]
    fn disabled_dedicated_reset_defers_to_engine() {
        let mut p = CostasProblem::with_config(
            12,
            CostasModelConfig {
                dedicated_reset: false,
                ..Default::default()
            },
        );
        let mut rng = default_rng(0);
        p.set_configuration(&random_config(12, 9));
        assert_eq!(p.custom_reset(0, &mut rng), None);

        // End to end: the engine still resets, every time with its generic
        // perturbation.
        use crate::config::AsConfig;
        use crate::engine::Engine;
        let model = CostasModelConfig {
            dedicated_reset: false,
            ..Default::default()
        };
        let config = AsConfig::builder().max_iterations(2_000).build();
        let r = Engine::new(CostasProblem::with_config(16, model), config, 3).solve();
        assert!(r.stats.resets > 0);
        assert_eq!(r.stats.custom_resets, 0);
        assert_eq!(r.stats.custom_reset_escapes, 0);
    }

    #[test]
    fn basic_and_optimized_models_agree_on_solutions() {
        let solution = [3usize, 4, 2, 1, 5];
        let mut basic = CostasProblem::with_config(5, CostasModelConfig::basic());
        let mut opt = CostasProblem::new(5);
        basic.set_configuration(&solution);
        opt.set_configuration(&solution);
        assert_eq!(basic.global_cost(), 0);
        assert_eq!(opt.global_cost(), 0);
        assert!(basic.is_solution() && opt.is_solution());
    }

    #[test]
    fn tiny_orders_skip_the_dedicated_reset() {
        let mut p = CostasProblem::new(2);
        let mut rng = default_rng(1);
        p.set_configuration(&[1, 2]);
        assert_eq!(p.custom_reset(0, &mut rng), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_order_rejected() {
        CostasProblem::new(0);
    }
}
