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
//!   Each candidate is scored from scratch by [`CostModel::global_cost_bounded`],
//!   which aborts once the candidate can no longer be adopted or become the best so
//!   far.  On x86-64 with AVX-512 F + DQ and n ≤ 128 that evaluator scores eight
//!   difference-triangle rows per vector pass; elsewhere it sweeps a scalar
//!   histogram.  Both tiers return the same value, so the reset's choices, its
//!   random draws and the whole trajectory do not depend on the host.  Under the
//!   paper's `RL = 1` the reset runs at almost every local minimum and was the
//!   largest layer of a Costas step before the vector tier.  The reset allocates
//!   nothing: candidates are built in reusable buffers owned by the problem.

use costas::{ConflictTable, CostModel};
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
    /// How many erroneous variables the third perturbation family samples.
    pub prefix_shift_candidates: usize,
}

impl Default for CostasModelConfig {
    fn default() -> Self {
        Self {
            cost_model: CostModel::optimized(),
            dedicated_reset: true,
            prefix_shift_candidates: 3,
        }
    }
}

impl CostasModelConfig {
    /// The paper's basic model: `ERR(d) = 1`, full triangle, generic reset.
    pub fn basic() -> Self {
        Self {
            cost_model: CostModel::basic(),
            dedicated_reset: false,
            prefix_shift_candidates: 3,
        }
    }

    /// The paper's fully optimised model (default).
    pub fn optimized() -> Self {
        Self::default()
    }
}

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

    /// Evaluate one candidate: adopt it immediately if strictly better than
    /// `entry_cost`, otherwise remember it if it beats (or, with a coin flip, ties)
    /// the best candidate so far.  Returns `true` when the candidate was adopted
    /// (early escape).
    ///
    /// The evaluation is *bounded*: a candidate only matters below `entry_cost`
    /// (immediate adoption) or at/below `best_cost` (best-so-far tracking, ties
    /// included), so the sweep aborts — through the reusable histogram scratch,
    /// allocation-free — as soon as its partial cost provably exceeds both
    /// thresholds.  An aborted candidate takes none of the branches below
    /// (including the tie coin flip), so the observable behaviour, random stream
    /// included, is identical to a full evaluation.
    fn consider_candidate(
        &mut self,
        candidate: &[usize],
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        let model = *self.table.model();
        let limit = entry_cost.saturating_sub(1).max(*best_cost);
        let cost = match model.global_cost_bounded(candidate, limit, &mut self.cost_scratch) {
            Some(cost) => cost,
            None => return false, // provably > limit: neither adopted nor best
        };
        if cost < entry_cost {
            self.table.reset_to(candidate);
            return true;
        }
        // Ties are broken stochastically so repeated resets from similar
        // configurations do not always pick the same perturbation.
        let replace = cost < *best_cost || (cost == *best_cost && rng.next_u64() & 1 == 0);
        if replace {
            *best_cost = cost;
            self.best_candidate.copy_from_slice(candidate);
        }
        false
    }

    /// Perturbation family 1: circular shifts of sub-arrays anchored at `m`.
    ///
    /// The candidates are evaluated in the fixed order the paper lists them —
    /// sub-arrays `[m..=hi]` for increasing `hi`, then `[lo..=m]` for increasing
    /// `lo`, left rotation before right rotation — but each candidate buffer is
    /// *advanced* instead of rebuilt: consecutive rotations of nested ranges
    /// differ by exactly one transposition
    /// (`rotl [m..=hi+1] = swap(hi, hi+1) ∘ rotl [m..=hi]`,
    /// `rotr [m..=hi+1] = swap(m, hi+1) ∘ rotr [m..=hi]`,
    /// `rotl [lo+1..=m] = swap(lo, m) ∘ rotl [lo..=m]`,
    /// `rotr [lo+1..=m] = swap(lo, lo+1) ∘ rotr [lo..=m]`),
    /// so producing each of the ≈ 2n candidates is O(1) instead of O(n).
    /// Returns `true` on early escape.
    fn try_anchored_shifts(
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
                if self.consider_candidate(&left_chain, entry_cost, best_cost, rng)
                    || self.consider_candidate(&right_chain, entry_cost, best_cost, rng)
                {
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
                    if self.consider_candidate(&left_chain, entry_cost, best_cost, rng)
                        || self.consider_candidate(&right_chain, entry_cost, best_cost, rng)
                    {
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

    /// Perturbation family 2: add a constant circularly (mod `n`) to every value.
    fn try_constant_additions(
        &mut self,
        entry_cost: u64,
        best_cost: &mut u64,
        rng: &mut dyn Rng64,
    ) -> bool {
        let n = self.order();
        let mut scratch = std::mem::take(&mut self.scratch);
        // the historical constant sequence: 1, 2, n−2, n−3 (n ≥ 4 only for the
        // last), multiples of n dropped, *consecutive* duplicates collapsed —
        // kept verbatim so trajectories are unchanged, allocation aside
        let mut raw = [1, 2, n - 2, 0usize];
        let mut raw_len = 3;
        if n >= 4 {
            raw[3] = n - 3;
            raw_len = 4;
        }
        let mut constants = [0usize; 4];
        let mut num_constants = 0;
        for &c in &raw[..raw_len] {
            if c % n != 0 && (num_constants == 0 || constants[num_constants - 1] != c) {
                constants[num_constants] = c;
                num_constants += 1;
            }
        }
        let mut escaped = false;
        for &c in &constants[..num_constants] {
            // the table's values are unchanged until a candidate is adopted, at
            // which point the loop exits — so re-reading them per constant is safe
            for (dst, &src) in scratch.iter_mut().zip(self.table.values()) {
                *dst = (src - 1 + c) % n + 1;
            }
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
        // the maintained per-position error vector — no recompute, no sweep
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
        let tries = self.config.prefix_shift_candidates.min(erroneous.len());
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
                    }
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
