//! Number partitioning (CSPLib prob049) for Adaptive Search.
//!
//! Partition the numbers `1..=n` into two groups of `n/2` numbers each so that both
//! groups have the same sum *and* the same sum of squares — the classical Adaptive
//! Search benchmark from the original AS papers.  The permutation encoding makes
//! the cardinality constraint implicit: the configuration is a permutation of
//! `1..=n` whose first `n/2` positions form group A and whose last `n/2` positions
//! form group B, and the elementary move is the engine's position swap.  Non-trivial
//! instances exist for `n ≡ 0 (mod 4)` (both targets must be integral and even).
//!
//! Cost model (kept integral by doubling): with `S = Σ v` and `Q = Σ v²`, let the
//! surpluses be `D = 2·sum(A) − S` and `Dq = 2·sumsq(A) − Q`; the global cost is
//! `|D| + |Dq|`, zero exactly on balanced partitions.
//!
//! Per-variable errors project the surpluses onto the positions that aggravate
//! them: a position on the sum-surplus side is charged `min(|D|, 2v)` (its value's
//! removable share of the sum imbalance) and analogously `min(|Dq|, 2v²)` for the
//! square surplus.  This steers culprit selection towards heavy values on the
//! overweight side while keeping every error derivable from `(side, value, D, Dq)`
//! alone.  Maintenance: a within-half swap moves no value across the cut, so the
//! two positions simply exchange errors (O(1)); a cross-half swap changes the
//! global surpluses, which touch *every* position's error, so the vector is
//! refreshed in O(n) — the same order as the probe loop the engine already pays
//! per iteration, and the best possible for an error function that (necessarily)
//! depends on the global surplus.

use crate::problem::PermutationProblem;

/// Permutation-encoded number partitioning with maintained surpluses.
#[derive(Debug, Clone)]
pub struct PartitionProblem {
    /// Permutation of `1..=n`; positions `0..n/2` form group A.
    values: Vec<usize>,
    /// `n / 2`: first index of group B.
    half: usize,
    /// `2·sum(A) − S` (doubled sum surplus of group A).
    sum_surplus: i64,
    /// `2·sumsq(A) − Q` (doubled square surplus of group A).
    sq_surplus: i64,
    cost: u64,
    /// Maintained per-position errors (see the module docs for the rule).
    errors: Vec<u64>,
}

impl PartitionProblem {
    /// Create an instance over `1..=n`, initialised with the identity permutation.
    ///
    /// # Panics
    /// Panics if `n` is zero or odd (the two groups must have equal cardinality).
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(2),
            "partition order must be positive and even"
        );
        let mut p = Self {
            values: (1..=n).collect(),
            half: n / 2,
            sum_surplus: 0,
            sq_surplus: 0,
            cost: 0,
            errors: vec![0; n],
        };
        p.rebuild();
        p
    }

    /// Heap bytes of an order-`n` instance: values and errors per position.
    pub(crate) const fn heap_bytes(n: usize) -> u128 {
        16 * n as u128
    }

    /// Is `p` in group A?
    #[inline]
    fn in_first(&self, p: usize) -> bool {
        p < self.half
    }

    /// Error of one position under the documented projection rule, given the
    /// current surpluses.
    #[inline]
    fn error_at(&self, p: usize) -> u64 {
        let v = self.values[p] as i64;
        // +1 on the A side, −1 on the B side (whose surplus is the negation).
        let side = if self.in_first(p) { 1 } else { -1 };
        let mut err = 0i64;
        if self.sum_surplus * side > 0 {
            err += (2 * v).min(self.sum_surplus.abs());
        }
        if self.sq_surplus * side > 0 {
            err += (2 * v * v).min(self.sq_surplus.abs());
        }
        err as u64
    }

    fn rebuild(&mut self) {
        let n = self.values.len() as i64;
        let total_sum = n * (n + 1) / 2;
        let total_sq = n * (n + 1) * (2 * n + 1) / 6;
        let first_sum: i64 = self.values[..self.half].iter().map(|&v| v as i64).sum();
        let first_sq: i64 = self.values[..self.half]
            .iter()
            .map(|&v| (v * v) as i64)
            .sum();
        self.sum_surplus = 2 * first_sum - total_sum;
        self.sq_surplus = 2 * first_sq - total_sq;
        self.cost = (self.sum_surplus.abs() + self.sq_surplus.abs()) as u64;
        for p in 0..self.values.len() {
            self.errors[p] = self.error_at(p);
        }
    }

    /// Cost after moving value `a` out of group A and value `b` in, without
    /// committing anything.
    #[inline]
    fn cost_after_exchange(&self, a: i64, b: i64) -> u64 {
        let d = b - a;
        ((self.sum_surplus + 2 * d).abs() + (self.sq_surplus + 2 * (b * b - a * a)).abs()) as u64
    }

    /// Debug helper: does the maintained state match a recompute?
    fn state_consistency_check(&self) -> bool {
        let mut fresh = Self::new(self.values.len());
        fresh.set_configuration(&self.values);
        fresh.sum_surplus == self.sum_surplus
            && fresh.sq_surplus == self.sq_surplus
            && fresh.cost == self.cost
            && fresh.errors == self.errors
    }
}

impl PermutationProblem for PartitionProblem {
    fn size(&self) -> usize {
        self.values.len()
    }

    fn set_configuration(&mut self, values: &[usize]) {
        self.values = values.to_vec();
        self.rebuild();
    }

    fn configuration(&self) -> &[usize] {
        &self.values
    }

    fn global_cost(&self) -> u64 {
        self.cost
    }

    fn variable_errors(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.errors);
    }

    fn cached_errors(&self) -> Option<&[u64]> {
        Some(&self.errors)
    }

    /// O(1): a within-half swap never changes the partition; a cross-half swap
    /// shifts both surpluses by the doubled exchanged amounts.
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        if i == j || self.in_first(i) == self.in_first(j) {
            return 0;
        }
        let (a, b) = if self.in_first(i) {
            (self.values[i] as i64, self.values[j] as i64)
        } else {
            (self.values[j] as i64, self.values[i] as i64)
        };
        self.cost_after_exchange(a, b) as i64 - self.cost as i64
    }

    /// O(1) per candidate: the culprit's side and value are hoisted; same-side
    /// candidates keep the current cost, cross-side candidates are scored from the
    /// two cached surpluses alone.
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        let n = self.values.len();
        out.clear();
        out.resize(n, self.cost);
        let m = culprit;
        let vm = self.values[m] as i64;
        let m_first = self.in_first(m);
        for (j, slot) in out.iter_mut().enumerate() {
            if j == m || self.in_first(j) == m_first {
                continue;
            }
            let vj = self.values[j] as i64;
            let (a, b) = if m_first { (vm, vj) } else { (vj, vm) };
            *slot = self.cost_after_exchange(a, b);
        }
        debug_assert!(
            out.iter()
                .enumerate()
                .all(|(j, &c)| c == (self.cost as i64 + self.delta_for_swap(m, j)) as u64),
            "batched probe diverged from the per-pair delta path (culprit {m})"
        );
    }

    fn apply_swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        if self.in_first(i) == self.in_first(j) {
            // Same group: the partition is unchanged, and errors depend only on
            // (side, value), so the two positions exchange theirs.
            self.values.swap(i, j);
            self.errors.swap(i, j);
        } else {
            let (a, b) = if self.in_first(i) {
                (self.values[i] as i64, self.values[j] as i64)
            } else {
                (self.values[j] as i64, self.values[i] as i64)
            };
            self.cost = self.cost_after_exchange(a, b);
            let d = b - a;
            self.sum_surplus += 2 * d;
            self.sq_surplus += 2 * (b * b - a * a);
            self.values.swap(i, j);
            // The surpluses changed sign or magnitude for every position: refresh
            // the whole vector (O(n), same order as one probe pass).
            for p in 0..self.values.len() {
                self.errors[p] = self.error_at(p);
            }
        }
        debug_assert!(
            self.state_consistency_check(),
            "maintained partition state diverged after swap ({i}, {j})"
        );
    }

    fn name(&self) -> &'static str {
        "number-partitioning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AsConfig;
    use crate::engine::Engine;
    use xrand::{default_rng, random_permutation, RandExt};

    #[test]
    fn known_balanced_partition_has_zero_cost() {
        // {1, 4, 6, 7} vs {2, 3, 5, 8}: sums 18/18, square sums 102/102.
        let mut p = PartitionProblem::new(8);
        p.set_configuration(&[1, 4, 6, 7, 2, 3, 5, 8]);
        assert_eq!(p.global_cost(), 0);
        assert!(p.is_solution());
        let mut errs = Vec::new();
        p.variable_errors(&mut errs);
        assert!(errs.iter().all(|&e| e == 0));
    }

    #[test]
    fn identity_cost_matches_hand_computation() {
        // n = 4: A = {1,2} → D = 2·3 − 10 = −4, Dq = 2·5 − 30 = −20 → cost 24.
        let p = PartitionProblem::new(4);
        assert_eq!(p.global_cost(), 24);
        // the deficit side is A, so only B positions are charged
        assert_eq!(&p.errors[..2], &[0, 0]);
        assert!(p.errors[2] > 0 && p.errors[3] > 0);
    }

    #[test]
    fn errors_are_positive_on_the_surplus_side_whenever_cost_is() {
        let mut rng = default_rng(17);
        for n in [4usize, 8, 12, 20] {
            let mut init = random_permutation(n, &mut rng);
            init.iter_mut().for_each(|v| *v += 1);
            let mut p = PartitionProblem::new(n);
            p.set_configuration(&init);
            if p.global_cost() > 0 {
                assert!(p.errors.iter().any(|&e| e > 0), "n = {n}");
            }
        }
    }

    #[test]
    fn incremental_state_survives_random_swaps() {
        let mut rng = default_rng(29);
        for n in [2usize, 4, 6, 10, 16] {
            let mut init = random_permutation(n, &mut rng);
            init.iter_mut().for_each(|v| *v += 1);
            let mut p = PartitionProblem::new(n);
            p.set_configuration(&init);
            for _ in 0..200 {
                let i = rng.index(n);
                let j = rng.index(n);
                let predicted = (p.global_cost() as i64 + p.delta_for_swap(i, j)) as u64;
                p.apply_swap(i, j); // carries its own consistency debug_assert
                assert_eq!(p.global_cost(), predicted, "n={n}");
            }
        }
    }

    #[test]
    fn probes_are_pure_and_within_half_swaps_are_free() {
        let p = PartitionProblem::new(10);
        let before = p.configuration().to_vec();
        let cost = p.global_cost();
        assert_eq!(p.delta_for_swap(0, 3), 0, "within-half swap is cost-free");
        assert_eq!(p.delta_for_swap(7, 9), 0);
        let mut probe = Vec::new();
        p.probe_partners(2, &mut probe);
        assert_eq!(p.configuration(), &before[..]);
        assert_eq!(p.global_cost(), cost);
        assert_eq!(probe[2], cost);
        assert!(probe[..5].iter().all(|&c| c == cost));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_orders_are_rejected() {
        let _ = PartitionProblem::new(7);
    }

    #[test]
    fn adaptive_search_solves_solvable_orders() {
        // Balanced partitions with equal sums and square sums exist for these.
        for n in [8usize, 12, 16] {
            let cfg = AsConfig::builder().use_custom_reset(false).build();
            let mut engine = Engine::new(PartitionProblem::new(n), cfg, 7 + n as u64);
            let r = engine.solve();
            assert!(r.is_solved(), "n = {n}");
            let mut check = PartitionProblem::new(n);
            check.set_configuration(&r.solution.unwrap());
            assert_eq!(check.global_cost(), 0);
        }
    }
}
