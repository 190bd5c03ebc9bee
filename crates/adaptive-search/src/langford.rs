//! Langford's problem L(2, n) (CSPLib prob024) for Adaptive Search.
//!
//! Arrange two copies of each number `1..=n` in a row of `2n` cells so that the two
//! occurrences of `k` are separated by exactly `k` other cells (their positions
//! differ by `k + 1`).  The classical local-search encoding is a permutation of
//! `1..=2n`: value `2k − 1` is the first occurrence of `k` and value `2k` the
//! second, so the `alldifferent` structure is implicit and the elementary move is
//! the engine's position swap — the same shape as every other model in this crate.
//! L(2, n) has solutions exactly for `n ≡ 0 or 3 (mod 4)`; the cost function below
//! is well defined (and the evaluation layers exact) for every `n`, which is what
//! the conformance suite exercises.
//!
//! Cost model: for each number `k` with occurrence positions `p` and `q`, the
//! deviation `| |p − q| − (k + 1) |`; the global cost is the sum over all `n`
//! pairs and the per-position error is the deviation of the pair whose value sits
//! there (so the error vector sums to twice the cost).  A swap moves two values,
//! hence touches at most two pairs: the read-only probes are O(1) per candidate
//! and the apply path maintains cost, the pair deviations, the inverse
//! permutation and the error vector in O(1).

use crate::problem::PermutationProblem;

/// Langford pairing L(2, n) with incrementally maintained pair deviations.
#[derive(Debug, Clone)]
pub struct LangfordProblem {
    /// Number of pairs `n`; the configuration has `2n` variables.
    pairs: usize,
    /// Encoded configuration: a permutation of `1..=2n`.
    values: Vec<usize>,
    /// Inverse permutation: `pos_of[v - 1]` is the position currently holding `v`.
    pos_of: Vec<usize>,
    /// `pair_dev[k0]` = deviation of 0-based pair `k0` (separation error of number
    /// `k0 + 1`).
    pair_dev: Vec<u64>,
    cost: u64,
    /// Maintained per-position errors: the deviation of the pair whose value
    /// occupies the position.
    errors: Vec<u64>,
}

impl LangfordProblem {
    /// Create an L(2, n) instance with `n` pairs (`2n` variables), initialised with
    /// the identity permutation.
    ///
    /// # Panics
    /// Panics if `pairs == 0`.
    pub fn new(pairs: usize) -> Self {
        assert!(pairs > 0, "Langford needs at least one pair");
        let mut p = Self {
            pairs,
            values: (1..=2 * pairs).collect(),
            pos_of: vec![0; 2 * pairs],
            pair_dev: vec![0; pairs],
            cost: 0,
            errors: vec![0; 2 * pairs],
        };
        p.rebuild();
        p
    }

    /// Heap bytes of an instance with `pairs` pairs: values, inverse
    /// permutation and errors over `2n` positions, one deviation per pair.
    pub(crate) const fn heap_bytes(pairs: usize) -> u128 {
        56 * pairs as u128
    }

    /// Number of pairs `n` of the instance.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// 0-based pair id of an encoded value (`1..=2n`).
    #[inline]
    fn pair_of(v: usize) -> usize {
        (v - 1) / 2
    }

    /// The other encoded value of the same pair.
    #[inline]
    fn mate(v: usize) -> usize {
        if v % 2 == 1 {
            v + 1
        } else {
            v - 1
        }
    }

    /// Deviation of pair `k0` when its occurrences sit at positions `p` and `q`:
    /// the required separation of number `k0 + 1` is `k0 + 2` cells.
    #[inline]
    fn dev(k0: usize, p: usize, q: usize) -> u64 {
        p.abs_diff(q).abs_diff(k0 + 2) as u64
    }

    fn rebuild(&mut self) {
        for (p, &v) in self.values.iter().enumerate() {
            self.pos_of[v - 1] = p;
        }
        self.cost = 0;
        for k0 in 0..self.pairs {
            let p = self.pos_of[2 * k0];
            let q = self.pos_of[2 * k0 + 1];
            let d = Self::dev(k0, p, q);
            self.pair_dev[k0] = d;
            self.cost += d;
        }
        for (p, &v) in self.values.iter().enumerate() {
            self.errors[p] = self.pair_dev[Self::pair_of(v)];
        }
    }

    /// Debug helper: does the maintained state match a recompute from the current
    /// configuration?
    fn state_consistency_check(&self) -> bool {
        let mut fresh = Self::new(self.pairs);
        fresh.set_configuration(&self.values);
        fresh.cost == self.cost
            && fresh.pair_dev == self.pair_dev
            && fresh.errors == self.errors
            && fresh.pos_of == self.pos_of
    }
}

impl PermutationProblem for LangfordProblem {
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

    /// O(1): a swap moves two values, so at most the two pairs they belong to
    /// change deviation; each is re-scored against its (unmoved) mate position.
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        if i == j {
            return 0;
        }
        let (vi, vj) = (self.values[i], self.values[j]);
        let (ki, kj) = (Self::pair_of(vi), Self::pair_of(vj));
        if ki == kj {
            // Swapping the two occurrences of the same number leaves the
            // separation (and every other pair) unchanged.
            return 0;
        }
        // The mates are at distinct third positions: vj is not vi's mate (different
        // pairs), so a mate position can coincide with neither i nor j.
        let qi = self.pos_of[Self::mate(vi) - 1];
        let qj = self.pos_of[Self::mate(vj) - 1];
        (Self::dev(ki, j, qi) as i64 - self.pair_dev[ki] as i64)
            + (Self::dev(kj, i, qj) as i64 - self.pair_dev[kj] as i64)
    }

    /// O(1) per candidate: the culprit's value, pair and mate position are hoisted
    /// out of the loop; each candidate re-scores the culprit's pair at its new
    /// position plus the candidate's own pair at the culprit's position.
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        let n = self.values.len();
        out.clear();
        out.resize(n, self.cost);
        let m = culprit;
        let vm = self.values[m];
        let km = Self::pair_of(vm);
        let qm = self.pos_of[Self::mate(vm) - 1];
        let dev_km = self.pair_dev[km] as i64;
        for (j, slot) in out.iter_mut().enumerate() {
            if j == m {
                continue;
            }
            let vj = self.values[j];
            let kj = Self::pair_of(vj);
            if kj == km {
                // the mate: swapping the two occurrences changes nothing
                continue;
            }
            let qj = self.pos_of[Self::mate(vj) - 1];
            let delta = (Self::dev(km, j, qm) as i64 - dev_km)
                + (Self::dev(kj, m, qj) as i64 - self.pair_dev[kj] as i64);
            *slot = (self.cost as i64 + delta) as u64;
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
        let (vi, vj) = (self.values[i], self.values[j]);
        self.values.swap(i, j);
        self.pos_of[vi - 1] = j;
        self.pos_of[vj - 1] = i;
        let (ki, kj) = (Self::pair_of(vi), Self::pair_of(vj));
        if ki != kj {
            for &k in &[ki, kj] {
                let p = self.pos_of[2 * k];
                let q = self.pos_of[2 * k + 1];
                let new = Self::dev(k, p, q);
                self.cost = self.cost - self.pair_dev[k] + new;
                self.pair_dev[k] = new;
                self.errors[p] = new;
                self.errors[q] = new;
            }
        }
        debug_assert!(
            self.state_consistency_check(),
            "maintained Langford state diverged after swap ({i}, {j})"
        );
    }

    fn name(&self) -> &'static str {
        "langford"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AsConfig;
    use crate::engine::Engine;
    use xrand::{default_rng, random_permutation, RandExt};

    /// Encode a row of *numbers* (each of `1..=n` twice, e.g. `[3,1,2,1,3,2]`)
    /// into the value representation (first occurrence `2k − 1`, second `2k`).
    fn encode(numbers: &[usize]) -> Vec<usize> {
        let mut seen = vec![false; numbers.len() / 2];
        numbers
            .iter()
            .map(|&k| {
                let first = !seen[k - 1];
                seen[k - 1] = true;
                if first {
                    2 * k - 1
                } else {
                    2 * k
                }
            })
            .collect()
    }

    #[test]
    fn known_solutions_have_zero_cost() {
        let mut p3 = LangfordProblem::new(3);
        p3.set_configuration(&encode(&[3, 1, 2, 1, 3, 2]));
        assert_eq!(p3.global_cost(), 0, "{:?}", p3.configuration());
        assert!(p3.is_solution());
        let mut p4 = LangfordProblem::new(4);
        p4.set_configuration(&encode(&[4, 1, 3, 1, 2, 4, 3, 2]));
        assert_eq!(p4.global_cost(), 0);
    }

    #[test]
    fn identity_cost_matches_hand_count() {
        // identity: pair k sits at positions 2k−2 and 2k−1, so the occurrences
        // are 1 apart where k+1 is required → deviation k, total Σ k = n(n+1)/2.
        for n in [1usize, 2, 5, 9] {
            let p = LangfordProblem::new(n);
            assert_eq!(p.global_cost(), (n * (n + 1) / 2) as u64, "n = {n}");
        }
    }

    #[test]
    fn errors_sum_to_twice_the_cost() {
        let mut rng = default_rng(11);
        for n in [2usize, 5, 8] {
            let mut init = random_permutation(2 * n, &mut rng);
            init.iter_mut().for_each(|v| *v += 1);
            let mut p = LangfordProblem::new(n);
            p.set_configuration(&init);
            let mut errs = Vec::new();
            p.variable_errors(&mut errs);
            assert_eq!(errs.iter().sum::<u64>(), 2 * p.global_cost(), "n = {n}");
        }
    }

    #[test]
    fn incremental_state_survives_random_swaps() {
        let mut rng = default_rng(23);
        for n in [1usize, 2, 3, 6, 12] {
            let mut init = random_permutation(2 * n, &mut rng);
            init.iter_mut().for_each(|v| *v += 1);
            let mut p = LangfordProblem::new(n);
            p.set_configuration(&init);
            for _ in 0..200 {
                let i = rng.index(2 * n);
                let j = rng.index(2 * n);
                let predicted = (p.global_cost() as i64 + p.delta_for_swap(i, j)) as u64;
                p.apply_swap(i, j); // carries its own consistency debug_assert
                assert_eq!(p.global_cost(), predicted, "n={n}");
            }
        }
    }

    #[test]
    fn probes_are_pure() {
        let p = LangfordProblem::new(6);
        let before = p.configuration().to_vec();
        let cost = p.global_cost();
        let _ = p.delta_for_swap(1, 9);
        let mut probe = Vec::new();
        p.probe_partners(3, &mut probe);
        assert_eq!(p.configuration(), &before[..]);
        assert_eq!(p.global_cost(), cost);
        assert_eq!(probe[3], cost);
    }

    #[test]
    fn adaptive_search_solves_solvable_orders() {
        // L(2, n) is solvable iff n ≡ 0 or 3 (mod 4).
        for n in [3usize, 4, 7, 8] {
            let cfg = AsConfig::default();
            let mut engine = Engine::new(LangfordProblem::new(n), cfg, 3 + n as u64);
            let r = engine.solve();
            assert!(r.is_solved(), "n = {n}");
            let mut check = LangfordProblem::new(n);
            check.set_configuration(&r.solution.unwrap());
            assert_eq!(check.global_cost(), 0);
        }
    }
}
