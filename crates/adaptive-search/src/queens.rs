//! The N-Queens problem as a permutation problem for Adaptive Search.
//!
//! N-Queens is one of the classical benchmarks the paper quotes when situating AS
//! performance ("about 40 times faster than Comet on the N-queen problem for
//! N = 10000 to 50000", §III-A).  The model: a queen per column, `v[i]` being its row.
//! Because the configuration is a permutation, row and column conflicts are impossible
//! and only diagonal conflicts are scored.
//!
//! The implementation maintains per-diagonal occupancy counters so cost updates are
//! O(1) per swap — the same incremental philosophy as the Costas conflict table.
//! Alongside the counters it keeps per-diagonal member sets and a maintained
//! per-column error vector: a swap only changes the occupancy of ≤ 8 diagonals, so
//! the errors of the queens on those diagonals are patched in place (expected O(1)
//! per swap) and culprit selection reads the cached vector instead of recomputing
//! all `n` entries.

use costas::BucketMerge;

use crate::problem::PermutationProblem;

/// N-Queens with incremental diagonal counting.
#[derive(Debug, Clone)]
pub struct QueensProblem {
    values: Vec<usize>,
    /// Occupancy of the `2n − 1` "sum" diagonals (`row + col`).
    diag_sum: Vec<u32>,
    /// Occupancy of the `2n − 1` "difference" diagonals (`row − col + n − 1`).
    diag_diff: Vec<u32>,
    cost: u64,
    /// Maintained per-column errors: a queen on a diagonal with `k` occupants
    /// participates in `k − 1` conflicts, summed over her two diagonals.
    errors: Vec<u64>,
    /// Columns currently sitting on each "sum" diagonal (unsorted).
    sum_members: Vec<Vec<u32>>,
    /// Columns currently sitting on each "difference" diagonal (unsorted).
    diff_members: Vec<Vec<u32>>,
}

impl QueensProblem {
    /// Create an instance of order `n`, initialised with the identity permutation.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "N-Queens order must be positive");
        let identity: Vec<usize> = (1..=n).collect();
        let mut p = Self {
            values: identity,
            diag_sum: vec![0; 2 * n - 1],
            diag_diff: vec![0; 2 * n - 1],
            cost: 0,
            errors: vec![0; n],
            sum_members: vec![Vec::new(); 2 * n - 1],
            diff_members: vec![Vec::new(); 2 * n - 1],
        };
        p.rebuild();
        p
    }

    /// Heap bytes of an order-`n` instance: values and errors, the two
    /// `2n − 1`-diagonal count arrays and member-list headers, and the member
    /// lists themselves (n entries per family, each non-empty list holding at
    /// most twice its length or four entries).
    pub(crate) const fn heap_bytes(n: usize) -> u128 {
        let (n, diagonals) = (n as u128, (2 * n as u128).saturating_sub(1));
        let header = std::mem::size_of::<Vec<u32>>() as u128;
        16 * n + 2 * diagonals * (4 + header) + 2 * 4 * (2 * n + 4 * diagonals)
    }

    fn n(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn sum_index(&self, col: usize) -> usize {
        // row + col, both 0-based: (v − 1) + col ∈ [0, 2n − 2]
        self.values[col] - 1 + col
    }

    #[inline]
    fn diff_index(&self, col: usize) -> usize {
        // row − col + (n − 1) ∈ [0, 2n − 2]
        self.values[col] - 1 + self.n() - 1 - col
    }

    fn rebuild(&mut self) {
        self.diag_sum.iter_mut().for_each(|c| *c = 0);
        self.diag_diff.iter_mut().for_each(|c| *c = 0);
        self.sum_members.iter_mut().for_each(|m| m.clear());
        self.diff_members.iter_mut().for_each(|m| m.clear());
        self.cost = 0;
        for col in 0..self.n() {
            let s = self.sum_index(col);
            let d = self.diff_index(col);
            self.cost += u64::from(self.diag_sum[s]) + u64::from(self.diag_diff[d]);
            self.diag_sum[s] += 1;
            self.diag_diff[d] += 1;
            self.sum_members[s].push(col as u32);
            self.diff_members[d].push(col as u32);
        }
        self.errors.iter_mut().for_each(|e| *e = 0);
        for col in 0..self.n() {
            let s = self.sum_index(col);
            let d = self.diff_index(col);
            self.errors[col] = u64::from(self.diag_sum[s] - 1) + u64::from(self.diag_diff[d] - 1);
        }
    }

    /// Remove column `col`'s queen from the diagonal counters, member sets and the
    /// error vector.  `errors[col]` is left stale until the matching
    /// [`QueensProblem::attach`].
    fn detach(&mut self, col: usize) {
        let s = self.sum_index(col);
        let d = self.diff_index(col);
        let colu = col as u32;
        let m = &mut self.sum_members[s];
        m.swap_remove(m.iter().position(|&c| c == colu).expect("queen tracked"));
        self.diag_sum[s] -= 1;
        for &c in &self.sum_members[s] {
            self.errors[c as usize] -= 1;
        }
        let m = &mut self.diff_members[d];
        m.swap_remove(m.iter().position(|&c| c == colu).expect("queen tracked"));
        self.diag_diff[d] -= 1;
        for &c in &self.diff_members[d] {
            self.errors[c as usize] -= 1;
        }
        self.cost -= u64::from(self.diag_sum[s]) + u64::from(self.diag_diff[d]);
    }

    /// Add column `col`'s queen to the diagonal counters, member sets and the
    /// error vector (recomputing `errors[col]` from the updated occupancies).
    fn attach(&mut self, col: usize) {
        let s = self.sum_index(col);
        let d = self.diff_index(col);
        self.cost += u64::from(self.diag_sum[s]) + u64::from(self.diag_diff[d]);
        for &c in &self.sum_members[s] {
            self.errors[c as usize] += 1;
        }
        self.sum_members[s].push(col as u32);
        self.diag_sum[s] += 1;
        for &c in &self.diff_members[d] {
            self.errors[c as usize] += 1;
        }
        self.diff_members[d].push(col as u32);
        self.diag_diff[d] += 1;
        self.errors[col] = u64::from(self.diag_sum[s] - 1) + u64::from(self.diag_diff[d] - 1);
    }

    /// Debug helper: does the maintained error vector match a recompute from the
    /// diagonal occupancies?
    fn errors_consistency_check(&self) -> bool {
        (0..self.n()).all(|col| {
            let s = self.sum_index(col);
            let d = self.diff_index(col);
            self.errors[col] == u64::from(self.diag_sum[s] - 1) + u64::from(self.diag_diff[d] - 1)
        })
    }

    /// Conflicts a diagonal with `c` occupants contributes: `C(c, 2)`.
    #[inline]
    fn pair_conflicts(c: i64) -> i64 {
        c * (c - 1) / 2
    }

    /// Net conflict change across one diagonal family for up to four ±1 occupancy
    /// changes, merged per diagonal (a swap can hit the same diagonal twice).
    fn family_delta(counts: &[u32], changes: [(usize, i64); 4]) -> i64 {
        let mut touched = BucketMerge::<4>::new();
        for (idx, change) in changes {
            touched.push(idx, change);
        }
        let mut delta = 0i64;
        for (idx, net) in touched.nets() {
            let c = i64::from(counts[idx]);
            delta += Self::pair_conflicts(c + net) - Self::pair_conflicts(c);
        }
        delta
    }

    /// Reference O(n²) cost used by tests.
    #[cfg(test)]
    fn cost_from_scratch(values: &[usize]) -> u64 {
        let n = values.len();
        let mut cost = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dv = values[i] as i64 - values[j] as i64;
                if dv.unsigned_abs() as usize == j - i {
                    cost += 1;
                }
            }
        }
        cost
    }
}

impl PermutationProblem for QueensProblem {
    fn size(&self) -> usize {
        self.n()
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

    /// O(1): only the ≤ 4 diagonals of each family touched by the two queens can
    /// change occupancy, and a diagonal with `c` occupants holds `C(c, 2)`
    /// conflicts.
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        if i == j {
            return 0;
        }
        let n = self.n();
        let (vi, vj) = (self.values[i], self.values[j]);
        Self::family_delta(
            &self.diag_sum,
            [
                (vi - 1 + i, -1),
                (vj - 1 + j, -1),
                (vj - 1 + i, 1),
                (vi - 1 + j, 1),
            ],
        ) + Self::family_delta(
            &self.diag_diff,
            [
                (vi - 1 + n - 1 - i, -1),
                (vj - 1 + n - 1 - j, -1),
                (vj - 1 + n - 1 - i, 1),
                (vi - 1 + n - 1 - j, 1),
            ],
        )
    }

    /// O(1) per candidate; the culprit queen's departure from her two diagonals is
    /// shared by every candidate, so it is scored once up front and the
    /// per-candidate pass only merges the three remaining ±1 occupancy changes per
    /// family against that baseline.
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        let n = self.n();
        out.clear();
        out.resize(n, self.cost);
        if n < 2 {
            return;
        }
        let m = culprit;
        let vm = self.values[m];
        let (sum_m, diff_m) = (vm - 1 + m, vm - 1 + n - 1 - m);
        // Hoisted removal: taking the culprit's queen off a diagonal with c
        // occupants changes its conflicts by C(c − 1, 2) − C(c, 2) = 1 − c.
        let removal = 2 - i64::from(self.diag_sum[sum_m]) - i64::from(self.diag_diff[diff_m]);
        // Three changes per family against the culprit-removed baseline.
        let probe_family = |counts: &[u32], removed: usize, changes: [(usize, i64); 3]| -> i64 {
            let mut touched = BucketMerge::<3>::new();
            for (idx, change) in changes {
                touched.push(idx, change);
            }
            let mut delta = 0i64;
            for (idx, net) in touched.nets() {
                let b = i64::from(counts[idx]) - i64::from(idx == removed);
                delta += Self::pair_conflicts(b + net) - Self::pair_conflicts(b);
            }
            delta
        };
        for (j, slot) in out.iter_mut().enumerate() {
            if j == m {
                continue;
            }
            let vj = self.values[j];
            let delta = removal
                + probe_family(
                    &self.diag_sum,
                    sum_m,
                    [(vj - 1 + m, 1), (vj - 1 + j, -1), (vm - 1 + j, 1)],
                )
                + probe_family(
                    &self.diag_diff,
                    diff_m,
                    [
                        (vj - 1 + n - 1 - m, 1),
                        (vj - 1 + n - 1 - j, -1),
                        (vm - 1 + n - 1 - j, 1),
                    ],
                );
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
        self.detach(i);
        self.detach(j);
        self.values.swap(i, j);
        self.attach(i);
        self.attach(j);
        debug_assert!(
            self.errors_consistency_check(),
            "maintained error vector diverged after swap ({i}, {j})"
        );
    }

    fn name(&self) -> &'static str {
        "n-queens"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AsConfig;
    use crate::engine::Engine;
    use xrand::{default_rng, random_permutation, RandExt};

    #[test]
    fn known_solution_has_zero_cost() {
        // A classical solution for n = 8.
        let mut p = QueensProblem::new(8);
        p.set_configuration(&[5, 3, 1, 7, 2, 8, 6, 4]);
        assert_eq!(p.global_cost(), 0);
        assert!(p.is_solution());
    }

    #[test]
    fn identity_has_maximal_diagonal_conflicts() {
        let p = QueensProblem::new(5);
        // identity: all queens on the main difference-diagonal → C(5,2) = 10 conflicts
        assert_eq!(p.global_cost(), 10);
    }

    #[test]
    fn incremental_cost_matches_scratch_under_random_swaps() {
        let mut rng = default_rng(3);
        for n in [4usize, 8, 16, 33] {
            let mut init = random_permutation(n, &mut rng);
            init.iter_mut().for_each(|v| *v += 1);
            let mut p = QueensProblem::new(n);
            p.set_configuration(&init);
            for _ in 0..200 {
                let i = rng.index(n);
                let j = rng.index(n);
                p.apply_swap(i, j);
                assert_eq!(
                    p.global_cost(),
                    QueensProblem::cost_from_scratch(p.configuration())
                );
            }
        }
    }

    #[test]
    fn variable_errors_sum_is_twice_cost() {
        let mut rng = default_rng(9);
        let n = 20;
        let mut init = random_permutation(n, &mut rng);
        init.iter_mut().for_each(|v| *v += 1);
        let mut p = QueensProblem::new(n);
        p.set_configuration(&init);
        let mut errs = Vec::new();
        p.variable_errors(&mut errs);
        assert_eq!(errs.iter().sum::<u64>(), 2 * p.global_cost());
    }

    #[test]
    fn adaptive_search_solves_queens() {
        for n in [8usize, 20, 50] {
            let cfg = AsConfig::default();
            let mut engine = Engine::new(QueensProblem::new(n), cfg, n as u64);
            let r = engine.solve();
            assert!(r.is_solved(), "n = {n}");
            assert_eq!(QueensProblem::cost_from_scratch(&r.solution.unwrap()), 0);
        }
    }
}
