//! The Magic Square problem (CSPLib prob019) for Adaptive Search.
//!
//! The paper's §III quotes Magic Square results twice: AS is "100 to 500 times faster
//! than Comet" on it, and the plateau tuning of §III-B1 "boosts the performance … by
//! an order of magnitude" — the current AS can solve 400×400 squares.  The model here
//! is the same as in the AS library: the configuration is a permutation of `1..=n²`
//! laid out row-major on the `n × n` board, and the cost is the sum of the absolute
//! deviations of every row sum, column sum and the two main diagonal sums from the
//! magic constant `M = n(n² + 1)/2`.
//!
//! Row/column/diagonal sums are maintained incrementally, so a swap's cost delta is
//! O(1); the per-cell error vector is maintained alongside them (a swap shifts the
//! errors of the ≤ 6 lines whose sums change, O(side)), so culprit selection reads
//! a cached vector instead of recomputing all `side²` entries.

use crate::problem::PermutationProblem;

/// Magic square of side `n` (so `n²` variables).
#[derive(Debug, Clone)]
pub struct MagicSquareProblem {
    side: usize,
    values: Vec<usize>,
    row_sums: Vec<i64>,
    col_sums: Vec<i64>,
    diag_main: i64,
    diag_anti: i64,
    magic: i64,
    cost: u64,
    /// Maintained per-cell errors: the summed deviations `|sum − M|` of every line
    /// the cell sits on.  A swap changes the deviation of at most 6 lines, so the
    /// vector is patched in O(side) instead of recomputed in O(side²).
    errors: Vec<u64>,
}

impl MagicSquareProblem {
    /// Create an instance with side length `n`, initialised row-major with `1..=n²`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(side: usize) -> Self {
        assert!(side > 0, "magic square side must be positive");
        let n2 = side * side;
        let mut p = Self {
            side,
            values: (1..=n2).collect(),
            row_sums: vec![0; side],
            col_sums: vec![0; side],
            diag_main: 0,
            diag_anti: 0,
            magic: (side * (n2 + 1) / 2) as i64,
            cost: 0,
            errors: vec![0; n2],
        };
        p.rebuild();
        p
    }

    /// Heap bytes of a side-`side` instance: values and errors per cell, row
    /// and column sums per line.
    pub(crate) const fn heap_bytes(side: usize) -> u128 {
        let side = side as u128;
        16 * side * side + 16 * side
    }

    /// Side length of the square.
    pub fn side(&self) -> usize {
        self.side
    }

    /// The magic constant `n(n² + 1)/2`.
    pub fn magic_constant(&self) -> i64 {
        self.magic
    }

    #[inline]
    fn row_of(&self, idx: usize) -> usize {
        idx / self.side
    }

    #[inline]
    fn col_of(&self, idx: usize) -> usize {
        idx % self.side
    }

    #[inline]
    fn on_main_diag(&self, idx: usize) -> bool {
        self.row_of(idx) == self.col_of(idx)
    }

    #[inline]
    fn on_anti_diag(&self, idx: usize) -> bool {
        self.row_of(idx) + self.col_of(idx) == self.side - 1
    }

    fn rebuild(&mut self) {
        self.row_sums.iter_mut().for_each(|s| *s = 0);
        self.col_sums.iter_mut().for_each(|s| *s = 0);
        self.diag_main = 0;
        self.diag_anti = 0;
        for idx in 0..self.values.len() {
            let v = self.values[idx] as i64;
            let (row, col) = (self.row_of(idx), self.col_of(idx));
            self.row_sums[row] += v;
            self.col_sums[col] += v;
            if self.on_main_diag(idx) {
                self.diag_main += v;
            }
            if self.on_anti_diag(idx) {
                self.diag_anti += v;
            }
        }
        self.cost = self.compute_cost();
        self.recompute_errors();
    }

    /// Rebuild the per-cell error vector from the cached line sums (O(side²)).
    fn recompute_errors(&mut self) {
        for idx in 0..self.values.len() {
            let mut err = (self.row_sums[self.row_of(idx)] - self.magic).unsigned_abs()
                + (self.col_sums[self.col_of(idx)] - self.magic).unsigned_abs();
            if self.on_main_diag(idx) {
                err += (self.diag_main - self.magic).unsigned_abs();
            }
            if self.on_anti_diag(idx) {
                err += (self.diag_anti - self.magic).unsigned_abs();
            }
            self.errors[idx] = err;
        }
    }

    /// Shift the error of every cell of row `r` by `delta`.
    fn shift_row_errors(&mut self, r: usize, delta: i64) {
        if delta != 0 {
            for idx in r * self.side..(r + 1) * self.side {
                self.errors[idx] = self.errors[idx].wrapping_add_signed(delta);
            }
        }
    }

    /// Shift the error of every cell of column `c` by `delta`.
    fn shift_col_errors(&mut self, c: usize, delta: i64) {
        if delta != 0 {
            for k in 0..self.side {
                let idx = k * self.side + c;
                self.errors[idx] = self.errors[idx].wrapping_add_signed(delta);
            }
        }
    }

    /// Shift the error of every cell of the main diagonal by `delta`.
    fn shift_main_diag_errors(&mut self, delta: i64) {
        if delta != 0 {
            for k in 0..self.side {
                let idx = k * (self.side + 1);
                self.errors[idx] = self.errors[idx].wrapping_add_signed(delta);
            }
        }
    }

    /// Shift the error of every cell of the anti-diagonal by `delta`.
    fn shift_anti_diag_errors(&mut self, delta: i64) {
        if delta != 0 {
            for k in 0..self.side {
                let idx = k * self.side + (self.side - 1 - k);
                self.errors[idx] = self.errors[idx].wrapping_add_signed(delta);
            }
        }
    }

    /// Debug helper: does the maintained error vector match a recompute from the
    /// cached line sums?
    fn errors_consistency_check(&mut self) -> bool {
        let maintained = self.errors.clone();
        self.recompute_errors();
        let ok = maintained == self.errors;
        self.errors = maintained;
        ok
    }

    fn compute_cost(&self) -> u64 {
        let mut cost = 0i64;
        for &s in self.row_sums.iter().chain(self.col_sums.iter()) {
            cost += (s - self.magic).abs();
        }
        cost += (self.diag_main - self.magic).abs();
        cost += (self.diag_anti - self.magic).abs();
        cost as u64
    }

    /// Shift all sums touched by cell `idx` by `delta` (the change in its value).
    fn shift_cell(&mut self, idx: usize, delta: i64) {
        let (row, col) = (self.row_of(idx), self.col_of(idx));
        self.row_sums[row] += delta;
        self.col_sums[col] += delta;
        if self.on_main_diag(idx) {
            self.diag_main += delta;
        }
        if self.on_anti_diag(idx) {
            self.diag_anti += delta;
        }
    }

    /// Signed cost change of moving `delta` units between the lines of cells `i`
    /// and `j` (`delta = v_j − v_i` lands on `i`'s lines and leaves `j`'s).
    /// O(1): at most 2 rows, 2 columns and the 2 main diagonals are touched, and a
    /// line's contribution is just `|sum − M|`.
    fn line_delta(&self, i: usize, j: usize, delta: i64) -> i64 {
        let (ri, rj) = (self.row_of(i), self.row_of(j));
        let (ci, cj) = (self.col_of(i), self.col_of(j));
        let mut change = 0i64;
        let dev = |s: i64| (s - self.magic).abs();
        if ri != rj {
            change += dev(self.row_sums[ri] + delta) - dev(self.row_sums[ri]);
            change += dev(self.row_sums[rj] - delta) - dev(self.row_sums[rj]);
        }
        if ci != cj {
            change += dev(self.col_sums[ci] + delta) - dev(self.col_sums[ci]);
            change += dev(self.col_sums[cj] - delta) - dev(self.col_sums[cj]);
        }
        // The two cells can sit on the same diagonal (net zero) or on opposite
        // ends of it, so the diagonal change is the *sum* of their contributions.
        let main = i64::from(self.on_main_diag(i)) - i64::from(self.on_main_diag(j));
        if main != 0 {
            change += dev(self.diag_main + main * delta) - dev(self.diag_main);
        }
        let anti = i64::from(self.on_anti_diag(i)) - i64::from(self.on_anti_diag(j));
        if anti != 0 {
            change += dev(self.diag_anti + anti * delta) - dev(self.diag_anti);
        }
        change
    }

    /// Reference cost used by tests (recomputes everything).
    #[cfg(test)]
    fn cost_from_scratch(side: usize, values: &[usize]) -> u64 {
        let mut clone = MagicSquareProblem::new(side);
        clone.set_configuration(values);
        clone.compute_cost()
    }
}

impl PermutationProblem for MagicSquareProblem {
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

    /// O(1) from the cached row/column/diagonal sums.
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        if i == j {
            return 0;
        }
        self.line_delta(i, j, self.values[j] as i64 - self.values[i] as i64)
    }

    /// O(1) per candidate: the culprit cell's row, column and diagonal membership
    /// are hoisted out of the loop and every candidate is scored from the cached
    /// line sums alone.
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        let n = self.values.len();
        out.clear();
        out.resize(n, self.cost);
        let vm = self.values[culprit] as i64;
        let (rm, cm) = (self.row_of(culprit), self.col_of(culprit));
        let main_m = i64::from(self.on_main_diag(culprit));
        let anti_m = i64::from(self.on_anti_diag(culprit));
        let (row_m, col_m) = (self.row_sums[rm], self.col_sums[cm]);
        let dev = |s: i64| (s - self.magic).abs();
        for (j, slot) in out.iter_mut().enumerate() {
            if j == culprit {
                continue;
            }
            let d = self.values[j] as i64 - vm;
            let (rj, cj) = (self.row_of(j), self.col_of(j));
            let mut delta = 0i64;
            if rj != rm {
                delta += dev(row_m + d) - dev(row_m);
                delta += dev(self.row_sums[rj] - d) - dev(self.row_sums[rj]);
            }
            if cj != cm {
                delta += dev(col_m + d) - dev(col_m);
                delta += dev(self.col_sums[cj] - d) - dev(self.col_sums[cj]);
            }
            let main = main_m - i64::from(self.on_main_diag(j));
            if main != 0 {
                delta += dev(self.diag_main + main * d) - dev(self.diag_main);
            }
            let anti = anti_m - i64::from(self.on_anti_diag(j));
            if anti != 0 {
                delta += dev(self.diag_anti + anti * d) - dev(self.diag_anti);
            }
            *slot = (self.cost as i64 + delta) as u64;
        }
        debug_assert!(
            out.iter()
                .enumerate()
                .all(|(j, &c)| c == (self.cost as i64 + self.delta_for_swap(culprit, j)) as u64),
            "batched probe diverged from the per-pair delta path (culprit {culprit})"
        );
    }

    fn apply_swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        // The delta is evaluated against the pre-swap sums, so the O(side) cost
        // recompute the apply path used to pay is gone too.
        let new_cost = (self.cost as i64 + self.delta_for_swap(i, j)) as u64;
        let vi = self.values[i] as i64;
        let vj = self.values[j] as i64;
        let d = vj - vi;
        // Error maintenance: every cell of a line whose sum changes sees its error
        // shift by that line's deviation change.  Deviations are evaluated against
        // the pre-swap sums, before `shift_cell` commits the new ones.
        let (ri, rj) = (self.row_of(i), self.row_of(j));
        let (ci, cj) = (self.col_of(i), self.col_of(j));
        let magic = self.magic;
        let dev = |s: i64| (s - magic).abs();
        if ri != rj {
            let delta_i = dev(self.row_sums[ri] + d) - dev(self.row_sums[ri]);
            let delta_j = dev(self.row_sums[rj] - d) - dev(self.row_sums[rj]);
            self.shift_row_errors(ri, delta_i);
            self.shift_row_errors(rj, delta_j);
        }
        if ci != cj {
            let delta_i = dev(self.col_sums[ci] + d) - dev(self.col_sums[ci]);
            let delta_j = dev(self.col_sums[cj] - d) - dev(self.col_sums[cj]);
            self.shift_col_errors(ci, delta_i);
            self.shift_col_errors(cj, delta_j);
        }
        let main = i64::from(self.on_main_diag(i)) - i64::from(self.on_main_diag(j));
        if main != 0 {
            let delta = dev(self.diag_main + main * d) - dev(self.diag_main);
            self.shift_main_diag_errors(delta);
        }
        let anti = i64::from(self.on_anti_diag(i)) - i64::from(self.on_anti_diag(j));
        if anti != 0 {
            let delta = dev(self.diag_anti + anti * d) - dev(self.diag_anti);
            self.shift_anti_diag_errors(delta);
        }
        self.shift_cell(i, d);
        self.shift_cell(j, -d);
        self.values.swap(i, j);
        self.cost = new_cost;
        debug_assert_eq!(self.cost, self.compute_cost(), "incremental cost diverged");
        debug_assert!(
            self.errors_consistency_check(),
            "maintained error vector diverged after swap ({i}, {j})"
        );
    }

    fn name(&self) -> &'static str {
        "magic-square"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AsConfig;
    use crate::engine::Engine;
    use xrand::{default_rng, random_permutation, RandExt};

    #[test]
    fn magic_constant_is_correct() {
        assert_eq!(MagicSquareProblem::new(3).magic_constant(), 15);
        assert_eq!(MagicSquareProblem::new(4).magic_constant(), 34);
        assert_eq!(MagicSquareProblem::new(5).magic_constant(), 65);
    }

    #[test]
    fn lo_shu_square_has_zero_cost() {
        // The classical 3×3 magic square.
        let mut p = MagicSquareProblem::new(3);
        p.set_configuration(&[2, 7, 6, 9, 5, 1, 4, 3, 8]);
        assert_eq!(p.global_cost(), 0);
        assert!(p.is_solution());
    }

    #[test]
    fn incremental_cost_matches_scratch_under_random_swaps() {
        let mut rng = default_rng(6);
        for side in [3usize, 4, 5] {
            let n2 = side * side;
            let mut init = random_permutation(n2, &mut rng);
            init.iter_mut().for_each(|v| *v += 1);
            let mut p = MagicSquareProblem::new(side);
            p.set_configuration(&init);
            for _ in 0..100 {
                let i = rng.index(n2);
                let j = rng.index(n2);
                p.apply_swap(i, j);
                assert_eq!(
                    p.global_cost(),
                    MagicSquareProblem::cost_from_scratch(side, p.configuration()),
                    "side={side}"
                );
            }
        }
    }

    #[test]
    fn variable_errors_vanish_on_solutions() {
        let mut p = MagicSquareProblem::new(3);
        p.set_configuration(&[2, 7, 6, 9, 5, 1, 4, 3, 8]);
        let mut errs = Vec::new();
        p.variable_errors(&mut errs);
        assert!(errs.iter().all(|&e| e == 0));
    }

    #[test]
    fn adaptive_search_solves_small_magic_squares() {
        for side in [3usize, 4, 5] {
            let cfg = AsConfig::builder()
                .use_custom_reset(false)
                .plateau_probability(0.9)
                .build();
            let mut engine = Engine::new(MagicSquareProblem::new(side), cfg, 5 + side as u64);
            let r = engine.solve();
            assert!(r.is_solved(), "side = {side}");
            assert_eq!(
                MagicSquareProblem::cost_from_scratch(side, &r.solution.unwrap()),
                0
            );
        }
    }
}
