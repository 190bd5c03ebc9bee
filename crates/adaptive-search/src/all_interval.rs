//! The All-Interval Series problem (CSPLib prob007) for Adaptive Search.
//!
//! The paper introduces the CAP as "conceptually related to three well-known CSPs",
//! one of which is the All-Interval Series problem: arrange the `n` pitch classes
//! `1..=n` so that the `n − 1` absolute differences between adjacent elements are all
//! distinct (hence a permutation of `1..=n−1`).  It is the one-row cousin of the
//! Costas difference triangle, and having it in the workspace both demonstrates the
//! engine's domain independence and provides a structurally close but much easier
//! benchmark for comparisons.
//!
//! Cost model: the number of *missing* distinct adjacent differences, i.e.
//! `(n − 1) − |{ |v[i+1] − v[i]| }|`; equivalently the count of repeated differences.

use costas::BucketMerge;

use crate::problem::PermutationProblem;

/// All-Interval Series with an incremental histogram of adjacent differences.
#[derive(Debug, Clone)]
pub struct AllIntervalProblem {
    values: Vec<usize>,
    /// `diff_count[d]` = number of adjacent pairs with |difference| = d (1-based).
    diff_count: Vec<u32>,
    cost: u64,
    /// Maintained per-position errors: every edge of an over-occupied difference
    /// class charges both of its endpoints.
    errors: Vec<u64>,
    /// Sum of the left indices of the edges currently in each difference class.
    ///
    /// The error updates only ever need to *identify* a class member when the
    /// class holds exactly one other edge (occupancy crossing 1 ↔ 2), and that
    /// member is recoverable from the sum alone — no member lists needed.
    class_left_sum: Vec<u64>,
}

impl AllIntervalProblem {
    /// Create an instance of order `n` initialised with the identity permutation.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "All-Interval order must be positive");
        let mut p = Self {
            values: (1..=n).collect(),
            diff_count: vec![0; n],
            cost: 0,
            errors: vec![0; n],
            class_left_sum: vec![0; n],
        };
        p.rebuild();
        p
    }

    /// Heap bytes of an order-`n` instance: values, errors and left-index
    /// sums (8 bytes each) and the difference histogram (4 bytes) per position.
    pub(crate) const fn heap_bytes(n: usize) -> u128 {
        28 * n as u128
    }

    fn n(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn adjacent_diff(&self, left: usize) -> usize {
        self.values[left].abs_diff(self.values[left + 1])
    }

    fn rebuild(&mut self) {
        self.diff_count.iter_mut().for_each(|c| *c = 0);
        self.class_left_sum.iter_mut().for_each(|s| *s = 0);
        self.errors.iter_mut().for_each(|e| *e = 0);
        self.cost = 0;
        for left in 0..self.n().saturating_sub(1) {
            let d = self.adjacent_diff(left);
            if self.diff_count[d] > 0 {
                self.cost += 1;
            }
            self.diff_count[d] += 1;
            self.class_left_sum[d] += left as u64;
        }
        for left in 0..self.n().saturating_sub(1) {
            let d = self.adjacent_diff(left);
            if self.diff_count[d] > 1 {
                self.errors[left] += 1;
                self.errors[left + 1] += 1;
            }
        }
    }

    fn remove_edge(&mut self, left: usize) {
        let d = self.adjacent_diff(left);
        let c = self.diff_count[d];
        self.diff_count[d] = c - 1;
        self.class_left_sum[d] -= left as u64;
        if c > 1 {
            self.cost -= 1;
            // the removed edge was in an over-occupied class: uncharge it
            self.errors[left] -= 1;
            self.errors[left + 1] -= 1;
            if c == 2 {
                // the class drops to a single edge, which stops being charged;
                // the left-sum is exactly that remaining edge now
                let other = self.class_left_sum[d] as usize;
                self.errors[other] -= 1;
                self.errors[other + 1] -= 1;
            }
        }
    }

    fn add_edge(&mut self, left: usize) {
        let d = self.adjacent_diff(left);
        let c = self.diff_count[d];
        if c > 0 {
            self.cost += 1;
            self.errors[left] += 1;
            self.errors[left + 1] += 1;
            if c == 1 {
                // the class crosses into over-occupancy: the edge that was alone
                // in it (identified by the left-sum) becomes charged too
                let other = self.class_left_sum[d] as usize;
                self.errors[other] += 1;
                self.errors[other + 1] += 1;
            }
        }
        self.diff_count[d] = c + 1;
        self.class_left_sum[d] += left as u64;
    }

    /// Debug helper: does the maintained error vector match a recompute from the
    /// current configuration?
    fn errors_consistency_check(&self) -> bool {
        let n = self.n();
        let mut expected = vec![0u64; n];
        for left in 0..n.saturating_sub(1) {
            let d = self.adjacent_diff(left);
            if self.diff_count[d] > 1 {
                expected[left] += 1;
                expected[left + 1] += 1;
            }
        }
        expected == self.errors
    }

    /// Edges (left indices of adjacent pairs) affected by changing positions i and
    /// j: at most 4 distinct, returned in a fixed-size buffer so neither the probe
    /// nor the apply path allocates.
    fn affected_edges(&self, i: usize, j: usize) -> ([usize; 4], usize) {
        let mut edges = [0usize; 4];
        let mut len = 0usize;
        for &p in &[i, j] {
            for e in [p.checked_sub(1), (p + 1 < self.n()).then_some(p)]
                .into_iter()
                .flatten()
            {
                if !edges[..len].contains(&e) {
                    edges[len] = e;
                    len += 1;
                }
            }
        }
        (edges, len)
    }

    /// Value at position `p` once positions `i` and `j` are swapped, without
    /// performing the swap.
    #[inline]
    fn value_after_swap(&self, p: usize, i: usize, j: usize) -> usize {
        let q = if p == i {
            j
        } else if p == j {
            i
        } else {
            p
        };
        self.values[q]
    }

    /// Reference O(n) cost used by tests.
    #[cfg(test)]
    fn cost_from_scratch(values: &[usize]) -> u64 {
        let n = values.len();
        let mut seen = vec![0u32; n];
        let mut cost = 0;
        for i in 0..n.saturating_sub(1) {
            let d = values[i].abs_diff(values[i + 1]);
            if seen[d] > 0 {
                cost += 1;
            }
            seen[d] += 1;
        }
        cost
    }
}

impl PermutationProblem for AllIntervalProblem {
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
        // every extra occupant of a difference class is an error charged to both
        // endpoints of the pair; the vector is maintained across swaps
        out.clear();
        out.extend_from_slice(&self.errors);
    }

    fn cached_errors(&self) -> Option<&[u64]> {
        Some(&self.errors)
    }

    /// O(1): a swap only changes the ≤ 4 adjacent differences whose edges touch
    /// `i` or `j`; their old/new difference classes are merged per class and scored
    /// against the histogram without touching it.
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        if i == j {
            return 0;
        }
        let (edges, edge_count) = self.affected_edges(i, j);
        let mut touched = BucketMerge::<8>::new();
        for &e in &edges[..edge_count] {
            let old = self.values[e].abs_diff(self.values[e + 1]);
            let new = self
                .value_after_swap(e, i, j)
                .abs_diff(self.value_after_swap(e + 1, i, j));
            if old != new {
                touched.push(old, -1);
                touched.push(new, 1);
            }
        }
        let mut delta = 0i64;
        for (idx, net) in touched.nets() {
            let c = i64::from(self.diff_count[idx]);
            delta += (c + net - 1).max(0) - (c - 1).max(0);
        }
        delta
    }

    /// O(1) per candidate.  The culprit's (at most two) adjacent differences vanish
    /// whatever the partner is, so their removal is scored once up front; the
    /// per-candidate pass merges the re-added culprit differences with the
    /// candidate's own edge changes against that baseline.
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        let n = self.n();
        out.clear();
        out.resize(n, self.cost);
        if n < 2 {
            return;
        }
        let m = culprit;
        let vm = self.values[m];
        // Hoisted removal pass over the culprit's edges (m − 1, m) and (m, m + 1):
        // merged difference classes, their counts after removal, and the cost
        // change of the removals alone.
        let left_other = (m > 0).then(|| self.values[m - 1]);
        let right_other = (m + 1 < n).then(|| self.values[m + 1]);
        let mut removed = BucketMerge::<2>::new();
        for d in [
            left_other.map(|v| v.abs_diff(vm)),
            right_other.map(|v| v.abs_diff(vm)),
        ]
        .into_iter()
        .flatten()
        {
            removed.push(d, 1);
        }
        let mut removal_delta = 0i64;
        for slot in removed.entries_mut() {
            let c = i64::from(self.diff_count[slot.0]);
            removal_delta += (c - slot.1 - 1).max(0) - (c - 1).max(0);
            slot.1 = c - slot.1; // count after removal = per-class baseline
        }
        for (j, out_slot) in out.iter_mut().enumerate() {
            if j == m {
                continue;
            }
            let vj = self.values[j];
            // ≤ 2 culprit re-additions + ≤ 2 candidate edges × 2 entries.
            let mut touched = BucketMerge::<6>::new();
            // Culprit edges now pair the neighbour with v_j — unless the candidate
            // *is* that neighbour, in which case the neighbour holds v_m.
            if let Some(lo) = left_other {
                let lo = if m - 1 == j { vm } else { lo };
                touched.push(lo.abs_diff(vj), 1);
            }
            if let Some(ro) = right_other {
                let ro = if m + 1 == j { vm } else { ro };
                touched.push(ro.abs_diff(vj), 1);
            }
            // Candidate edges that do not touch the culprit (those are the culprit
            // edges handled above).
            if j > 0 && j - 1 != m {
                let o = self.values[j - 1];
                let (old, new) = (o.abs_diff(vj), o.abs_diff(vm));
                if old != new {
                    touched.push(old, -1);
                    touched.push(new, 1);
                }
            }
            if j + 1 < n && j + 1 != m {
                let o = self.values[j + 1];
                let (old, new) = (o.abs_diff(vj), o.abs_diff(vm));
                if old != new {
                    touched.push(old, -1);
                    touched.push(new, 1);
                }
            }
            let mut delta = removal_delta;
            for (idx, net) in touched.nets() {
                let b = removed
                    .get(idx)
                    .unwrap_or_else(|| i64::from(self.diff_count[idx]));
                delta += (b + net - 1).max(0) - (b - 1).max(0);
            }
            *out_slot = (self.cost as i64 + delta) as u64;
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
        let (edges, edge_count) = self.affected_edges(i, j);
        for &e in &edges[..edge_count] {
            self.remove_edge(e);
        }
        self.values.swap(i, j);
        for &e in &edges[..edge_count] {
            self.add_edge(e);
        }
        debug_assert!(
            self.errors_consistency_check(),
            "maintained error vector diverged after swap ({i}, {j})"
        );
    }

    fn name(&self) -> &'static str {
        "all-interval"
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
        // The zig-zag series 1, n, 2, n-1, ... is a classical all-interval series.
        let n = 8;
        let mut zigzag = Vec::new();
        let (mut lo, mut hi) = (1, n);
        while lo <= hi {
            zigzag.push(lo);
            if lo != hi {
                zigzag.push(hi);
            }
            lo += 1;
            hi -= 1;
        }
        let mut p = AllIntervalProblem::new(n);
        p.set_configuration(&zigzag);
        assert_eq!(p.global_cost(), 0, "{zigzag:?}");
    }

    #[test]
    fn identity_has_all_equal_intervals() {
        let p = AllIntervalProblem::new(6);
        // identity: 5 adjacent differences all equal to 1 → 4 repeats
        assert_eq!(p.global_cost(), 4);
    }

    #[test]
    fn incremental_cost_matches_scratch_under_random_swaps() {
        let mut rng = default_rng(4);
        for n in [2usize, 3, 5, 12, 24] {
            let mut init = random_permutation(n, &mut rng);
            init.iter_mut().for_each(|v| *v += 1);
            let mut p = AllIntervalProblem::new(n);
            p.set_configuration(&init);
            for _ in 0..200 {
                let i = rng.index(n);
                let j = rng.index(n);
                p.apply_swap(i, j);
                assert_eq!(
                    p.global_cost(),
                    AllIntervalProblem::cost_from_scratch(p.configuration()),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn cost_after_swap_is_pure() {
        let mut p = AllIntervalProblem::new(10);
        let before = p.configuration().to_vec();
        let cost_before = p.global_cost();
        let _ = p.cost_after_swap(2, 7);
        assert_eq!(p.configuration(), &before[..]);
        assert_eq!(p.global_cost(), cost_before);
    }

    #[test]
    fn adaptive_search_solves_all_interval() {
        for n in [8usize, 12, 14] {
            let cfg = AsConfig::builder().use_custom_reset(false).build();
            let mut engine = Engine::new(AllIntervalProblem::new(n), cfg, 77 + n as u64);
            let r = engine.solve();
            assert!(r.is_solved(), "n = {n}");
            assert_eq!(
                AllIntervalProblem::cost_from_scratch(&r.solution.unwrap()),
                0
            );
        }
    }

    #[test]
    fn variable_errors_are_zero_exactly_on_solutions() {
        let mut p = AllIntervalProblem::new(8);
        p.set_configuration(&[1, 8, 2, 7, 3, 6, 4, 5]);
        let mut errs = Vec::new();
        p.variable_errors(&mut errs);
        assert!(errs.iter().all(|&e| e == 0));
        p.set_configuration(&[1, 2, 3, 4, 5, 6, 7, 8]);
        p.variable_errors(&mut errs);
        assert!(errs.iter().sum::<u64>() > 0);
    }
}
