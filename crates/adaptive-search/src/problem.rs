//! The problem interface of the Adaptive Search engine.
//!
//! Like the original AS C library used in the paper, the engine in this crate is
//! specialised to *permutation problems*: the configuration is a permutation of
//! `1..=n` and the elementary move is a swap of two positions.  All six models
//! shipped in this crate (Costas, N-Queens, All-Interval, Magic Square, Langford,
//! number partitioning — see the [`crate::problems`] registry) fit this shape,
//! which is also what makes the `alldifferent` constraint implicit.
//!
//! A problem implementation owns its incremental bookkeeping (e.g. the Costas model
//! wraps a [`costas::ConflictTable`]); the engine only ever talks to it through this
//! trait, which keeps the metaheuristic strictly domain-independent (paper §III).
//!
//! # Evaluation layers
//!
//! The trait exposes three evaluation layers:
//!
//! * **Read-only probes** — [`PermutationProblem::delta_for_swap`] and the batched
//!   [`PermutationProblem::probe_partners`] answer "what would this swap cost?"
//!   against the cached incremental state without touching it.  This is the layer
//!   the min-conflict inner loop lives on: for one culprit variable the engine
//!   probes all `n − 1` candidate partners, and only one of those swaps (at most)
//!   is ever applied.
//! * **Error maintenance** — [`PermutationProblem::cached_errors`] exposes the
//!   per-variable error vector the culprit selection reads each iteration.
//!   Implementations that keep it current through every mutation (all six
//!   shipped models do: five update it incrementally, Costas recomputes it in
//!   one pass after each change) make selection a cheap read; the default
//!   (`None`) keeps third-party implementations source-compatible, with the
//!   engine falling back to the recomputing
//!   [`PermutationProblem::variable_errors`].
//! * **Mutation** — [`PermutationProblem::apply_swap`] and
//!   [`PermutationProblem::set_configuration`] commit a move and bring the
//!   model's tables, including the cached error vector, up to date.
//!
//! Keeping the probe layer strictly `&self` both documents the purity contract in
//! the type system and lets implementations skip the "apply + un-apply" double
//! mutation the probe loop would otherwise pay per candidate.

use xrand::Rng64;

/// A combinatorial problem whose configurations are permutations of `1..=size()` and
/// whose cost is zero exactly on solutions.
pub trait PermutationProblem {
    /// Number of variables (= order of the permutation).
    fn size(&self) -> usize;

    /// Replace the current configuration.  `values` is guaranteed by the engine to be
    /// a permutation of `1..=size()`.
    fn set_configuration(&mut self, values: &[usize]);

    /// The current configuration (1-based values).
    fn configuration(&self) -> &[usize];

    /// Global cost of the current configuration; `0` iff it is a solution.
    fn global_cost(&self) -> u64;

    /// Per-variable projected errors of the current configuration, written into `out`
    /// (resized to `size()`).  The engine selects the maximum-error variable as the
    /// culprit to repair (paper §III-A).
    ///
    /// This is the *recomputing* entry point and the reference for the maintenance
    /// contract below; implementations that cache the vector may simply copy
    /// their cache here.
    fn variable_errors(&self, out: &mut Vec<u64>);

    /// Borrowed view of a **cached** per-variable error vector, kept current
    /// through every mutation, or `None` when the implementation keeps none.
    /// How it is kept current is the implementation's choice: the shipped
    /// models update it incrementally, except Costas, whose conflict table
    /// recomputes it in one pass after each change.
    ///
    /// **Maintenance contract:** when `Some`, the returned slice must have length
    /// [`PermutationProblem::size`] and be *exactly* equal — after any sequence of
    /// [`PermutationProblem::apply_swap`] / [`PermutationProblem::set_configuration`]
    /// calls (the engine's swap, reset and injection paths all reduce to those) —
    /// to what [`PermutationProblem::variable_errors`] recomputes from scratch.
    /// The engine reads this slice every iteration to select the culprit variable,
    /// so a stale entry silently corrupts the search; the shipped models enforce
    /// the contract with `debug_assert!` cross-checks in their apply paths and
    /// property tests against from-scratch oracles.
    ///
    /// The default returns `None`, keeping pre-existing third-party
    /// implementations source-compatible: the engine then falls back to the
    /// recomputing `variable_errors`.
    fn cached_errors(&self) -> Option<&[u64]> {
        None
    }

    /// Signed change in global cost a swap of positions `i` and `j` would cause
    /// (`cost_after − cost_before`); `0` when `i == j`.
    ///
    /// **Purity contract:** this takes `&self` and must have *no observable
    /// mutation* — no change to the configuration, the cost, the incremental
    /// tables, or any other state a caller could detect (interior mutability, if
    /// used at all, must stay invisible).  The result must agree exactly with a
    /// from-scratch recompute of the swapped configuration; the engine and the
    /// baselines rely on this to probe entire neighbourhoods without un-applying
    /// anything.
    fn delta_for_swap(&self, i: usize, j: usize) -> i64;

    /// Batched read-only probe: write into `out[j]` the global cost the
    /// configuration would have after swapping `culprit` with `j`, for every
    /// position `j` (`out[culprit]` must be the current cost; `out` is resized to
    /// [`PermutationProblem::size`]).
    ///
    /// Same purity contract as [`PermutationProblem::delta_for_swap`]: `&self`, no
    /// observable mutation.  The default implementation falls back to per-pair
    /// deltas; models override it when part of the per-candidate work can be
    /// hoisted out of the loop (e.g. the Costas model removes the culprit's pairs
    /// from its row histogram once for all `n − 1` candidates).
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        let n = self.size();
        let current = self.global_cost();
        out.clear();
        out.resize(n, current);
        for (j, slot) in out.iter_mut().enumerate() {
            if j != culprit {
                *slot = (current as i64 + self.delta_for_swap(culprit, j)) as u64;
            }
        }
    }

    /// Scalar **reference implementation** of
    /// [`PermutationProblem::probe_partners`]: always the plain per-pair delta
    /// scan, even when `probe_partners` itself routes through an accelerated
    /// (batched bitmask) kernel.
    ///
    /// **Equivalence contract:** for every configuration and every `culprit`,
    /// the vector written here must be *bit-for-bit* equal to what
    /// `probe_partners` writes.  The conformance kit property-checks this over
    /// random swap/reset/inject sequences for any model reporting
    /// [`PermutationProblem::has_accelerated_probe`], and the engine
    /// cross-checks it on the hot path under `debug_assertions`.
    ///
    /// Models overriding `probe_partners` with a *different algorithm* should
    /// override this too, pointing it at their scalar path; the default (the
    /// same per-pair fallback as the default `probe_partners`) is only a valid
    /// reference for models that keep the default probe.
    fn probe_partners_reference(&self, culprit: usize, out: &mut Vec<u64>) {
        let n = self.size();
        let current = self.global_cost();
        out.clear();
        out.resize(n, current);
        for (j, slot) in out.iter_mut().enumerate() {
            if j != culprit {
                *slot = (current as i64 + self.delta_for_swap(culprit, j)) as u64;
            }
        }
    }

    /// Does [`PermutationProblem::probe_partners`] route through an accelerated
    /// kernel that is *distinct* from [`probe_partners_reference`]
    /// (e.g. the Costas bitmask kernel)?  When `true`, the conformance kit pins the
    /// two bit-for-bit against each other; the default is `false`.
    ///
    /// [`probe_partners_reference`]: PermutationProblem::probe_partners_reference
    fn has_accelerated_probe(&self) -> bool {
        false
    }

    /// Cost the configuration would have after swapping positions `i` and `j`.
    /// Must not change the observable configuration.
    ///
    /// Compatibility wrapper over [`PermutationProblem::delta_for_swap`] — the
    /// engine and the baselines use the read-only probes directly.  Under
    /// `debug_assertions` the prediction is cross-checked against the mutating
    /// apply/un-apply path.
    fn cost_after_swap(&mut self, i: usize, j: usize) -> u64 {
        let predicted = (self.global_cost() as i64 + self.delta_for_swap(i, j)) as u64;
        #[cfg(debug_assertions)]
        {
            self.apply_swap(i, j);
            let actual = self.global_cost();
            self.apply_swap(i, j);
            debug_assert_eq!(
                actual, predicted,
                "delta path diverged from the apply path for swap ({i}, {j})"
            );
        }
        predicted
    }

    /// Commit a swap of positions `i` and `j`.
    fn apply_swap(&mut self, i: usize, j: usize);

    /// Problem-specific reset procedure (paper §III-B2 / §IV-B).
    ///
    /// Called when the engine decides to diversify.  `worst_var` is the culprit
    /// variable that triggered the reset.  Implementations may perturb their
    /// configuration and return `Some(new_cost)`; returning `None` asks the engine to
    /// apply its generic reset (re-randomising `RP`% of the variables by random
    /// swaps).
    fn custom_reset(&mut self, worst_var: usize, rng: &mut dyn Rng64) -> Option<u64> {
        let _ = (worst_var, rng);
        None
    }

    /// Human-readable problem name (used in reports and benchmark output).
    fn name(&self) -> &'static str {
        "permutation-problem"
    }

    /// Is the current configuration a solution?
    fn is_solution(&self) -> bool {
        self.global_cost() == 0
    }
}

/// Forwarding impl so boxed problems (e.g. the trait objects built by the
/// [`crate::problems`] registry) are themselves [`PermutationProblem`]s and can
/// drive an [`crate::Engine`] directly.
///
/// Every method is forwarded explicitly — including the ones with default bodies —
/// so boxing never reroutes a model's overridden probe, cache or reset onto the
/// trait defaults.
impl<T: PermutationProblem + ?Sized> PermutationProblem for Box<T> {
    fn size(&self) -> usize {
        (**self).size()
    }
    fn set_configuration(&mut self, values: &[usize]) {
        (**self).set_configuration(values);
    }
    fn configuration(&self) -> &[usize] {
        (**self).configuration()
    }
    fn global_cost(&self) -> u64 {
        (**self).global_cost()
    }
    fn variable_errors(&self, out: &mut Vec<u64>) {
        (**self).variable_errors(out);
    }
    fn cached_errors(&self) -> Option<&[u64]> {
        (**self).cached_errors()
    }
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        (**self).delta_for_swap(i, j)
    }
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        (**self).probe_partners(culprit, out);
    }
    fn probe_partners_reference(&self, culprit: usize, out: &mut Vec<u64>) {
        (**self).probe_partners_reference(culprit, out);
    }
    fn has_accelerated_probe(&self) -> bool {
        (**self).has_accelerated_probe()
    }
    fn cost_after_swap(&mut self, i: usize, j: usize) -> u64 {
        (**self).cost_after_swap(i, j)
    }
    fn apply_swap(&mut self, i: usize, j: usize) {
        (**self).apply_swap(i, j);
    }
    fn custom_reset(&mut self, worst_var: usize, rng: &mut dyn Rng64) -> Option<u64> {
        (**self).custom_reset(worst_var, rng)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn is_solution(&self) -> bool {
        (**self).is_solution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately trivial problem used to exercise the engine in isolation:
    /// cost = number of positions where the permutation differs from the identity.
    /// Its unique solution is the identity permutation.
    #[derive(Debug, Clone)]
    pub struct SortingProblem {
        values: Vec<usize>,
    }

    impl SortingProblem {
        pub fn new(n: usize) -> Self {
            Self {
                values: (1..=n).collect(),
            }
        }
    }

    impl PermutationProblem for SortingProblem {
        fn size(&self) -> usize {
            self.values.len()
        }
        fn set_configuration(&mut self, values: &[usize]) {
            self.values = values.to_vec();
        }
        fn configuration(&self) -> &[usize] {
            &self.values
        }
        fn global_cost(&self) -> u64 {
            self.values
                .iter()
                .enumerate()
                .filter(|(i, &v)| v != i + 1)
                .count() as u64
        }
        fn variable_errors(&self, out: &mut Vec<u64>) {
            out.clear();
            out.extend(
                self.values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| u64::from(v != i + 1)),
            );
        }
        fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
            if i == j {
                return 0;
            }
            let misplaced = |pos: usize, v: usize| -> i64 { i64::from(v != pos + 1) };
            misplaced(i, self.values[j]) + misplaced(j, self.values[i])
                - misplaced(i, self.values[i])
                - misplaced(j, self.values[j])
        }
        fn apply_swap(&mut self, i: usize, j: usize) {
            self.values.swap(i, j);
        }
        fn name(&self) -> &'static str {
            "sorting"
        }
    }

    #[test]
    fn sorting_problem_cost_and_errors() {
        let mut p = SortingProblem::new(4);
        assert_eq!(p.global_cost(), 0);
        assert!(p.is_solution());
        p.set_configuration(&[2, 1, 3, 4]);
        assert_eq!(p.global_cost(), 2);
        let mut errs = Vec::new();
        p.variable_errors(&mut errs);
        assert_eq!(errs, vec![1, 1, 0, 0]);
        assert_eq!(p.cost_after_swap(0, 1), 0);
        assert_eq!(p.global_cost(), 2, "cost_after_swap must not mutate");
        assert_eq!(p.delta_for_swap(0, 1), -2);
        assert_eq!(p.delta_for_swap(1, 0), -2);
        assert_eq!(p.delta_for_swap(2, 2), 0);
        let mut probe = Vec::new();
        p.probe_partners(0, &mut probe);
        assert_eq!(probe, vec![2, 0, 3, 3], "default batched probe from deltas");
        p.apply_swap(0, 1);
        assert!(p.is_solution());
    }

    #[test]
    fn default_custom_reset_defers_to_engine() {
        let mut p = SortingProblem::new(4);
        let mut rng = xrand::default_rng(1);
        assert_eq!(p.custom_reset(0, &mut rng), None);
        assert_eq!(PermutationProblem::name(&p), "sorting");
    }

    #[test]
    fn default_cached_errors_is_none() {
        // Implementations that predate the error-maintenance layer compile
        // unchanged and fall back to the recomputing variable_errors.
        let p = SortingProblem::new(4);
        assert!(p.cached_errors().is_none());
    }
}
