//! Dialectic Search for the Costas Array Problem (Kadioglu & Sellmann, CP 2009).
//!
//! Dialectic Search (DS) is the metaheuristic the paper compares against in Table II.
//! Its search step is modelled on the Hegelian thesis–antithesis–synthesis triad:
//!
//! 1. the **thesis** is the current configuration;
//! 2. the **antithesis** is a strong random perturbation of the thesis (here: a block
//!    of random swaps, as in the permutation version of the original paper);
//! 3. the **synthesis** walks greedily from the thesis towards the antithesis — at
//!    each step it applies, among the remaining "repair" swaps that move the current
//!    point closer to the antithesis, the one with the lowest resulting cost — and
//!    returns the best configuration seen on that path;
//! 4. if the synthesis improves on the thesis it becomes the new thesis; after too
//!    many non-improving rounds the antithesis replaces the thesis (diversification).
//!
//! The cost function is the same conflict count used by every solver in the workspace
//! (unit weights over the full difference triangle), so the comparison with AS in the
//! Table II bench measures search strategy, not scoring tricks.  Like all
//! [`ConflictTable`] users, DS runs on the table's cached cost *and*
//! per-position error vector; its synthesis step steers by distance to the
//! antithesis rather than by projected error, so only the cost side is read here.

use std::time::Instant;

use adaptive_search::TieBreak;
use costas::{ConflictTable, CostModel};
use xrand::{default_rng, random_permutation, DefaultRng, RandExt};

use crate::common::{BaselineResult, CostasSolver, SolverBudget};

/// Tuning knobs of the Dialectic Search baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DialecticConfig {
    /// Fraction of positions perturbed when generating the antithesis.
    pub antithesis_strength: f64,
    /// Non-improving global rounds tolerated before the antithesis replaces the
    /// thesis.
    pub stagnation_limit: u32,
}

impl Default for DialecticConfig {
    fn default() -> Self {
        Self {
            antithesis_strength: 0.35,
            stagnation_limit: 12,
        }
    }
}

/// The Dialectic Search solver.
#[derive(Debug, Clone, Default)]
pub struct DialecticSearch {
    /// Configuration of the solver.
    pub config: DialecticConfig,
}

impl DialecticSearch {
    /// Generate the antithesis: a copy of `thesis` with a block of random swaps.
    fn antithesis(&self, thesis: &[usize], rng: &mut DefaultRng) -> Vec<usize> {
        let n = thesis.len();
        let mut anti = thesis.to_vec();
        let swaps = ((n as f64 * self.config.antithesis_strength).ceil() as usize).max(1);
        for _ in 0..swaps {
            let i = rng.index(n);
            let j = rng.index(n);
            anti.swap(i, j);
        }
        anti
    }

    /// Greedy synthesis: walk from the thesis to the antithesis by repeatedly placing
    /// one still-mismatched position at its antithesis value (via a swap), always
    /// choosing the repair with the lowest resulting cost.  Returns the best
    /// configuration encountered and its cost, plus the number of evaluated moves.
    fn synthesis(
        table: &mut ConflictTable,
        antithesis: &[usize],
        best_cost_so_far: u64,
        rng: &mut DefaultRng,
    ) -> (Vec<usize>, u64, u64) {
        let n = antithesis.len();
        let mut best_values = table.values().to_vec();
        let mut best_cost = best_cost_so_far;
        let mut evaluated = 0u64;
        let mut best_move = TieBreak::with_capacity(n);
        loop {
            // positions whose value still differs from the antithesis
            let mismatched: Vec<usize> = (0..n)
                .filter(|&i| table.values()[i] != antithesis[i])
                .collect();
            if mismatched.is_empty() {
                break;
            }
            // candidate repair: put antithesis[i] at position i by swapping position i
            // with the current holder of that value; equal-cost repairs tie-break
            // uniformly through the shared accumulator
            best_move.clear();
            for &i in &mismatched {
                let target_value = antithesis[i];
                let j = table
                    .values()
                    .iter()
                    .position(|&v| v == target_value)
                    .expect("value exists in a permutation");
                // read-only delta probe: nothing to un-apply
                let cost = (table.cost() as i64 + table.delta_for_swap(i, j)) as u64;
                evaluated += 1;
                best_move.offer_min(i, cost);
            }
            let i = best_move
                .pick(rng)
                .expect("at least one mismatched position");
            let j = table
                .values()
                .iter()
                .position(|&v| v == antithesis[i])
                .expect("value exists in a permutation");
            let cost = best_move.best().expect("at least one mismatched position");
            table.apply_swap(i, j);
            if cost < best_cost {
                best_cost = cost;
                best_values = table.values().to_vec();
            }
            if best_cost == 0 {
                break;
            }
        }
        (best_values, best_cost, evaluated)
    }
}

impl CostasSolver for DialecticSearch {
    fn name(&self) -> &'static str {
        "dialectic-search"
    }

    fn solve(&mut self, n: usize, seed: u64, budget: &SolverBudget) -> BaselineResult {
        assert!(n > 0, "order must be positive");
        let start = Instant::now();
        let mut rng = default_rng(seed);
        let model = CostModel::basic();

        let mut thesis: Vec<usize> = random_permutation(n, &mut rng)
            .into_iter()
            .map(|v| v + 1)
            .collect();
        let mut table = ConflictTable::new(&thesis, model);
        let mut thesis_cost = table.cost();
        let mut best_cost = thesis_cost;
        let mut best_values = thesis.clone();
        let mut moves = 0u64;
        let mut restarts = 0u64;
        let mut stagnation = 0u32;

        while best_cost > 0 && !budget.exhausted(start, moves) {
            let antithesis = self.antithesis(&thesis, &mut rng);
            table.reset_to(&thesis);
            let (synth_values, synth_cost, evaluated) =
                Self::synthesis(&mut table, &antithesis, thesis_cost, &mut rng);
            moves += evaluated.max(1);

            if synth_cost < best_cost {
                best_cost = synth_cost;
                best_values = synth_values.clone();
            }
            if synth_cost < thesis_cost {
                thesis = synth_values;
                thesis_cost = synth_cost;
                stagnation = 0;
            } else {
                stagnation += 1;
                if stagnation >= self.config.stagnation_limit {
                    // adopt the antithesis wholesale (diversification)
                    thesis = antithesis;
                    table.reset_to(&thesis);
                    thesis_cost = table.cost();
                    if thesis_cost < best_cost {
                        best_cost = thesis_cost;
                        best_values = thesis.clone();
                    }
                    stagnation = 0;
                    restarts += 1;
                }
            }
        }

        BaselineResult {
            solver: self.name(),
            solved: best_cost == 0,
            solution: (best_cost == 0).then_some(best_values),
            moves,
            restarts,
            elapsed: start.elapsed(),
            best_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costas::is_costas_permutation;

    #[test]
    fn solves_small_instances() {
        let mut ds = DialecticSearch::default();
        for n in [5usize, 8, 10, 12] {
            let r = ds.solve(n, 17 + n as u64, &SolverBudget::unlimited());
            assert!(r.solved, "n = {n}");
            assert!(
                is_costas_permutation(r.solution.as_ref().unwrap()),
                "n = {n}"
            );
            assert_eq!(r.best_cost, 0);
        }
    }

    #[test]
    fn respects_move_budget() {
        let mut ds = DialecticSearch::default();
        let r = ds.solve(18, 3, &SolverBudget::moves(200));
        // with only 200 evaluations CAP 18 is essentially never solved
        assert!(r.moves <= 18 * 18 + 200, "moves = {}", r.moves);
        if !r.solved {
            assert!(r.best_cost > 0);
            assert!(r.solution.is_none());
        }
    }

    #[test]
    fn reproducible_for_a_fixed_seed() {
        let mut a = DialecticSearch::default();
        let mut b = DialecticSearch::default();
        let ra = a.solve(10, 99, &SolverBudget::unlimited());
        let rb = b.solve(10, 99, &SolverBudget::unlimited());
        assert_eq!(ra.solution, rb.solution);
        assert_eq!(ra.moves, rb.moves);
    }

    #[test]
    fn antithesis_is_a_permutation() {
        let ds = DialecticSearch::default();
        let mut rng = default_rng(1);
        let thesis: Vec<usize> = (1..=15).collect();
        for _ in 0..50 {
            let anti = ds.antithesis(&thesis, &mut rng);
            assert!(costas::Permutation::validate(&anti).is_ok());
        }
    }
}
