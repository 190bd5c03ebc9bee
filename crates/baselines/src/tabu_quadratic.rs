//! Tabu search with the quadratic swap neighbourhood (the Comet model of Kadioglu &
//! Sellmann's comparison, referenced in paper §IV-C).
//!
//! Each iteration evaluates **every** swap of two positions (O(n²) candidates — hence
//! "quadratic neighbourhood"), applies the best one that is not tabu (with the usual
//! aspiration criterion: a tabu move is allowed if it improves on the best cost seen),
//! and marks the moved pair tabu for a fixed tenure.  This is a strong but expensive
//! baseline: its per-iteration cost is an order of magnitude higher than Adaptive
//! Search's culprit-directed neighbourhood, which is one of the reasons AS wins.
//! The quadratic sweep is error-blind by design (every pair is probed regardless of
//! projected error), so unlike AS and the hill climber it reads only the cost side
//! of the [`ConflictTable`].

use std::time::Instant;

use adaptive_search::TieBreak;
use costas::{ConflictTable, CostModel};
use xrand::{default_rng, random_permutation};

use crate::common::{BaselineResult, CostasSolver, SolverBudget};

/// Tuning knobs of the quadratic tabu search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabuConfig {
    /// Iterations a swapped pair stays tabu.
    pub tenure: u64,
    /// Iterations without improvement of the best cost before a random restart.
    pub restart_after: u64,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            tenure: 8,
            restart_after: 2_000,
        }
    }
}

/// The quadratic-neighbourhood tabu search solver.
#[derive(Debug, Clone, Default)]
pub struct QuadraticTabuSearch {
    /// Configuration of the solver.
    pub config: TabuConfig,
}

impl CostasSolver for QuadraticTabuSearch {
    fn name(&self) -> &'static str {
        "tabu-quadratic"
    }

    fn solve(&mut self, n: usize, seed: u64, budget: &SolverBudget) -> BaselineResult {
        assert!(n > 0, "order must be positive");
        let start = Instant::now();
        let mut rng = default_rng(seed);
        let model = CostModel::basic();

        let fresh = |rng: &mut xrand::DefaultRng| -> Vec<usize> {
            random_permutation(n, rng)
                .into_iter()
                .map(|v| v + 1)
                .collect()
        };

        let mut table = ConflictTable::new(&fresh(&mut rng), model);
        // tabu_until[i][j] (i < j): first iteration at which the pair may move again
        let mut tabu_until = vec![0u64; n * n];
        let mut iteration = 0u64;
        let mut best_cost = table.cost();
        let mut best_values = table.values().to_vec();
        let mut since_improvement = 0u64;
        let mut restarts = 0u64;
        // read-only probe buffer reused across the quadratic sweeps; candidate
        // moves are flattened to i·n + j for the shared tie-break accumulator
        let mut probe: Vec<u64> = Vec::with_capacity(n);
        let mut best_move = TieBreak::with_capacity(n);

        while best_cost > 0 && !budget.exhausted(start, iteration) {
            iteration += 1;
            let current_cost = table.cost();

            // Full quadratic sweep through the read-only batched probe: one
            // upper-triangle probe per row hoists the "remove row i's pairs" pass
            // over the whole row instead of paying apply + un-apply per cell, and
            // skips the j < i half the sweep never reads.  Equal-cost admissible
            // moves tie-break uniformly (single draw), as in the engine.
            best_move.clear();
            for i in 0..n {
                table.probe_partners_above(i, &mut probe);
                for j in (i + 1)..n {
                    let cost = probe[j];
                    let tabu = tabu_until[i * n + j] > iteration;
                    let aspires = cost < best_cost;
                    if !tabu || aspires {
                        best_move.offer_min(i * n + j, cost);
                    }
                }
            }

            match best_move.pick(&mut rng).map(|flat| {
                let (i, j) = (flat / n, flat % n);
                (i, j, best_move.best().expect("non-empty tie set"))
            }) {
                Some((i, j, cost)) => {
                    table.apply_swap(i, j);
                    tabu_until[i * n + j] = iteration + self.config.tenure;
                    if cost < best_cost {
                        best_cost = cost;
                        best_values = table.values().to_vec();
                        since_improvement = 0;
                    } else {
                        since_improvement += 1;
                    }
                    let _ = current_cost;
                }
                None => {
                    // every move tabu and none aspires: forced diversification
                    since_improvement = self.config.restart_after;
                }
            }

            if since_improvement >= self.config.restart_after {
                table.reset_to(&fresh(&mut rng));
                tabu_until.iter_mut().for_each(|t| *t = 0);
                restarts += 1;
                since_improvement = 0;
                if table.cost() < best_cost {
                    best_cost = table.cost();
                    best_values = table.values().to_vec();
                }
            }
        }

        BaselineResult {
            solver: self.name(),
            solved: best_cost == 0,
            solution: (best_cost == 0).then_some(best_values),
            moves: iteration,
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
        let mut ts = QuadraticTabuSearch::default();
        for n in [5usize, 8, 10] {
            let r = ts.solve(n, n as u64, &SolverBudget::unlimited());
            assert!(r.solved, "n = {n}");
            assert!(is_costas_permutation(r.solution.as_ref().unwrap()));
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let mut ts = QuadraticTabuSearch::default();
        let r = ts.solve(17, 1, &SolverBudget::moves(30));
        assert!(r.moves <= 30);
    }

    #[test]
    fn reproducible_for_a_fixed_seed() {
        let mut a = QuadraticTabuSearch::default();
        let mut b = QuadraticTabuSearch::default();
        let ra = a.solve(9, 5, &SolverBudget::unlimited());
        let rb = b.solve(9, 5, &SolverBudget::unlimited());
        assert_eq!(ra.solution, rb.solution);
        assert_eq!(ra.moves, rb.moves);
    }

    #[test]
    fn restart_counter_grows_under_tiny_restart_threshold() {
        let mut ts = QuadraticTabuSearch {
            config: TabuConfig {
                tenure: 3,
                restart_after: 5,
            },
        };
        let r = ts.solve(13, 2, &SolverBudget::moves(200));
        // with restart_after = 5 and 200 iterations on a hard-ish instance we expect
        // at least one diversification unless it got lucky and solved very fast
        assert!(r.solved || r.restarts > 0);
    }
}
