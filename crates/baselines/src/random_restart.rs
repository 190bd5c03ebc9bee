//! Min-conflict hill climbing with random restarts.
//!
//! This is the "stochastic search with a simple restart policy" family that Rickard &
//! Healy (2006) concluded was unlikely to scale beyond n ≈ 26 — the paper (§II) points
//! out that this conclusion does not extend to better-designed stochastic searches
//! like Adaptive Search.  Keeping this weak baseline around lets the comparison bench
//! show the gap concretely: same cost function, same neighbourhood, but no error
//! projection, no tabu, no plateau policy and no informed reset.

use std::time::Instant;

use adaptive_search::TieBreak;
use costas::{ConflictTable, CostModel};
use xrand::{default_rng, random_permutation, RandExt};

use crate::common::{BaselineResult, CostasSolver, SolverBudget};

/// Tuning knobs of the random-restart hill climber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartConfig {
    /// Sideways (equal-cost) moves tolerated before declaring the climb stuck.
    pub max_sideways: u32,
    /// Moves per climb before a forced restart.
    pub max_moves_per_climb: u64,
}

impl Default for RestartConfig {
    fn default() -> Self {
        Self {
            max_sideways: 50,
            max_moves_per_climb: 20_000,
        }
    }
}

/// The random-restart min-conflict hill climber.
#[derive(Debug, Clone, Default)]
pub struct RandomRestartHillClimbing {
    /// Configuration of the solver.
    pub config: RestartConfig,
}

impl CostasSolver for RandomRestartHillClimbing {
    fn name(&self) -> &'static str {
        "random-restart-hc"
    }

    fn solve(&mut self, n: usize, seed: u64, budget: &SolverBudget) -> BaselineResult {
        assert!(n > 0, "order must be positive");
        let start = Instant::now();
        let mut rng = default_rng(seed);
        let model = CostModel::basic();

        let mut moves = 0u64;
        let mut restarts = 0u64;
        let mut best_cost = u64::MAX;
        let mut best_values: Vec<usize> = Vec::new();
        // scratch buffers reused across climbs
        let mut probe: Vec<u64> = Vec::with_capacity(n);
        let mut conflicted: Vec<usize> = Vec::with_capacity(n);
        let mut best_partner = TieBreak::with_capacity(n);

        'outer: loop {
            // fresh random configuration
            let init: Vec<usize> = random_permutation(n, &mut rng)
                .into_iter()
                .map(|v| v + 1)
                .collect();
            let mut table = ConflictTable::new(&init, model);
            if table.cost() < best_cost {
                best_cost = table.cost();
                best_values = table.values().to_vec();
            }
            let mut sideways = 0u32;
            let mut climb_moves = 0u64;

            while table.cost() > 0 {
                if budget.exhausted(start, moves) {
                    break 'outer;
                }
                if climb_moves >= self.config.max_moves_per_climb {
                    break;
                }
                // pick a random conflicted variable and its best swap partner;
                // the per-variable errors are read straight from the conflict
                // table's cached vector (no recompute sweep)
                conflicted.clear();
                conflicted.extend(
                    table
                        .errors()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &e)| e > 0)
                        .map(|(i, _)| i),
                );
                if conflicted.is_empty() {
                    break;
                }
                let var = conflicted[rng.index(conflicted.len())];
                // batched read-only probe of every candidate partner; equal-cost
                // partners tie-break uniformly through the shared accumulator
                table.probe_partners(var, &mut probe);
                best_partner.clear();
                for (j, &c) in probe.iter().enumerate() {
                    if j != var {
                        best_partner.offer_min(j, c);
                    }
                }
                let best_after = best_partner.best().expect("n ≥ 2 partners");
                let partner = best_partner.pick(&mut rng).expect("n ≥ 2 partners");
                moves += 1;
                climb_moves += 1;
                let current = table.cost();
                if best_after < current {
                    table.apply_swap(var, partner);
                    sideways = 0;
                } else if best_after == current && sideways < self.config.max_sideways {
                    table.apply_swap(var, partner);
                    sideways += 1;
                } else {
                    // strict local minimum for this variable: give up this climb
                    break;
                }
                if table.cost() < best_cost {
                    best_cost = table.cost();
                    best_values = table.values().to_vec();
                }
            }

            if table.cost() == 0 {
                best_cost = 0;
                best_values = table.values().to_vec();
                break;
            }
            restarts += 1;
            if budget.exhausted(start, moves) {
                break;
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
        let mut hc = RandomRestartHillClimbing::default();
        for n in [5usize, 7, 9, 10] {
            let r = hc.solve(n, 3 + n as u64, &SolverBudget::unlimited());
            assert!(r.solved, "n = {n}");
            assert!(is_costas_permutation(r.solution.as_ref().unwrap()));
        }
    }

    #[test]
    fn respects_budget_and_reports_best_effort() {
        let mut hc = RandomRestartHillClimbing::default();
        let r = hc.solve(17, 11, &SolverBudget::moves(500));
        assert!(r.moves <= 501);
        if !r.solved {
            assert!(r.best_cost > 0);
            assert!(r.solution.is_none());
        }
    }

    #[test]
    fn restarts_happen_on_hard_instances_with_small_climbs() {
        let mut hc = RandomRestartHillClimbing {
            config: RestartConfig {
                max_sideways: 2,
                max_moves_per_climb: 50,
            },
        };
        let r = hc.solve(14, 5, &SolverBudget::moves(2_000));
        assert!(r.solved || r.restarts > 0);
    }

    #[test]
    fn reproducible_for_a_fixed_seed() {
        let mut a = RandomRestartHillClimbing::default();
        let mut b = RandomRestartHillClimbing::default();
        let ra = a.solve(9, 77, &SolverBudget::unlimited());
        let rb = b.solve(9, 77, &SolverBudget::unlimited());
        assert_eq!(ra.solution, rb.solution);
        assert_eq!(ra.moves, rb.moves);
    }
}
