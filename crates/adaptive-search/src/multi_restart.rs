//! Sequential solve drivers.
//!
//! Table I of the paper is produced by running the sequential AS solver 100 times per
//! instance and aggregating best/average/worst times and iteration counts.  The
//! [`SequentialDriver`] does exactly that for the CAP; [`solve_costas`] is the
//! convenience entry point used by the examples and the benchmark harnesses.

use xrand::SeedSequence;

use crate::config::AsConfig;
use crate::costas_model::{CostasModelConfig, CostasProblem};
use crate::engine::Engine;
use crate::stats::SolveResult;

/// Solve one CAP instance of order `n` with the optimised model and the paper's
/// default parameters.  Runs until a solution is found (no iteration cap), so for
/// paper-sized instances (n ≤ 23) it always returns a solution.
pub fn solve_costas(n: usize, seed: u64) -> SolveResult {
    solve_costas_with(n, CostasModelConfig::optimized(), AsConfig::default(), seed)
}

/// Solve one CAP instance with explicit model and engine configurations.
pub fn solve_costas_with(
    n: usize,
    model: CostasModelConfig,
    config: AsConfig,
    seed: u64,
) -> SolveResult {
    let problem = CostasProblem::with_config(n, model);
    let mut engine = Engine::new(problem, config, seed);
    engine.solve()
}

/// Runs a batch of independent sequential solves of the same instance, one per seed —
/// the experimental protocol behind Table I (100 runs per instance).
#[derive(Debug, Clone)]
pub struct SequentialDriver {
    /// Order of the CAP instance.
    pub n: usize,
    /// Model configuration used for every run.
    pub model: CostasModelConfig,
    /// Engine configuration used for every run.
    pub config: AsConfig,
}

impl SequentialDriver {
    /// Driver for order `n` with the paper's defaults.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            model: CostasModelConfig::optimized(),
            config: AsConfig::default(),
        }
    }

    /// Use a different model configuration (ablation studies).
    pub fn with_model(mut self, model: CostasModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Use a different engine configuration.
    pub fn with_config(mut self, config: AsConfig) -> Self {
        self.config = config;
        self
    }

    /// Run `runs` independent solves, seeded from `master_seed`.
    pub fn run_many(&self, runs: usize, master_seed: u64) -> Vec<SolveResult> {
        let seeds = SeedSequence::new(master_seed);
        (0..runs)
            .map(|r| {
                solve_costas_with(
                    self.n,
                    self.model,
                    self.config.clone(),
                    seeds.child(r as u64).seed(),
                )
            })
            .collect()
    }
}

/// Summary statistics over a batch of runs (helper mirrored by the richer tooling in
/// the `runtime-stats` crate; kept here so this crate is self-contained).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Number of runs aggregated.
    pub runs: usize,
    /// How many of them found a solution.
    pub solved: usize,
    /// Average iterations per run.
    pub avg_iterations: f64,
    /// Minimum iterations over the runs.
    pub min_iterations: u64,
    /// Maximum iterations over the runs.
    pub max_iterations: u64,
    /// Average local minima per run.
    pub avg_local_minima: f64,
    /// Average wall-clock seconds per run.
    pub avg_seconds: f64,
}

impl BatchSummary {
    /// Aggregate a batch of results.
    pub fn from_results(results: &[SolveResult]) -> Self {
        assert!(!results.is_empty(), "cannot summarise an empty batch");
        let runs = results.len();
        let solved = results.iter().filter(|r| r.is_solved()).count();
        let iters: Vec<u64> = results.iter().map(|r| r.stats.iterations).collect();
        let avg_iterations = iters.iter().sum::<u64>() as f64 / runs as f64;
        let avg_local_minima =
            results.iter().map(|r| r.stats.local_minima).sum::<u64>() as f64 / runs as f64;
        let avg_seconds =
            results.iter().map(|r| r.elapsed.as_secs_f64()).sum::<f64>() / runs as f64;
        Self {
            runs,
            solved,
            avg_iterations,
            min_iterations: *iters.iter().min().unwrap(),
            max_iterations: *iters.iter().max().unwrap(),
            avg_local_minima,
            avg_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SolveStatus;
    use costas::is_costas_permutation;

    #[test]
    fn solve_costas_returns_a_costas_array() {
        let r = solve_costas(11, 4);
        assert_eq!(r.status, SolveStatus::Solved);
        assert!(is_costas_permutation(&r.solution.unwrap()));
    }

    #[test]
    fn driver_runs_are_independent_and_reproducible() {
        let driver = SequentialDriver::new(10);
        let a = driver.run_many(5, 123);
        let b = driver.run_many(5, 123);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.solution, y.solution);
            assert_eq!(x.stats.iterations, y.stats.iterations);
        }
        // different master seeds give (almost surely) different iteration profiles
        let c = driver.run_many(5, 456);
        assert!(a
            .iter()
            .zip(c.iter())
            .any(|(x, y)| x.stats.iterations != y.stats.iterations));
    }

    #[test]
    fn batch_summary_aggregates() {
        let driver = SequentialDriver::new(9);
        let results = driver.run_many(8, 7);
        let summary = BatchSummary::from_results(&results);
        assert_eq!(summary.runs, 8);
        assert_eq!(summary.solved, 8);
        assert!(summary.min_iterations <= summary.max_iterations);
        assert!(summary.avg_iterations >= summary.min_iterations as f64);
        assert!(summary.avg_iterations <= summary.max_iterations as f64);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_summary_panics() {
        let _ = BatchSummary::from_results(&[]);
    }
}
