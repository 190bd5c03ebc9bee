//! The common solver interface and result record shared by every baseline.

use std::time::{Duration, Instant};

use adaptive_search::termination::{DeadlineStop, NeverStop};
use adaptive_search::{
    AsConfig, CostasModelConfig, CostasProblem, Engine, RequestError, SolveRequest, SolveResult,
};
use costas::CostModel;

/// Resource budget for one solve call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverBudget {
    /// Maximum number of elementary moves / nodes (interpretation is per-solver but
    /// always proportional to work).
    pub max_moves: u64,
    /// Wall-clock limit.
    pub max_time: Duration,
}

impl SolverBudget {
    /// Effectively unlimited budget (used when the instance is known to be easy).
    pub fn unlimited() -> Self {
        Self {
            max_moves: u64::MAX,
            max_time: Duration::from_secs(u64::MAX / 4),
        }
    }

    /// Budget bounded by a number of moves.
    pub fn moves(max_moves: u64) -> Self {
        Self {
            max_moves,
            ..Self::unlimited()
        }
    }

    /// Budget bounded by wall-clock time.
    pub fn time(max_time: Duration) -> Self {
        Self {
            max_time,
            ..Self::unlimited()
        }
    }

    /// Is the budget exhausted given the elapsed time and move count?
    pub fn exhausted(&self, start: Instant, moves: u64) -> bool {
        moves >= self.max_moves || start.elapsed() >= self.max_time
    }
}

/// The outcome of one baseline solve call.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Name of the solver that produced this result.
    pub solver: &'static str,
    /// Whether a Costas array was found.
    pub solved: bool,
    /// The solution, when found.
    pub solution: Option<Vec<usize>>,
    /// Elementary moves / nodes explored.
    pub moves: u64,
    /// Number of restarts / diversifications performed.
    pub restarts: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Cost of the best configuration seen (0 when solved).
    pub best_cost: u64,
}

impl BaselineResult {
    /// Moves per second (0 when no time elapsed).
    pub fn moves_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.moves as f64 / secs
        } else {
            0.0
        }
    }
}

/// A solver of the Costas Array Problem.
pub trait CostasSolver {
    /// Name used in reports.
    fn name(&self) -> &'static str;

    /// Solve an instance of order `n` from the given seed within the budget.
    fn solve(&mut self, n: usize, seed: u64, budget: &SolverBudget) -> BaselineResult;
}

/// Adapter exposing the Adaptive Search engine through the [`CostasSolver`] interface.
#[derive(Debug, Clone)]
pub struct AdaptiveSearchSolver {
    /// Model configuration (optimised by default).
    pub model: CostasModelConfig,
    /// Engine configuration (paper defaults by default).
    pub config: AsConfig,
}

impl Default for AdaptiveSearchSolver {
    fn default() -> Self {
        Self {
            model: CostasModelConfig::optimized(),
            config: AsConfig::default(),
        }
    }
}

impl AdaptiveSearchSolver {
    /// AS with the basic (unoptimised) CAP model — used by the ablation bench.
    pub fn basic_model() -> Self {
        Self {
            model: CostasModelConfig::basic(),
            config: AsConfig::default(),
        }
    }

    /// AS with an explicit model, ERR weighting and span included.
    pub fn with_cost_model(cost_model: CostModel) -> Self {
        Self {
            model: CostasModelConfig {
                cost_model,
                ..CostasModelConfig::optimized()
            },
            config: AsConfig::default(),
        }
    }
}

/// Run an engine under both halves of a [`SolverBudget`]: the move budget is the
/// engine's iteration budget (already applied by the caller via `max_iterations`)
/// and the wall-clock budget becomes a polled [`DeadlineStop`].  An effectively
/// unlimited `max_time` (one that overflows `Instant` arithmetic) degrades to no
/// deadline at all.
fn solve_within<P: adaptive_search::PermutationProblem>(
    engine: &mut Engine<P>,
    budget: &SolverBudget,
) -> SolveResult {
    match Instant::now().checked_add(budget.max_time) {
        Some(deadline) => engine.solve_until(&mut DeadlineStop::at(deadline)),
        None => engine.solve_until(&mut NeverStop),
    }
}

/// Solve any workload of the [`adaptive_search::problems`] registry by key with
/// the real Adaptive Search engine, under the same budget/result conventions as
/// the [`CostasSolver`] baselines (so harness tables can mix Costas baselines and
/// registry workloads).
///
/// Uses the model's registry default configuration; `size` has the per-model
/// semantics documented in [`adaptive_search::ProblemInfo::size_unit`].  The
/// result's `solved` flag is only set when the model's independent known-optimum
/// predicate accepts the final configuration — never on the searcher's own
/// cost bookkeeping alone.
///
/// Implemented over the unified [`SolveRequest`] API: the `(key, size, seed,
/// budget)` tuple becomes one request and runs through
/// [`SolveRequest::run`] — the exact path the `solverd` service executes — so
/// a baseline row and a served response for the same request are the same
/// computation.  An unknown key is a typed [`RequestError`], not a panic.
pub fn solve_registry(
    key: &str,
    size: usize,
    seed: u64,
    budget: &SolverBudget,
) -> Result<BaselineResult, RequestError> {
    let outcome = SolveRequest::new(key, size, seed)
        .with_budget(budget.max_moves)
        .with_deadline(budget.max_time)
        .run()?;
    Ok(BaselineResult {
        solver: outcome.problem,
        solved: outcome.is_solved(),
        solution: outcome.solution,
        moves: outcome.stats.iterations,
        restarts: outcome.stats.restarts + outcome.stats.resets,
        elapsed: outcome.elapsed,
        best_cost: outcome.best_cost,
    })
}

impl CostasSolver for AdaptiveSearchSolver {
    fn name(&self) -> &'static str {
        "adaptive-search"
    }

    fn solve(&mut self, n: usize, seed: u64, budget: &SolverBudget) -> BaselineResult {
        let config = AsConfig {
            max_iterations: budget.max_moves,
            ..self.config.clone()
        };
        let problem = CostasProblem::with_config(n, self.model);
        let mut engine = Engine::new(problem, config, seed);
        let result = solve_within(&mut engine, budget);
        BaselineResult {
            solver: self.name(),
            solved: result.is_solved(),
            solution: result.solution,
            moves: result.stats.iterations,
            restarts: result.stats.restarts + result.stats.resets,
            elapsed: result.elapsed,
            best_cost: result.best_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_search::problems;
    use costas::is_costas_permutation;

    #[test]
    fn budget_exhaustion_checks() {
        let b = SolverBudget::moves(100);
        let start = Instant::now();
        assert!(!b.exhausted(start, 99));
        assert!(b.exhausted(start, 100));
        let t = SolverBudget::time(Duration::ZERO);
        assert!(t.exhausted(Instant::now(), 0));
        let u = SolverBudget::unlimited();
        assert!(!u.exhausted(Instant::now(), 1_000_000_000));
    }

    #[test]
    fn adaptive_search_adapter_solves() {
        let mut solver = AdaptiveSearchSolver::default();
        let r = solver.solve(12, 7, &SolverBudget::unlimited());
        assert!(r.solved);
        assert_eq!(r.best_cost, 0);
        assert!(is_costas_permutation(r.solution.as_ref().unwrap()));
        assert!(r.moves > 0);
        assert_eq!(r.solver, "adaptive-search");
    }

    #[test]
    fn adaptive_search_adapter_respects_move_budget() {
        let mut solver = AdaptiveSearchSolver::default();
        let r = solver.solve(18, 3, &SolverBudget::moves(25));
        assert!(!r.solved);
        assert!(r.moves <= 26);
        assert!(r.best_cost > 0);
    }

    #[test]
    fn registry_dispatch_solves_every_workload_on_a_small_instance() {
        for info in problems::registry() {
            let size = info.solvable_sizes[0];
            let r = solve_registry(info.key, size, 5, &SolverBudget::unlimited())
                .expect("registered key");
            assert!(r.solved, "{} (size {size})", info.key);
            assert_eq!(r.solver, info.key);
            assert!((info.is_optimum)(r.solution.as_ref().unwrap()));
        }
        let err = solve_registry("no-such-model", 5, 1, &SolverBudget::unlimited())
            .expect_err("unknown key");
        assert_eq!(
            err,
            RequestError::UnknownProblem {
                key: "no-such-model".into()
            }
        );
    }

    #[test]
    fn registry_dispatch_respects_move_budget() {
        let r = solve_registry("costas", 18, 3, &SolverBudget::moves(25)).unwrap();
        assert!(!r.solved);
        assert!(r.moves <= 26);
        assert!(r.solution.is_none());
    }

    #[test]
    fn registry_dispatch_respects_wall_clock_budget() {
        // CAP 24 is far beyond an instant solve; a 20 ms deadline must bound the
        // run (the engine polls the deadline every stop_check_interval
        // iterations, tens of thousands of times per second on this instance).
        let budget = SolverBudget::time(Duration::from_millis(20));
        let start = Instant::now();
        let r = solve_registry("costas", 24, 1, &budget).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline ignored"
        );
        assert!(!r.solved);
    }

    #[test]
    fn adaptive_search_adapter_respects_wall_clock_budget() {
        let mut solver = AdaptiveSearchSolver::default();
        let start = Instant::now();
        let r = solver.solve(24, 1, &SolverBudget::time(Duration::from_millis(20)));
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline ignored"
        );
        assert!(!r.solved);
    }

    #[test]
    fn result_rate_helper() {
        let r = BaselineResult {
            solver: "x",
            solved: true,
            solution: None,
            moves: 500,
            restarts: 0,
            elapsed: Duration::from_millis(250),
            best_cost: 0,
        };
        assert!((r.moves_per_second() - 2000.0).abs() < 1e-9);
    }
}
