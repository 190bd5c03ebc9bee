//! One unit of work — a solve request run with a given number of walks —
//! and the passes the workloads are built from.

use std::time::{Duration, Instant};

use adaptive_search::problems::{self, ProblemInfo};
use adaptive_search::{Engine, SearchStats, SolveRequest, SolveStatus, Termination};
use multiwalk::{ThreadRunner, WalkSpec};

use crate::trace::traced_key;

/// What a correct run of a unit ends with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A solution that the registry's `is_optimum` accepts.
    Solved,
    /// The full iteration budget spent on every walk (large orders never
    /// solve; a verified solution is accepted too).
    Budget,
}

/// A solve request and the walks racing on it: one walk goes through
/// `SolveRequest::run`, more through `ThreadRunner::run`.
#[derive(Debug, Clone)]
pub struct Unit {
    pub request: SolveRequest,
    pub walks: usize,
    pub expect: Expect,
}

/// What one run of a unit measured.
#[derive(Debug, Clone)]
pub struct Done {
    /// Ended as [`Unit::expect`] asks, with any solution re-verified.
    pub ok: bool,
    /// Wall time of the call into the request or runner layer.
    pub wall: Duration,
    /// Engine time summed over walks.
    pub engine: Duration,
    /// Wall time minus the walk that decided the job (the winner, or the
    /// longest walk when none solved); zero for one walk.
    pub runner_overhead: Duration,
    /// Statistics merged over walks.
    pub stats: SearchStats,
    /// Exact description of a one-walk search path, which replays; empty
    /// for races, whose winner depends on thread timing.
    pub trajectory: String,
}

impl Unit {
    pub fn info(&self) -> &'static ProblemInfo {
        problems::find(&self.request.problem).expect("units name registry problems")
    }

    /// Run the unit, through the traced twin of its model when `traced`.
    pub fn run(&self, traced: bool) -> Done {
        let mut request = self.request.clone();
        if traced {
            request.problem = traced_key(&request.problem);
        }
        let is_optimum = self.info().is_optimum;
        let verified = |solution: &Option<Vec<usize>>| solution.as_deref().is_some_and(is_optimum);
        if self.walks == 1 {
            let start = Instant::now();
            let outcome = request.run().expect("units are valid requests");
            let wall = start.elapsed();
            let solved = outcome.termination == Termination::Solved && verified(&outcome.solution);
            let stats = outcome.stats;
            let ok = match self.expect {
                Expect::Solved => solved,
                Expect::Budget => {
                    solved
                        || (outcome.termination == Termination::BudgetExhausted
                            && stats.iterations == request.budget)
                }
            };
            let trajectory = format!(
                "{} it={} best={} final={} resets={} escapes={} minima={} plateau={}",
                outcome.termination.as_str(),
                stats.iterations,
                outcome.best_cost,
                outcome.final_cost,
                stats.resets,
                stats.custom_reset_escapes,
                stats.local_minima,
                stats.plateau_moves,
            );
            return Done {
                ok,
                wall,
                engine: outcome.elapsed,
                runner_overhead: Duration::ZERO,
                stats,
                trajectory,
            };
        }
        let spec = WalkSpec::from_request(&request).expect("units are valid requests");
        let runner = ThreadRunner::new(spec, self.walks);
        let start = Instant::now();
        let result = runner.run(request.seed);
        let wall = start.elapsed();
        let walks = &result.walk_results;
        let solved = verified(&result.solution);
        let ok = match self.expect {
            Expect::Solved => solved,
            Expect::Budget => {
                solved
                    || walks.iter().all(|w| {
                        w.status == SolveStatus::IterationLimit
                            && w.stats.iterations == request.budget
                    })
            }
        };
        let deciding = match result.winner {
            Some(rank) => walks[rank].elapsed,
            None => walks.iter().map(|w| w.elapsed).max().unwrap_or_default(),
        };
        let mut stats = SearchStats::default();
        for walk in walks {
            stats.merge(&walk.stats);
        }
        Done {
            ok,
            wall,
            engine: walks.iter().map(|w| w.elapsed).sum(),
            runner_overhead: wall.saturating_sub(deciding),
            stats,
            trajectory: String::new(),
        }
    }

    /// Build the engines the unit's walks start from — the construction work
    /// the request and runner layers do before searching.
    pub fn build_engines(&self) -> usize {
        let request = &self.request;
        if self.walks == 1 {
            let config = request.engine_config().expect("units are valid requests");
            let engine = Engine::new((self.info().build)(request.n), config, request.seed);
            std::hint::black_box(&engine);
            return 1;
        }
        let spec = WalkSpec::from_request(request).expect("units are valid requests");
        for rank in 0..self.walks {
            std::hint::black_box(spec.build_engine(request.seed, rank));
        }
        self.walks
    }
}
