//! The unified solve API: one typed request/outcome pair for every solve path.
//!
//! Before this module the workspace had three ad-hoc argument lists for "solve
//! registered problem X": `baselines::solve_registry(key, size, seed, budget)`,
//! `multiwalk::WalkSpec::for_problem(key, n)` (+ a config override), and
//! whatever each harness hand-rolled on top of [`crate::Engine`].  The solver
//! service (`solverd`) adds a fourth consumer — network traffic — which is
//! exactly when scattered argument lists turn into drift: each path validates
//! (or forgets to validate) the problem key, the warm start and the budget on
//! its own.
//!
//! [`SolveRequest`] is the one audited shape:
//!
//! * **problem key** — a [`crate::problems`] registry key; unknown keys are a
//!   typed [`RequestError`], never a panic, so services can turn them into
//!   structured rejects;
//! * **instance parameter `n`** — per-model semantics
//!   ([`crate::ProblemInfo::size_unit`]), bounded by the model's
//!   [`crate::ProblemInfo::size_range`] and [`crate::ProblemInfo::size_step`]
//!   and checked before any model is built, so an impossible size is a typed
//!   [`RequestError`], never an abort or a panic;
//! * **budget** — the engine iteration budget (per walk, for fan-out callers);
//! * **seed** — the master seed; the same request with the same seed replays
//!   bit-for-bit (modulo wall-clock) through every path built on this module;
//! * **warm start** — an optional start permutation installed through
//!   [`crate::Engine::inject_candidate`], validated *before* any engine is
//!   built (the engine's own checks panic, which a service must never do);
//! * **deadline** — an optional wall-clock bound enforced with
//!   [`crate::termination::DeadlineStop`].
//!
//! [`SolveRequest::run`] executes the single-engine path and returns a
//! [`SolveOutcome`]: solution (verified against the registry's independent
//! known-optimum predicate — never against searcher bookkeeping alone), full
//! [`SearchStats`], and a [`Termination`] reason.  `baselines::solve_registry`,
//! `multiwalk::WalkSpec::from_request` and the `solverd` service entry point
//! are all re-expressed over this type, so a request that behaves one way in a
//! bench harness behaves identically when it arrives over a socket.

use std::time::{Duration, Instant};

use crate::config::AsConfig;
use crate::engine::Engine;
use crate::problems::{self, ProblemInfo};
use crate::stats::{SearchStats, SolveStatus};
use crate::termination::{
    AnyStop, CancelToken, DeadlineStop, NeverStop, StopCondition, StopReason,
};

/// Why a [`SolveRequest`] could not be executed.
///
/// These are *request* errors — detectable before any search work happens — as
/// opposed to unsatisfied outcomes (budget exhausted, deadline expired), which
/// are reported as a [`Termination`] on a successful run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The problem key is not in the [`crate::problems`] registry.
    UnknownProblem {
        /// The offending key, verbatim.
        key: String,
    },
    /// The instance parameter is outside the model's
    /// [`ProblemInfo::size_range`]: zero, or larger than the largest instance
    /// whose model fits [`problems::MODEL_MEMORY_BUDGET`].
    SizeOutOfRange {
        /// Canonical registry key of the problem.
        key: &'static str,
        /// The requested instance parameter.
        n: usize,
        /// The model's [`ProblemInfo::max_n`].
        max_n: usize,
    },
    /// The instance parameter is in range but not a multiple of the model's
    /// [`ProblemInfo::size_step`] (an odd number-partitioning order).
    SizeNotMultiple {
        /// Canonical registry key of the problem.
        key: &'static str,
        /// The requested instance parameter.
        n: usize,
        /// The model's [`ProblemInfo::size_step`].
        step: usize,
    },
    /// An explicit fan-out races more walks than fit
    /// [`problems::MODEL_MEMORY_BUDGET`] together at this instance parameter
    /// ([`ProblemInfo::walks_within_budget`]).
    WalksOverBudget {
        /// Canonical registry key of the problem.
        key: &'static str,
        /// The requested instance parameter.
        n: usize,
        /// The requested walk count.
        walks: usize,
        /// The most walks that fit the budget at `n`.
        max_walks: usize,
    },
    /// The warm-start permutation is unusable for this instance.
    InvalidWarmStart {
        /// What exactly is wrong (length mismatch, not a permutation, …).
        reason: String,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownProblem { key } => {
                write!(f, "unknown problem key {key:?}; see problems::registry()")
            }
            RequestError::SizeOutOfRange { key, n, max_n } => write!(
                f,
                "n = {n} is outside 1..={max_n} for {key:?} (the largest instance \
                 whose model fits {} MiB)",
                problems::MODEL_MEMORY_BUDGET >> 20
            ),
            RequestError::SizeNotMultiple { key, n, step } => {
                write!(f, "n = {n} is not a multiple of {step} for {key:?}")
            }
            RequestError::WalksOverBudget {
                key,
                n,
                walks,
                max_walks,
            } => write!(
                f,
                "{walks} walks of {key:?} at n = {n} exceed {} MiB; at most {max_walks} fit",
                problems::MODEL_MEMORY_BUDGET >> 20
            ),
            RequestError::InvalidWarmStart { reason } => {
                write!(f, "invalid warm start: {reason}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// How a solve run ended, from the requester's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// A solution was found *and* accepted by the model's independent
    /// known-optimum predicate.
    Solved,
    /// The iteration budget ran out first.
    BudgetExhausted,
    /// The wall-clock deadline expired first.
    DeadlineExpired,
    /// An external stop condition cancelled the run (e.g. a sibling walk won,
    /// or a service shut down).
    Cancelled,
}

impl Termination {
    /// Stable wire label (used by the `solverd` line protocol and artefacts).
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Solved => "solved",
            Termination::BudgetExhausted => "budget",
            Termination::DeadlineExpired => "deadline",
            Termination::Cancelled => "cancelled",
        }
    }
}

/// One solve request: everything a solve path needs, in one audited struct.
///
/// See the module docs for field semantics.  Construct with
/// [`SolveRequest::new`] and refine with the builder-style `with_*` methods.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Registry key of the problem to solve.
    pub problem: String,
    /// Instance parameter (per-model semantics, see
    /// [`crate::ProblemInfo::size_unit`]).
    pub n: usize,
    /// Engine iteration budget (per walk when a caller fans out);
    /// `u64::MAX` = effectively unbounded.
    pub budget: u64,
    /// Master seed.  Fan-out callers derive per-rank seeds from it through the
    /// chaotic seeder; the single-engine path uses it directly.
    pub seed: u64,
    /// Optional start permutation (a permutation of `1..=size`), installed via
    /// [`crate::Engine::inject_candidate`] before the search starts.
    pub warm_start: Option<Vec<usize>>,
    /// Optional wall-clock bound, measured from the moment the run starts.
    pub deadline: Option<Duration>,
}

impl SolveRequest {
    /// A request with no warm start, no deadline and an unbounded budget.
    pub fn new(problem: impl Into<String>, n: usize, seed: u64) -> Self {
        Self {
            problem: problem.into(),
            n,
            budget: u64::MAX,
            seed,
            warm_start: None,
            deadline: None,
        }
    }

    /// Set the iteration budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Set the warm-start permutation.
    pub fn with_warm_start(mut self, warm_start: Vec<usize>) -> Self {
        self.warm_start = Some(warm_start);
        self
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Look up the registry entry for this request's problem key.
    pub fn info(&self) -> Result<&'static ProblemInfo, RequestError> {
        problems::find(&self.problem).ok_or_else(|| RequestError::UnknownProblem {
            key: self.problem.clone(),
        })
    }

    /// The registry entry, once the model is known to admit `n` (in its
    /// [`ProblemInfo::size_range`], a multiple of its
    /// [`ProblemInfo::size_step`]) — the check every path runs before it
    /// builds a model.
    fn sized_info(&self) -> Result<&'static ProblemInfo, RequestError> {
        let info = self.info()?;
        if !info.size_range().contains(&self.n) {
            return Err(RequestError::SizeOutOfRange {
                key: info.key,
                n: self.n,
                max_n: info.max_n,
            });
        }
        if !info.admits(self.n) {
            return Err(RequestError::SizeNotMultiple {
                key: info.key,
                n: self.n,
                step: info.size_step,
            });
        }
        Ok(info)
    }

    /// Validate the request without running it: the problem key must be
    /// registered, the model must admit `n`, and the warm start
    /// (when present) must be a permutation of `1..=size` for this instance.
    ///
    /// The size is checked first, before anything is allocated.
    /// Building the instance is how `size` is determined (the parameter has
    /// per-model semantics), so a warm start costs one model construction;
    /// services validate at admission time to guarantee workers never panic.
    pub fn validate(&self) -> Result<(), RequestError> {
        let info = self.sized_info()?;
        if let Some(warm) = &self.warm_start {
            let size = (info.build)(self.n).size();
            check_permutation(warm, size)?;
        }
        Ok(())
    }

    /// The engine configuration this request runs under: the model's registry
    /// default for `n`, with the request's budget as the iteration limit.
    pub fn engine_config(&self) -> Result<AsConfig, RequestError> {
        let info = self.info()?;
        Ok(AsConfig {
            max_iterations: self.budget,
            ..(info.default_config)(self.n)
        })
    }

    /// Execute the single-engine path: build the model from the registry,
    /// apply the warm start, run under budget + deadline, verify any claimed
    /// solution with the registry's independent predicate.
    ///
    /// This is the audited solve path: `baselines::solve_registry` and the
    /// `solverd` single-engine lane are thin wrappers around it, which is what
    /// makes "same request + same seed ⇒ bit-identical outcome" hold across
    /// the workspace (all fields except the wall-clock `elapsed` replay).
    pub fn run(&self) -> Result<SolveOutcome, RequestError> {
        self.run_with_cancel(None)
    }

    /// [`SolveRequest::run`] with an optional [`CancelToken`]: when the token's
    /// flag is raised mid-solve the engine stops at its next stop-condition
    /// poll and the outcome reports [`Termination::Cancelled`].  A deadline and
    /// a cancel compose — whichever fires first names the termination.
    pub fn run_with_cancel(
        &self,
        cancel: Option<&CancelToken>,
    ) -> Result<SolveOutcome, RequestError> {
        let info = self.sized_info()?;
        let config = self.engine_config()?;
        let mut engine = Engine::new((info.build)(self.n), config, self.seed);
        if let Some(warm) = &self.warm_start {
            check_permutation(warm, engine.problem().size())?;
            // Threshold u64::MAX: a warm start is an unconditional handover,
            // not a conditional offer — the caller asked to start *here*.
            engine.inject_candidate(warm, u64::MAX);
        }
        // An unrepresentable deadline (Instant overflow) degrades to "none".
        let mut conditions: Vec<Box<dyn StopCondition>> = Vec::new();
        if let Some(token) = cancel {
            conditions.push(Box::new(token.stop_condition()));
        }
        if let Some(stop) = self
            .deadline
            .and_then(|d| Instant::now().checked_add(d))
            .map(DeadlineStop::at)
        {
            conditions.push(Box::new(stop));
        }
        let result = if conditions.is_empty() {
            engine.solve_until(&mut NeverStop)
        } else {
            engine.solve_until(&mut AnyStop::new(conditions))
        };
        let solved = result.status == SolveStatus::Solved
            && result
                .solution
                .as_deref()
                .is_some_and(|s| (info.is_optimum)(s));
        let termination = match result.status {
            SolveStatus::Solved if solved => Termination::Solved,
            // The engine claimed a solution the independent predicate rejects:
            // report it as an exhausted run rather than a false positive.
            SolveStatus::Solved => Termination::BudgetExhausted,
            SolveStatus::IterationLimit => Termination::BudgetExhausted,
            // The recorded stop reason tells a cancellation apart from a
            // deadline expiry; an absent reason on this path can only be the
            // deadline (the legacy composition without a cancel token).
            SolveStatus::ExternallyStopped => match result.stop_reason {
                Some(StopReason::Cancelled) => Termination::Cancelled,
                _ => Termination::DeadlineExpired,
            },
            // Unreachable here — the engine never returns Panicked (only
            // supervising runners construct it) — but a service must map every
            // status to *some* answer rather than abort.
            SolveStatus::Panicked => Termination::Cancelled,
        };
        Ok(SolveOutcome {
            problem: info.key,
            n: self.n,
            termination,
            solution: result.solution.filter(|_| solved),
            final_cost: result.final_cost,
            best_cost: result.best_cost,
            stats: result.stats,
            elapsed: result.elapsed,
        })
    }
}

/// The outcome of one executed [`SolveRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Canonical registry key of the problem that ran.
    pub problem: &'static str,
    /// The instance parameter of the request.
    pub n: usize,
    /// Why the run ended.
    pub termination: Termination,
    /// The solution when `termination == Solved` — verified against the
    /// model's independent known-optimum predicate, never searcher state.
    pub solution: Option<Vec<usize>>,
    /// Cost of the final configuration (0 when solved).
    pub final_cost: u64,
    /// Best cost observed during the search.
    pub best_cost: u64,
    /// Accumulated engine statistics (merged over walks for fan-out callers).
    pub stats: SearchStats,
    /// Wall-clock time spent solving (the one field that does not replay).
    pub elapsed: Duration,
}

impl SolveOutcome {
    /// Convenience predicate.
    pub fn is_solved(&self) -> bool {
        self.termination == Termination::Solved
    }
}

/// Check that `values` is a permutation of `1..=size`, with a reason on failure.
fn check_permutation(values: &[usize], size: usize) -> Result<(), RequestError> {
    if values.len() != size {
        return Err(RequestError::InvalidWarmStart {
            reason: format!("expected {size} values, got {}", values.len()),
        });
    }
    let mut seen = vec![false; size];
    for &v in values {
        if !(1..=size).contains(&v) {
            return Err(RequestError::InvalidWarmStart {
                reason: format!("value {v} outside 1..={size}"),
            });
        }
        if std::mem::replace(&mut seen[v - 1], true) {
            return Err(RequestError::InvalidWarmStart {
                reason: format!("duplicate value {v}"),
            });
        }
    }
    Ok(())
}

/// A deadline already anchored to an instant, for callers (services) that
/// admit a request at one time and run it later: the remaining time is what
/// the engine gets.  `None` when the deadline has already passed.
pub fn remaining_deadline(deadline: Option<Instant>) -> Option<Option<Duration>> {
    match deadline {
        None => Some(None),
        Some(at) => {
            let now = Instant::now();
            if at <= now {
                None
            } else {
                Some(Some(at - now))
            }
        }
    }
}

/// A no-op [`StopCondition`] re-export point for callers composing their own
/// stop logic on top of the request layer.
pub fn never_stop() -> impl StopCondition {
    NeverStop
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_keys_are_typed_errors_not_panics() {
        let request = SolveRequest::new("no-such-model", 5, 1);
        let err = request.run().expect_err("unknown key must error");
        assert_eq!(
            err,
            RequestError::UnknownProblem {
                key: "no-such-model".into()
            }
        );
        assert!(err.to_string().contains("no-such-model"));
        assert!(request.validate().is_err());
        assert!(request.info().is_err());
        assert!(request.engine_config().is_err());
    }

    /// Every registry model admits its `max_n` and rejects `max_n + 1` and
    /// zero, in `validate` and `run` alike, without building anything; an
    /// odd order is admitted by every model but number partitioning, which
    /// rejects it with a typed error instead of reaching its constructor's
    /// evenness assert.
    #[test]
    fn sizes_outside_the_model_range_are_typed_errors() {
        for info in problems::registry() {
            let odd = SolveRequest::new(info.key, 7, 1).with_budget(10);
            if info.size_step == 1 {
                odd.validate()
                    .unwrap_or_else(|e| panic!("{} at n = 7: {e}", info.key));
            } else {
                let expected = RequestError::SizeNotMultiple {
                    key: info.key,
                    n: 7,
                    step: info.size_step,
                };
                assert_eq!(odd.validate(), Err(expected.clone()), "{}", info.key);
                assert_eq!(odd.run(), Err(expected), "{}", info.key);
            }
            assert!(
                info.max_n > *info.test_sizes.last().unwrap(),
                "{}",
                info.key
            );
            assert!(info.max_n < u32::MAX as usize - 1, "{}", info.key);
            SolveRequest::new(info.key, info.max_n, 1)
                .validate()
                .unwrap_or_else(|e| panic!("{} at max_n: {e}", info.key));
            for n in [0, info.max_n + 1, usize::MAX] {
                let request = SolveRequest::new(info.key, n, 1);
                let expected = RequestError::SizeOutOfRange {
                    key: info.key,
                    n,
                    max_n: info.max_n,
                };
                assert_eq!(request.validate(), Err(expected.clone()), "{}", info.key);
                assert_eq!(request.run(), Err(expected), "{}", info.key);
            }
        }
        let err = SolveRequest::new("costas", 2_000_000, 1)
            .validate()
            .expect_err("huge order");
        assert!(err.to_string().contains("256 MiB"), "{err}");
    }

    #[test]
    fn run_solves_and_verifies_with_the_independent_predicate() {
        let outcome = SolveRequest::new("costas", 10, 42).run().expect("runs");
        assert_eq!(outcome.termination, Termination::Solved);
        assert!(outcome.is_solved());
        assert_eq!(outcome.problem, "costas");
        assert_eq!(outcome.final_cost, 0);
        let info = problems::find("costas").unwrap();
        assert!((info.is_optimum)(outcome.solution.as_ref().unwrap()));
    }

    #[test]
    fn budget_exhaustion_is_reported_as_budget() {
        let outcome = SolveRequest::new("costas", 18, 3)
            .with_budget(25)
            .run()
            .expect("runs");
        assert_eq!(outcome.termination, Termination::BudgetExhausted);
        assert!(outcome.solution.is_none());
        assert!(outcome.stats.iterations <= 26);
        assert!(outcome.best_cost > 0);
    }

    #[test]
    fn deadline_expiry_is_reported_as_deadline() {
        let start = Instant::now();
        let outcome = SolveRequest::new("costas", 24, 1)
            .with_deadline(Duration::from_millis(20))
            .run()
            .expect("runs");
        assert_eq!(outcome.termination, Termination::DeadlineExpired);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline ignored"
        );
        assert!(outcome.solution.is_none());
    }

    #[test]
    fn a_pre_cancelled_token_terminates_as_cancelled() {
        // The token is raised before the run starts: the engine stops at its
        // first stop-condition poll and the outcome must say "cancelled", not
        // "deadline" — this is the request-level half of in-flight
        // cancellation (the service half raises the token from another
        // thread).
        let token = CancelToken::new();
        token.cancel();
        let outcome = SolveRequest::new("costas", 24, 1)
            .run_with_cancel(Some(&token))
            .expect("runs");
        assert_eq!(outcome.termination, Termination::Cancelled);
        assert!(outcome.solution.is_none());
    }

    #[test]
    fn cancel_raised_from_another_thread_stops_an_unbounded_solve() {
        let token = CancelToken::new();
        let signal = token.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                signal.cancel();
            });
            // Costas n = 24 with no budget and no deadline would run for a
            // very long time; only the cancel can end it.
            let outcome = SolveRequest::new("costas", 24, 7)
                .run_with_cancel(Some(&token))
                .expect("runs");
            assert_eq!(outcome.termination, Termination::Cancelled);
        });
    }

    #[test]
    fn deadline_still_wins_when_no_cancel_arrives() {
        let token = CancelToken::new();
        let outcome = SolveRequest::new("costas", 24, 1)
            .with_deadline(Duration::from_millis(20))
            .run_with_cancel(Some(&token))
            .expect("runs");
        assert_eq!(outcome.termination, Termination::DeadlineExpired);
    }

    #[test]
    fn warm_start_is_validated_before_any_engine_runs() {
        // wrong length
        let err = SolveRequest::new("costas", 10, 1)
            .with_warm_start(vec![1, 2, 3])
            .run()
            .expect_err("length mismatch");
        assert!(matches!(err, RequestError::InvalidWarmStart { .. }));
        // duplicate value
        let err = SolveRequest::new("costas", 4, 1)
            .with_warm_start(vec![1, 1, 2, 3])
            .validate()
            .expect_err("duplicate");
        assert!(err.to_string().contains("duplicate"));
        // out-of-range value
        let err = SolveRequest::new("costas", 4, 1)
            .with_warm_start(vec![0, 1, 2, 3])
            .validate()
            .expect_err("out of range");
        assert!(err.to_string().contains("outside"));
        // Langford: the instance parameter is the pair count, size is 2n — the
        // warm start must match the *size*, which validate() derives itself.
        assert!(SolveRequest::new("langford", 4, 1)
            .with_warm_start((1..=8).collect())
            .validate()
            .is_ok());
    }

    #[test]
    fn a_solved_warm_start_terminates_immediately() {
        // Inject a known Costas array: the engine starts at cost 0 and returns
        // without consuming budget.
        let outcome = SolveRequest::new("costas", 4, 9)
            .with_warm_start(vec![2, 4, 3, 1])
            .run()
            .expect("runs");
        assert_eq!(outcome.termination, Termination::Solved);
        assert_eq!(outcome.stats.iterations, 0);
        assert_eq!(outcome.solution, Some(vec![2, 4, 3, 1]));
    }

    #[test]
    fn same_request_replays_bit_identically() {
        let request = SolveRequest::new("costas", 12, 2024).with_budget(50_000);
        let a = request.run().expect("runs");
        let b = request.run().expect("runs");
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.final_cost, b.final_cost);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn remaining_deadline_classifies_past_present_future() {
        assert_eq!(remaining_deadline(None), Some(None));
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(remaining_deadline(Some(past)), None);
        let future = Instant::now() + Duration::from_secs(60);
        let remaining = remaining_deadline(Some(future)).expect("not expired");
        assert!(remaining.expect("bounded") <= Duration::from_secs(60));
    }
}
