//! Search statistics and solve results.
//!
//! Table I of the paper reports, per instance: execution time, number of iterations
//! and number of local minima encountered.  [`SearchStats`] tracks those plus the
//! other events the tuning sections discuss (plateau moves, resets, restarts), so the
//! benchmark harnesses can reproduce the table columns directly.

use std::time::Duration;

use crate::termination::StopReason;

/// Counters accumulated by one engine over one (or more, if restarting) walks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Total iterations of the main loop.
    pub iterations: u64,
    /// Number of local minima encountered (no improving move from the culprit).
    pub local_minima: u64,
    /// Improving swaps performed.
    pub improving_moves: u64,
    /// Plateau (equal-cost) swaps performed.
    pub plateau_moves: u64,
    /// Variables marked Tabu.
    pub tabu_marks: u64,
    /// Reset operations performed (generic or custom).
    pub resets: u64,
    /// Resets handled by the problem-specific procedure.
    pub custom_resets: u64,
    /// Custom resets that escaped the local minimum immediately
    /// (strictly better cost than at entry — the paper reports ≈32 %).
    pub custom_reset_escapes: u64,
    /// Full restarts from a fresh random configuration.
    pub restarts: u64,
    /// Configurations offered through [`crate::Engine::inject_candidate`].
    pub injections_offered: u64,
    /// Offered configurations actually adopted (cost below the caller's threshold).
    pub injections_adopted: u64,
    /// External stop-condition polls (the analogue of MPI termination probes).
    pub stop_checks: u64,
}

impl SearchStats {
    /// Merge another stats record into this one (used when aggregating walks).
    pub fn merge(&mut self, other: &SearchStats) {
        self.iterations += other.iterations;
        self.local_minima += other.local_minima;
        self.improving_moves += other.improving_moves;
        self.plateau_moves += other.plateau_moves;
        self.tabu_marks += other.tabu_marks;
        self.resets += other.resets;
        self.custom_resets += other.custom_resets;
        self.custom_reset_escapes += other.custom_reset_escapes;
        self.restarts += other.restarts;
        self.injections_offered += other.injections_offered;
        self.injections_adopted += other.injections_adopted;
        self.stop_checks += other.stop_checks;
    }
}

/// How a solve call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// A zero-cost configuration was reached.
    Solved,
    /// The iteration budget was exhausted first.
    IterationLimit,
    /// An external stop condition fired (e.g. another parallel walk finished first).
    ExternallyStopped,
    /// The walk's thread panicked and was isolated by a fault-tolerant runner;
    /// the result is a synthetic placeholder (no solution, `u64::MAX` costs).
    /// The engine itself never returns this status — only supervising runners
    /// construct it after `catch_unwind`.
    Panicked,
}

/// The outcome of a solve call.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Termination status.
    pub status: SolveStatus,
    /// The solution (a permutation of `1..=n`) when `status == Solved`.
    pub solution: Option<Vec<usize>>,
    /// Cost of the final configuration (0 when solved).
    pub final_cost: u64,
    /// Best cost observed during the search (equals `final_cost` when solved).
    pub best_cost: u64,
    /// Accumulated statistics.
    pub stats: SearchStats,
    /// Wall-clock time spent inside the engine.
    pub elapsed: Duration,
    /// Which [`StopReason`] fired when `status == ExternallyStopped`; `None`
    /// for every other status.  This is what lets request-level callers tell a
    /// cancellation apart from a deadline expiry after the fact.
    pub stop_reason: Option<StopReason>,
}

impl SolveResult {
    /// A synthetic result for a walk whose thread panicked: no solution,
    /// `u64::MAX` costs (so it can never win a best-cost comparison), empty
    /// stats.  Fault-tolerant runners slot this in for the dead walk so
    /// per-walk accounting stays index-aligned.
    pub fn panicked(elapsed: Duration) -> Self {
        Self {
            status: SolveStatus::Panicked,
            solution: None,
            final_cost: u64::MAX,
            best_cost: u64::MAX,
            stats: SearchStats::default(),
            elapsed,
            stop_reason: None,
        }
    }
    /// Convenience predicate.
    pub fn is_solved(&self) -> bool {
        self.status == SolveStatus::Solved
    }

    /// Iterations per second achieved by this run (0 when no time elapsed).
    pub fn iterations_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.stats.iterations as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_counters() {
        let mut a = SearchStats {
            iterations: 10,
            local_minima: 2,
            ..Default::default()
        };
        let b = SearchStats {
            iterations: 5,
            local_minima: 1,
            improving_moves: 3,
            plateau_moves: 2,
            tabu_marks: 4,
            resets: 1,
            custom_resets: 1,
            custom_reset_escapes: 1,
            restarts: 1,
            injections_offered: 6,
            injections_adopted: 2,
            stop_checks: 7,
        };
        a.merge(&b);
        assert_eq!(a.iterations, 15);
        assert_eq!(a.local_minima, 3);
        assert_eq!(a.improving_moves, 3);
        assert_eq!(a.plateau_moves, 2);
        assert_eq!(a.tabu_marks, 4);
        assert_eq!(a.resets, 1);
        assert_eq!(a.custom_resets, 1);
        assert_eq!(a.custom_reset_escapes, 1);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.injections_offered, 6);
        assert_eq!(a.injections_adopted, 2);
        assert_eq!(a.stop_checks, 7);
    }

    #[test]
    fn result_helpers() {
        let r = SolveResult {
            status: SolveStatus::Solved,
            solution: Some(vec![1]),
            final_cost: 0,
            best_cost: 0,
            stats: SearchStats {
                iterations: 1000,
                ..Default::default()
            },
            elapsed: Duration::from_millis(500),
            stop_reason: None,
        };
        assert!(r.is_solved());
        assert!((r.iterations_per_second() - 2000.0).abs() < 1e-9);

        let r2 = SolveResult {
            status: SolveStatus::IterationLimit,
            solution: None,
            final_cost: 7,
            best_cost: 3,
            stats: SearchStats::default(),
            elapsed: Duration::ZERO,
            stop_reason: None,
        };
        assert!(!r2.is_solved());
        assert_eq!(r2.iterations_per_second(), 0.0);
    }

    #[test]
    fn panicked_placeholder_never_wins_and_never_claims_a_solution() {
        let r = SolveResult::panicked(Duration::from_millis(3));
        assert_eq!(r.status, SolveStatus::Panicked);
        assert!(!r.is_solved());
        assert!(r.solution.is_none());
        assert_eq!(r.best_cost, u64::MAX);
        assert_eq!(r.final_cost, u64::MAX);
        assert_eq!(r.stop_reason, None);
    }
}
