//! Thread-backed independent multi-walk: one OS thread per walk, first solution wins.
//!
//! This is the execution mode a user with a multi-core workstation wants: it delivers
//! real wall-clock speed-up, bounded by the number of hardware threads.  Termination
//! mirrors the paper's scheme — each walk checks a shared flag every `c` iterations
//! (the flag plays the role of the MPI "solution found" message) and stops as soon as
//! it is raised.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use adaptive_search::termination::{AnyStop, CancelToken, DeadlineStop, FlagStop, StopCondition};
use adaptive_search::{SolveResult, SolveStatus};

use crate::walker::WalkSpec;

/// Outcome of one multi-walk job.
#[derive(Debug, Clone)]
pub struct MultiWalkResult {
    /// The solution found (a permutation of `1..=n`), if any walk succeeded.
    pub solution: Option<Vec<usize>>,
    /// Rank of the first walk that found a solution.
    pub winner: Option<usize>,
    /// Wall-clock time of the whole job.
    pub elapsed: Duration,
    /// Number of walks that were run.
    pub walks: usize,
    /// Per-walk results, indexed by rank.
    pub walk_results: Vec<SolveResult>,
}

impl MultiWalkResult {
    /// Did any walk find a solution?
    pub fn solved(&self) -> bool {
        self.solution.is_some()
    }

    /// Total iterations summed over all walks (the "work" of the job).
    pub fn total_iterations(&self) -> u64 {
        self.walk_results.iter().map(|r| r.stats.iterations).sum()
    }

    /// Iterations of the winning walk (the "critical path" in the machine-independent
    /// unit used by the virtual cluster).
    pub fn winner_iterations(&self) -> Option<u64> {
        self.winner.map(|w| self.walk_results[w].stats.iterations)
    }

    /// How many walks died to an isolated panic (their results are synthetic
    /// [`SolveResult::panicked`] placeholders).
    pub fn panicked_walks(&self) -> usize {
        self.walk_results
            .iter()
            .filter(|r| r.status == SolveStatus::Panicked)
            .count()
    }
}

/// How a fan-out ends its walks and names its winner: the one difference
/// between [`ThreadRunner::run_with_controls`] and
/// [`ThreadRunner::run_deterministic`].
#[derive(Clone, Copy)]
enum Race<'a> {
    /// Walks also stop on the shared first-solution flag, the deadline and the
    /// cancel token; the first walk to record its solution wins.
    FirstSolver {
        deadline: Option<Instant>,
        cancel: Option<&'a CancelToken>,
    },
    /// No stop condition: every walk runs to its own completion and the solved
    /// walk with the lowest `(iterations, rank)` wins.
    FewestIterations,
}

/// Runs `workers` independent walks on OS threads.
#[derive(Debug, Clone)]
pub struct ThreadRunner {
    spec: WalkSpec,
    workers: usize,
}

impl ThreadRunner {
    /// Create a runner for `workers` concurrent walks of `spec`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(spec: WalkSpec, workers: usize) -> Self {
        assert!(workers > 0, "at least one walk is required");
        Self { spec, workers }
    }

    /// The walk specification.
    pub fn spec(&self) -> &WalkSpec {
        &self.spec
    }

    /// Number of concurrent walks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run the job: all walks start from rank-specific chaotic seeds derived from
    /// `master_seed`, and the first walk to reach cost zero raises the shared flag.
    pub fn run(&self, master_seed: u64) -> MultiWalkResult {
        self.run_with_controls(master_seed, None, None)
    }

    /// The fully-controlled fan-out: an optional deadline *and* an optional
    /// [`CancelToken`], with per-walk panic isolation.
    ///
    /// * Every walk polls the shared first-solution flag, the deadline and the
    ///   cancel token at its stop-check interval; whichever fires first ends
    ///   the walk.  A request-scoped fan-out (the `solverd` service) thus
    ///   enforces per-request deadlines without a watchdog thread: a job whose
    ///   deadline fires before any walk solves returns unsolved with every walk
    ///   reporting `ExternallyStopped` (or `IterationLimit` if its budget ran
    ///   out first).
    /// * A panicking walk (a buggy or fault-injected model) is caught with
    ///   `catch_unwind` and costs only itself: its slot in `walk_results`
    ///   becomes a synthetic [`SolveResult::panicked`] placeholder and the
    ///   surviving walks' race is undisturbed.  The runner never aborts.
    pub fn run_with_controls(
        &self,
        master_seed: u64,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> MultiWalkResult {
        self.fan_out(master_seed, Race::FirstSolver { deadline, cancel })
    }

    /// Run the job with **no early-termination flag**: every walk runs to its own
    /// completion (solution or iteration budget) and the winner is the solved walk
    /// with the fewest iterations (rank breaks ties).
    ///
    /// Unlike [`ThreadRunner::run`], whose winner record depends on which thread
    /// reaches the mutex first (OS scheduling), everything here except `elapsed`
    /// is a pure function of `(spec, master_seed, workers)`: the winning rank, the
    /// winning permutation and every per-walk statistic replay bit-for-bit.  That
    /// makes it the way to measure min-of-k speed-up in iterations on real
    /// threads, free of scheduling noise; the determinism regression tests pin
    /// it as the reproducible alternative to the racy `run`.
    ///
    /// The iteration-count winner criterion is exactly the virtual cluster's
    /// machine-independent clock, so a deterministic thread job agrees with the
    /// simulator about *who* wins, while still exercising real OS threads.
    pub fn run_deterministic(&self, master_seed: u64) -> MultiWalkResult {
        self.fan_out(master_seed, Race::FewestIterations)
    }

    /// The one fan-out body: spawn a walk per rank, isolate panics, join, and
    /// pick the winner as `race` says.
    fn fan_out(&self, master_seed: u64, race: Race<'_>) -> MultiWalkResult {
        let start = Instant::now();
        let found = Arc::new(AtomicBool::new(false));
        let first_solver: Mutex<Option<usize>> = Mutex::new(None);

        let walk_results: Vec<SolveResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|rank| {
                    let (found, first_solver) = (&found, &first_solver);
                    scope.spawn(move || {
                        let walk_start = Instant::now();
                        // The catch region covers engine construction and the
                        // whole solve; winner recording stays outside it so a
                        // poisoned winner mutex cannot be blamed on this walk.
                        // A fault that is a function of (spec, master_seed,
                        // rank) kills the same walk in every replay, and the
                        // placeholder's u64::MAX costs keep it out of the
                        // deterministic winner fold.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let mut engine = self.spec.build_engine(master_seed, rank);
                            let Race::FirstSolver { deadline, cancel } = race else {
                                return engine.solve();
                            };
                            let mut conditions: Vec<Box<dyn StopCondition>> =
                                vec![Box::new(FlagStop::new(found.clone()))];
                            if let Some(at) = deadline {
                                conditions.push(Box::new(DeadlineStop::at(at)));
                            }
                            if let Some(token) = cancel {
                                conditions.push(Box::new(token.stop_condition()));
                            }
                            engine.solve_until(&mut AnyStop::new(conditions))
                        }))
                        .unwrap_or_else(|_| SolveResult::panicked(walk_start.elapsed()));
                        if matches!(race, Race::FirstSolver { .. })
                            && result.status == SolveStatus::Solved
                        {
                            // First writer wins; later solvers keep their result
                            // but do not overwrite the winner record.
                            first_solver
                                .lock()
                                .unwrap_or_else(|poison| poison.into_inner())
                                .get_or_insert(rank);
                            found.store(true, Ordering::Relaxed);
                        }
                        result
                    })
                })
                .collect();
            // A join error is unreachable while catch_unwind covers the walk
            // body; treat it as one more dead walk, never an abort.
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|_| SolveResult::panicked(start.elapsed()))
                })
                .collect()
        });

        let winner = match race {
            Race::FirstSolver { .. } => first_solver
                .into_inner()
                .unwrap_or_else(|poison| poison.into_inner()),
            Race::FewestIterations => walk_results
                .iter()
                .enumerate()
                .filter(|(_, r)| r.status == SolveStatus::Solved)
                .min_by_key(|(rank, r)| (r.stats.iterations, *rank))
                .map(|(rank, _)| rank),
        };
        MultiWalkResult {
            solution: winner.and_then(|w| walk_results[w].solution.clone()),
            winner,
            elapsed: start.elapsed(),
            walks: self.workers,
            walk_results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlatformProfile, VirtualCluster};
    use adaptive_search::AsConfig;
    use costas::is_costas_permutation;

    #[test]
    fn single_walk_behaves_like_sequential_solve() {
        let runner = ThreadRunner::new(WalkSpec::costas(11), 1);
        let result = runner.run(5);
        assert!(result.solved());
        assert_eq!(result.winner, Some(0));
        assert_eq!(result.walks, 1);
        assert!(is_costas_permutation(result.solution.as_ref().unwrap()));
        assert_eq!(
            result.total_iterations(),
            result.walk_results[0].stats.iterations
        );
    }

    #[test]
    fn multiple_walks_terminate_after_first_success() {
        let runner = ThreadRunner::new(WalkSpec::costas(12), 4);
        let result = runner.run(99);
        assert!(result.solved());
        let winner = result.winner.unwrap();
        assert!(winner < 4);
        assert!(is_costas_permutation(result.solution.as_ref().unwrap()));
        // every non-winning walk either solved independently or was stopped/limited
        for (rank, r) in result.walk_results.iter().enumerate() {
            if rank != winner {
                assert!(
                    matches!(
                        r.status,
                        SolveStatus::ExternallyStopped
                            | SolveStatus::Solved
                            | SolveStatus::IterationLimit
                    ),
                    "rank {rank}: {:?}",
                    r.status
                );
            }
        }
        assert!(result.winner_iterations().is_some());
    }

    #[test]
    fn unsolvable_budget_reports_failure_for_all_walks() {
        // Give every walk a tiny iteration budget on a hard instance: nobody solves.
        let spec = WalkSpec::costas(18).with_config(AsConfig::builder().max_iterations(20).build());
        let runner = ThreadRunner::new(spec, 3);
        let result = runner.run(1);
        assert!(!result.solved());
        assert_eq!(result.winner, None);
        assert!(result
            .walk_results
            .iter()
            .all(|r| r.status == SolveStatus::IterationLimit));
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_workers_rejected() {
        let _ = ThreadRunner::new(WalkSpec::costas(5), 0);
    }

    #[test]
    fn winner_on_a_poll_boundary_reports_solved_not_stopped() {
        // Regression test for the termination race at a poll boundary: with
        // `stop_check_interval = 1` every iteration is a poll boundary, so the
        // winning walk necessarily finishes *exactly* on one while the shared flag
        // may already be raised by a concurrent solver.  The engine checks the step
        // outcome before polling, so a walk that solves on the boundary must report
        // `Solved` — never `ExternallyStopped` — and its solution must be recorded.
        let spec =
            WalkSpec::costas(10).with_config(AsConfig::builder().stop_check_interval(1).build());
        for master_seed in 0..8u64 {
            let runner = ThreadRunner::new(spec.clone(), 4);
            let result = runner.run(master_seed);
            assert!(result.solved(), "seed {master_seed}");
            let winner = result.winner.unwrap();
            assert_eq!(
                result.walk_results[winner].status,
                SolveStatus::Solved,
                "seed {master_seed}: a winner stopped at the poll boundary"
            );
            assert!(is_costas_permutation(result.solution.as_ref().unwrap()));
            // The recorded solution is the winner's, not a later solver's.
            assert_eq!(
                result.solution, result.walk_results[winner].solution,
                "seed {master_seed}"
            );
        }
    }

    #[test]
    fn deterministic_run_replays_bit_for_bit_across_repeats() {
        // The flag-free variant must be a pure function of (spec, seed, workers):
        // same winner rank, same winning permutation, same per-walk statistics.
        // A capped budget keeps non-solving walks bounded.
        let spec =
            WalkSpec::costas(12).with_config(AsConfig::builder().max_iterations(50_000).build());
        let runner = ThreadRunner::new(spec, 4);
        let a = runner.run_deterministic(2024);
        let b = runner.run_deterministic(2024);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.walk_results.len(), b.walk_results.len());
        for (rank, (ra, rb)) in a.walk_results.iter().zip(&b.walk_results).enumerate() {
            assert_eq!(ra.status, rb.status, "rank {rank}");
            assert_eq!(ra.solution, rb.solution, "rank {rank}");
            assert_eq!(ra.stats, rb.stats, "rank {rank}");
        }
        assert!(a.solved(), "order 12 solves within the budget");
        assert!(is_costas_permutation(a.solution.as_ref().unwrap()));
    }

    #[test]
    fn deterministic_winner_minimises_iterations_then_rank() {
        let runner = ThreadRunner::new(WalkSpec::costas(10), 4);
        let result = runner.run_deterministic(7);
        assert!(result.solved());
        let winner = result.winner.unwrap();
        let expected = result
            .walk_results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.status == SolveStatus::Solved)
            .min_by_key(|(rank, r)| (r.stats.iterations, *rank))
            .map(|(rank, _)| rank)
            .unwrap();
        assert_eq!(winner, expected);
        assert_eq!(result.solution, result.walk_results[winner].solution);
        // no early stop: every walk ran to its own conclusion
        assert!(result
            .walk_results
            .iter()
            .all(|r| r.status != SolveStatus::ExternallyStopped));
    }

    #[test]
    fn deterministic_threads_agree_with_the_exact_virtual_cluster() {
        // The two deterministic substrates share one clock, engine iterations:
        // the exact simulator stops at the first block boundary after a solve,
        // the thread job runs every walk out, and both name the walk with the
        // lowest (iterations, rank).  They must agree on rank, count and answer.
        let cluster = VirtualCluster::new(PlatformProfile::local());
        for n in [10, 12] {
            let spec = WalkSpec::costas(n);
            for walks in [1, 2, 4, 8] {
                let runner = ThreadRunner::new(spec.clone(), walks);
                for master_seed in 0..4u64 {
                    let simulated = cluster.run_exact(&spec, walks, master_seed);
                    let threaded = runner.run_deterministic(master_seed);
                    let case = format!("n = {n}, {walks} walks, seed {master_seed}");
                    assert!(simulated.solved(), "{case}");
                    assert_eq!(threaded.winner, simulated.winner_rank, "{case}");
                    assert_eq!(
                        threaded.winner_iterations(),
                        Some(simulated.winner_iterations),
                        "{case}"
                    );
                    assert_eq!(threaded.solution, simulated.solution, "{case}");
                }
            }
        }
    }

    #[test]
    fn deadline_bounds_a_fanout_that_would_otherwise_run_long() {
        // Order-24 CAP with an unbounded budget would run for minutes; the
        // deadline must cut every walk off near the bound.
        let start = Instant::now();
        let runner = ThreadRunner::new(WalkSpec::costas(24), 2);
        let deadline = Instant::now() + Duration::from_millis(50);
        let result = runner.run_with_controls(1, Some(deadline), None);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline ignored"
        );
        assert!(!result.solved());
        assert!(result
            .walk_results
            .iter()
            .all(|r| r.status == SolveStatus::ExternallyStopped));
    }

    #[test]
    fn cancel_token_stops_a_fanout_mid_flight() {
        // Order-24 CAP with an unbounded budget only ends because the token is
        // raised from outside the runner — the service-side cancellation path.
        let start = Instant::now();
        let runner = ThreadRunner::new(WalkSpec::costas(24), 2);
        let token = CancelToken::new();
        let signal = token.clone();
        let signaller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            signal.cancel();
        });
        let result = runner.run_with_controls(1, None, Some(&token));
        signaller.join().unwrap();
        assert!(start.elapsed() < Duration::from_secs(30), "cancel ignored");
        assert!(!result.solved());
        assert!(result
            .walk_results
            .iter()
            .all(|r| r.status == SolveStatus::ExternallyStopped));
        assert!(token.is_cancelled());
    }

    #[test]
    fn no_deadline_matches_plain_run_semantics() {
        let spec = WalkSpec::costas(18).with_config(AsConfig::builder().max_iterations(20).build());
        let runner = ThreadRunner::new(spec, 2);
        let result = runner.run_with_controls(1, None, None);
        assert!(!result.solved());
        assert!(result
            .walk_results
            .iter()
            .all(|r| r.status == SolveStatus::IterationLimit));
    }

    #[test]
    fn reproducible_given_same_master_seed_and_single_walk() {
        let runner = ThreadRunner::new(WalkSpec::costas(10), 1);
        let a = runner.run(33);
        let b = runner.run(33);
        assert_eq!(a.solution, b.solution);
        assert_eq!(
            a.walk_results[0].stats.iterations,
            b.walk_results[0].stats.iterations
        );
    }
}
