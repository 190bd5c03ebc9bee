//! Cooperative multi-walk: elite-solution exchange and coordinated restarts.
//!
//! The paper's scheme (§V) is *independent* multi-walk — no communication during the
//! search.  This module implements the next rung of the scaling ladder: walks
//! periodically share their **best configuration** and the laggards adopt it (via
//! [`adaptive_search::Engine::inject_candidate`]), and when the whole job stagnates
//! every walk performs a **coordinated restart**
//! (via [`adaptive_search::Engine::schedule_restart`]).
//!
//! The exchange protocol is the same on both substrates:
//!
//! 1. every walk runs `exchange_interval` iterations (the cooperative analogue of the
//!    paper's termination-check period `c`);
//! 2. the globally best `(cost, rank, configuration)` is determined — behind a mutex
//!    on the thread substrate, by direct inspection on the virtual cluster;
//! 3. every other walk is *offered* the elite and adopts it iff it strictly improves
//!    on the walk's own current cost;
//! 4. if the global best cost has not improved for `stagnation_limit` consecutive
//!    exchanges, every walk schedules a restart at its next iteration boundary.
//!
//! **When does cooperation help?**  Elite exchange pays off when intermediate costs
//! carry information about proximity to a solution — deep, hard instances where a
//! low-cost configuration is a genuinely better springboard.  On small instances the
//! independent min-of-K effect already collapses the runtime distribution, and
//! injection merely *correlates* the walks, shrinking the effective sample the
//! min-of-K draws from (see the crate docs and README for the measured cross-over).
//! The `coop_vs_independent` harness in the `bench` crate quantifies the trade-off.
//!
//! Determinism: [`CooperativeRunner::run_virtual`] interleaves walks on the virtual
//! clock exactly like [`crate::VirtualCluster::run_exact`] and exchanges at round
//! boundaries, so the entire cooperative trajectory — winner, iteration count,
//! adoption pattern — is a pure function of the master seed.
//! [`CooperativeRunner::run_threads`] trades determinism for real wall-clock
//! parallelism (exchanges are asynchronous there).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use adaptive_search::{PermutationProblem, SearchStats, StepOutcome};

use crate::virtual_cluster::VirtualCluster;
use crate::walker::WalkSpec;

/// Tuning of the cooperative exchange layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoopConfig {
    /// Iterations every walk executes between two exchanges (the cooperative
    /// analogue of the paper's termination-check period `c`).
    pub exchange_interval: u64,
    /// Coordinated-restart trigger: after this many consecutive exchange rounds
    /// without any improvement of the global best cost, every walk restarts.
    /// `None` disables coordinated restarts.
    pub stagnation_limit: Option<u64>,
}

impl Default for CoopConfig {
    fn default() -> Self {
        Self {
            exchange_interval: 256,
            stagnation_limit: Some(64),
        }
    }
}

impl CoopConfig {
    /// Exchange every `interval` iterations.
    ///
    /// # Panics
    /// Panics if `interval == 0`.
    pub fn every(interval: u64) -> Self {
        assert!(interval > 0, "exchange interval must be at least 1");
        Self {
            exchange_interval: interval,
            ..Self::default()
        }
    }

    /// Override the stagnation limit (`None` disables coordinated restarts).
    pub fn with_stagnation_limit(mut self, limit: Option<u64>) -> Self {
        self.stagnation_limit = limit;
        self
    }
}

/// Outcome of one cooperative multi-walk job.
#[derive(Debug, Clone)]
pub struct CoopResult {
    /// The solution found (a permutation of `1..=n`), if any walk succeeded.
    pub solution: Option<Vec<usize>>,
    /// Rank of the winning walk.
    pub winner: Option<usize>,
    /// Iterations of the winning walk at the moment it solved (the critical path in
    /// the machine-independent unit); the per-walk budget when nobody solved.
    pub winner_iterations: u64,
    /// Total iterations executed across all walks (the work performed).
    pub total_iterations: u64,
    /// Exchange rounds completed (rounds on the virtual-cluster substrate,
    /// individual exchange operations on the thread substrate).
    pub exchanges: u64,
    /// Elite configurations adopted across all walks.
    pub adoptions: u64,
    /// Coordinated-restart events triggered by stagnation.
    pub coordinated_restarts: u64,
    /// Number of walks.
    pub walks: usize,
    /// Wall-clock time of the whole job.
    pub elapsed: Duration,
    /// Virtual seconds on the simulated platform (virtual-cluster substrate only).
    pub virtual_seconds: Option<f64>,
    /// Per-walk engine statistics, indexed by rank.
    pub walk_stats: Vec<SearchStats>,
}

impl CoopResult {
    /// Did any walk find a solution?
    pub fn solved(&self) -> bool {
        self.solution.is_some()
    }
}

/// Runs `walks` cooperating Adaptive Search walks.
#[derive(Debug, Clone)]
pub struct CooperativeRunner {
    spec: WalkSpec,
    walks: usize,
    coop: CoopConfig,
}

impl CooperativeRunner {
    /// Create a runner for `walks` cooperating walks of `spec` with the default
    /// exchange configuration.
    ///
    /// # Panics
    /// Panics if `walks == 0`.
    pub fn new(spec: WalkSpec, walks: usize) -> Self {
        assert!(walks > 0, "at least one walk is required");
        Self {
            spec,
            walks,
            coop: CoopConfig::default(),
        }
    }

    /// Override the exchange configuration.
    ///
    /// # Panics
    /// Panics if the exchange interval is zero.
    pub fn with_coop(mut self, coop: CoopConfig) -> Self {
        assert!(
            coop.exchange_interval > 0,
            "exchange interval must be at least 1"
        );
        self.coop = coop;
        self
    }

    /// The walk specification.
    pub fn spec(&self) -> &WalkSpec {
        &self.spec
    }

    /// Number of walks.
    pub fn walks(&self) -> usize {
        self.walks
    }

    /// The exchange configuration.
    pub fn coop(&self) -> &CoopConfig {
        &self.coop
    }

    /// Deterministic cooperative run on the virtual clock: walks are interleaved in
    /// blocks of `exchange_interval` iterations, and the exchange happens between
    /// rounds, exactly once per round, in rank order.  Same master seed ⇒ identical
    /// winner, winning iteration count and adoption pattern.
    ///
    /// The `cluster` supplies the platform profile used to convert the virtual
    /// critical path into seconds (as in [`VirtualCluster::run_exact`]).
    pub fn run_virtual(&self, cluster: &VirtualCluster, master_seed: u64) -> CoopResult {
        let start = Instant::now();
        let interval = self.coop.exchange_interval;
        let mut engines: Vec<_> = (0..self.walks)
            .map(|rank| self.spec.build_engine(master_seed, rank))
            .collect();
        let mut iters = vec![0u64; self.walks];
        let mut winner: Option<(u64, usize)> = None; // (iterations, rank), lexicographic
        let mut solution: Option<Vec<usize>> = None;
        let mut total: u64 = 0;
        let mut exchanges: u64 = 0;
        let mut adoptions: u64 = 0;
        let mut coordinated_restarts: u64 = 0;
        let mut global_best = u64::MAX;
        let mut stagnant: u64 = 0;
        let budget = self.spec.config.max_iterations;
        // Iterations completed by every still-searching walk (uniform across walks:
        // they all run the same capped blocks until someone solves).
        let mut completed: u64 = 0;

        while completed < budget {
            // The final block is capped so no walk overruns the per-walk budget.
            let block = interval.min(budget - completed);
            // Every walk executes one block; a solving walk ends its block early,
            // the others only notice at the exchange boundary (as in `run_exact`).
            for (rank, engine) in engines.iter_mut().enumerate() {
                for step_in_block in 0..block {
                    if engine.step() == StepOutcome::Solved {
                        let at = iters[rank] + step_in_block + 1;
                        iters[rank] = at;
                        total += step_in_block + 1;
                        match winner {
                            Some(best) if best <= (at, rank) => {}
                            _ => {
                                winner = Some((at, rank));
                                solution = Some(engine.problem().configuration().to_vec());
                            }
                        }
                        break;
                    }
                    if step_in_block == block - 1 {
                        iters[rank] += block;
                        total += block;
                    }
                }
            }
            completed += block;
            if winner.is_some() {
                break;
            }

            // Exchange: the best (cost, rank) wins; every strictly worse walk is
            // offered it (a tied-or-better walk could never adopt, so the offer —
            // and its O(n²) cost evaluation — is skipped).
            exchanges += 1;
            let (best_rank, best_cost) = engines
                .iter()
                .map(|e| e.current_cost())
                .enumerate()
                .min_by_key(|&(rank, cost)| (cost, rank))
                .expect("at least one walk");
            let elite = engines[best_rank].problem().configuration().to_vec();
            for (rank, engine) in engines.iter_mut().enumerate() {
                let threshold = engine.current_cost();
                if rank != best_rank
                    && best_cost < threshold
                    && engine.inject_candidate(&elite, threshold).adopted()
                {
                    adoptions += 1;
                }
            }

            // Coordinated restart on stagnation of the global best.
            if best_cost < global_best {
                global_best = best_cost;
                stagnant = 0;
            } else if let Some(limit) = self.coop.stagnation_limit {
                stagnant += 1;
                if stagnant >= limit {
                    for engine in engines.iter_mut() {
                        engine.schedule_restart();
                    }
                    coordinated_restarts += 1;
                    stagnant = 0;
                    global_best = u64::MAX;
                }
            }
        }

        let (winner_iterations, winner_rank) = match winner {
            Some((at, rank)) => (at, Some(rank)),
            None => (self.spec.config.max_iterations, None),
        };
        CoopResult {
            solution,
            winner: winner_rank,
            winner_iterations,
            total_iterations: total,
            exchanges,
            adoptions,
            coordinated_restarts,
            walks: self.walks,
            elapsed: start.elapsed(),
            virtual_seconds: Some(
                cluster
                    .platform()
                    .seconds_for(winner_iterations, cluster.reference_rate()),
            ),
            walk_stats: engines.iter().map(|e| e.stats().clone()).collect(),
        }
    }

    /// Cooperative run on OS threads: a shared elite pool (configuration behind a
    /// [`Mutex`], best cost in an [`AtomicU64`]) replaces the collectives, so
    /// exchanges are asynchronous — each walk consults the pool at its own pace,
    /// every `exchange_interval` of its own iterations.  This delivers real
    /// wall-clock speed-up but is *not* seed-deterministic (the interleaving of
    /// publications and adoptions depends on the scheduler).
    pub fn run_threads(&self, master_seed: u64) -> CoopResult {
        let start = Instant::now();
        let interval = self.coop.exchange_interval;
        let stagnation_limit = self.coop.stagnation_limit;
        let walks = self.walks;

        struct ElitePool {
            best_cost: AtomicU64,
            best: Mutex<Option<Vec<usize>>>,
            found: AtomicBool,
            winner: Mutex<Option<(usize, Vec<usize>)>>,
            /// Restart generation: bumped once per coordinated-restart event.
            epoch: AtomicU64,
            /// Exchange operations performed so far, across all walks.
            exchange_ops: AtomicU64,
            /// Value of `exchange_ops` when the pool best last improved (or the pool
            /// was last reset); the stagnation window is measured against this.
            last_improvement: AtomicU64,
        }
        let pool = ElitePool {
            best_cost: AtomicU64::new(u64::MAX),
            best: Mutex::new(None),
            found: AtomicBool::new(false),
            winner: Mutex::new(None),
            epoch: AtomicU64::new(0),
            exchange_ops: AtomicU64::new(0),
            last_improvement: AtomicU64::new(0),
        };

        struct WalkReport {
            rank: usize,
            iterations: u64,
            exchange_ops: u64,
            stats: SearchStats,
        }

        let reports: Vec<WalkReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..walks)
                .map(|rank| {
                    let spec = self.spec.clone();
                    let pool = &pool;
                    scope.spawn(move || {
                        // Panic isolation: a dying walk yields an empty report
                        // (zero iterations, default stats) and the cooperative
                        // race continues on the survivors — never an abort.
                        catch_unwind(AssertUnwindSafe(move || {
                            let mut engine = spec.build_engine(master_seed, rank);
                            let budget = spec.config.max_iterations;
                            let mut iterations = 0u64;
                            let mut ops = 0u64;
                            let mut seen_epoch = 0u64;
                            'walk: while iterations < budget {
                                let block = interval.min(budget - iterations);
                                for _ in 0..block {
                                    iterations += 1;
                                    if engine.step() == StepOutcome::Solved {
                                        let mut guard = pool
                                            .winner
                                            .lock()
                                            .unwrap_or_else(|poison| poison.into_inner());
                                        if guard.is_none() {
                                            *guard = Some((
                                                rank,
                                                engine.problem().configuration().to_vec(),
                                            ));
                                        }
                                        drop(guard);
                                        pool.found.store(true, Ordering::SeqCst);
                                        break 'walk;
                                    }
                                }
                                if pool.found.load(Ordering::SeqCst) {
                                    break;
                                }

                                // Exchange: publish if better than the pool, else adopt
                                // the pool's elite when it is better than us.
                                ops += 1;
                                let op = pool.exchange_ops.fetch_add(1, Ordering::SeqCst) + 1;
                                let my_cost = engine.current_cost();
                                if my_cost < pool.best_cost.load(Ordering::SeqCst) {
                                    let mut guard = pool
                                        .best
                                        .lock()
                                        .unwrap_or_else(|poison| poison.into_inner());
                                    // Re-check under the lock: another walk may have
                                    // published a better elite in the meantime.
                                    if my_cost < pool.best_cost.load(Ordering::SeqCst) {
                                        pool.best_cost.store(my_cost, Ordering::SeqCst);
                                        *guard = Some(engine.problem().configuration().to_vec());
                                        pool.last_improvement.store(op, Ordering::SeqCst);
                                    }
                                } else if pool.best_cost.load(Ordering::SeqCst) < my_cost {
                                    let elite = pool
                                        .best
                                        .lock()
                                        .unwrap_or_else(|poison| poison.into_inner())
                                        .clone();
                                    if let Some(elite) = elite {
                                        let _ = engine.inject_candidate(&elite, my_cost);
                                    }
                                }

                                // Stagnation: no pool improvement for `limit` exchange
                                // operations *per walk* → bump the restart epoch (one
                                // walk wins the CAS; everyone observes the new epoch).
                                if let Some(limit) = stagnation_limit {
                                    let since = op.saturating_sub(
                                        pool.last_improvement.load(Ordering::SeqCst),
                                    );
                                    if since >= limit.saturating_mul(walks as u64) {
                                        let current = pool.epoch.load(Ordering::SeqCst);
                                        if pool
                                            .epoch
                                            .compare_exchange(
                                                current,
                                                current + 1,
                                                Ordering::SeqCst,
                                                Ordering::SeqCst,
                                            )
                                            .is_ok()
                                        {
                                            // Reset the pool so the stale elite is not
                                            // re-adopted right after the restart.
                                            let mut guard = pool
                                                .best
                                                .lock()
                                                .unwrap_or_else(|poison| poison.into_inner());
                                            pool.best_cost.store(u64::MAX, Ordering::SeqCst);
                                            *guard = None;
                                            pool.last_improvement.store(op, Ordering::SeqCst);
                                        }
                                    }
                                }
                                let epoch = pool.epoch.load(Ordering::SeqCst);
                                if epoch != seen_epoch {
                                    seen_epoch = epoch;
                                    engine.schedule_restart();
                                }
                            }
                            WalkReport {
                                rank,
                                iterations,
                                exchange_ops: ops,
                                stats: engine.stats().clone(),
                            }
                        }))
                        .unwrap_or_else(|_| WalkReport {
                            rank,
                            iterations: 0,
                            exchange_ops: 0,
                            stats: SearchStats::default(),
                        })
                    })
                })
                .collect();
            let mut reports: Vec<WalkReport> = handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().unwrap_or_else(|_| WalkReport {
                        rank,
                        iterations: 0,
                        exchange_ops: 0,
                        stats: SearchStats::default(),
                    })
                })
                .collect();
            reports.sort_by_key(|r| r.rank);
            reports
        });

        let winner_record = pool
            .winner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone();
        let winner = winner_record.as_ref().map(|(rank, _)| *rank);
        CoopResult {
            solution: winner_record.map(|(_, sol)| sol),
            winner,
            winner_iterations: winner
                .map(|w| reports[w].iterations)
                .unwrap_or(self.spec.config.max_iterations),
            total_iterations: reports.iter().map(|r| r.iterations).sum(),
            exchanges: reports.iter().map(|r| r.exchange_ops).sum(),
            adoptions: reports.iter().map(|r| r.stats.injections_adopted).sum(),
            coordinated_restarts: pool.epoch.load(Ordering::SeqCst),
            walks: self.walks,
            elapsed: start.elapsed(),
            virtual_seconds: None,
            walk_stats: reports.into_iter().map(|r| r.stats).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformProfile;
    use adaptive_search::AsConfig;
    use costas::is_costas_permutation;

    fn cluster() -> VirtualCluster {
        VirtualCluster::new(PlatformProfile::local())
    }

    fn coop_spec(n: usize) -> WalkSpec {
        WalkSpec::costas(n)
    }

    #[test]
    fn virtual_substrate_solves_and_is_seed_deterministic() {
        let runner = CooperativeRunner::new(coop_spec(12), 4).with_coop(CoopConfig::every(128));
        let a = runner.run_virtual(&cluster(), 2024);
        let b = runner.run_virtual(&cluster(), 2024);
        assert!(a.solved());
        assert!(is_costas_permutation(a.solution.as_ref().unwrap()));
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.winner_iterations, b.winner_iterations);
        assert_eq!(a.total_iterations, b.total_iterations);
        assert_eq!(a.adoptions, b.adoptions);
        assert_eq!(a.solution, b.solution);
        assert!(a.virtual_seconds.unwrap() > 0.0);
    }

    #[test]
    fn virtual_substrate_different_seeds_differ() {
        let runner = CooperativeRunner::new(coop_spec(12), 4);
        let a = runner.run_virtual(&cluster(), 1);
        let b = runner.run_virtual(&cluster(), 2);
        // Not a hard guarantee, but over full CAP-12 trajectories a collision of the
        // winning iteration count *and* the solution is vanishingly unlikely.
        assert!(a.winner_iterations != b.winner_iterations || a.solution != b.solution);
    }

    #[test]
    fn thread_substrate_solves() {
        let runner = CooperativeRunner::new(coop_spec(12), 4).with_coop(CoopConfig::every(64));
        let result = runner.run_threads(99);
        assert!(result.solved());
        assert!(is_costas_permutation(result.solution.as_ref().unwrap()));
        assert!(result.winner.unwrap() < 4);
        assert!(result.total_iterations >= result.winner_iterations);
    }

    #[test]
    fn exchange_offers_are_made_on_the_virtual_substrate() {
        // A hard-ish instance with a short exchange interval: exchanges must happen,
        // and offers must be recorded in the engine stats.
        let spec = coop_spec(16).with_config(AsConfig::builder().max_iterations(4_000).build());
        let runner = CooperativeRunner::new(spec, 4).with_coop(CoopConfig::every(100));
        let result = runner.run_virtual(&cluster(), 5);
        assert!(result.exchanges > 0);
        let offered: u64 = result.walk_stats.iter().map(|s| s.injections_offered).sum();
        assert!(offered > 0, "exchange rounds must offer elites");
        assert_eq!(
            result.adoptions,
            result
                .walk_stats
                .iter()
                .map(|s| s.injections_adopted)
                .sum::<u64>()
        );
    }

    #[test]
    fn stagnation_triggers_coordinated_restarts_on_the_virtual_substrate() {
        // CAP 19+ will not be solved in 3k iterations; with a stagnation limit of 2
        // rounds the job must restart repeatedly.
        let spec = coop_spec(19).with_config(AsConfig::builder().max_iterations(3_000).build());
        let runner = CooperativeRunner::new(spec, 3)
            .with_coop(CoopConfig::every(50).with_stagnation_limit(Some(2)));
        let result = runner.run_virtual(&cluster(), 3);
        assert!(!result.solved());
        assert!(result.coordinated_restarts > 0);
        let engine_restarts: u64 = result
            .walk_stats
            .iter()
            .map(|s| s.coordinated_restarts)
            .sum();
        assert!(
            engine_restarts > 0,
            "scheduled restarts must reach the engines"
        );
    }

    #[test]
    fn unsolvable_budget_reports_failure() {
        let spec = coop_spec(18).with_config(AsConfig::builder().max_iterations(200).build());
        let runner = CooperativeRunner::new(spec, 3).with_coop(CoopConfig::every(50));
        let v = runner.run_virtual(&cluster(), 1);
        assert!(!v.solved());
        assert_eq!(v.winner, None);
        assert_eq!(v.winner_iterations, 200);
    }

    #[test]
    fn budget_is_exact_when_the_interval_does_not_divide_it() {
        // 100 iterations with exchanges every 64: the final block must be capped at
        // 36 on every substrate — no walk may overrun the per-walk budget.
        let spec = coop_spec(19).with_config(AsConfig::builder().max_iterations(100).build());
        let runner = CooperativeRunner::new(spec, 3).with_coop(CoopConfig::every(64));
        let v = runner.run_virtual(&cluster(), 11);
        assert!(!v.solved());
        assert_eq!(v.winner_iterations, 100);
        assert_eq!(v.total_iterations, 300);
        for s in &v.walk_stats {
            assert_eq!(s.iterations, 100, "virtual walk ran past its budget");
        }
        let t = runner.run_threads(11);
        assert!(!t.solved());
        for s in &t.walk_stats {
            assert_eq!(s.iterations, 100, "thread walk ran past its budget");
        }
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walks_rejected() {
        let _ = CooperativeRunner::new(coop_spec(5), 0);
    }

    #[test]
    #[should_panic(expected = "exchange interval")]
    fn zero_interval_rejected() {
        let _ = CoopConfig::every(0);
    }
}
