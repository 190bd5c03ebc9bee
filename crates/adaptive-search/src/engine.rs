//! The Adaptive Search engine (paper Figure 1, plus the §III-B tunings).
//!
//! One [`Engine`] owns one problem instance, one random stream and one Tabu memory,
//! and runs one *walk*.  The engine can be driven three ways:
//!
//! * [`Engine::solve`] — run until a solution or the iteration budget;
//! * [`Engine::solve_until`] — additionally poll an external [`StopCondition`] every
//!   `stop_check_interval` iterations, which is how the multi-walk runners implement
//!   the paper's "terminate as soon as some other process found a solution";
//! * [`Engine::step`] — execute exactly one iteration; the virtual-cluster simulator
//!   in the `multiwalk` crate interleaves thousands of walks this way on a single
//!   host while keeping their iteration counts as the (machine-independent) clock.

use std::time::Instant;

use xrand::{default_rng, random_permutation, DefaultRng, RandExt};

use crate::config::AsConfig;
use crate::problem::PermutationProblem;
use crate::stats::{SearchStats, SolveResult, SolveStatus};
use crate::tabu::TabuList;
use crate::termination::{NeverStop, StopCondition};
use crate::tie_break::TieBreak;

/// Result of a single engine iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The current configuration has cost zero.
    Solved,
    /// The search continues.
    Continue,
}

/// Outcome of offering a configuration through [`Engine::inject_candidate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectOutcome {
    /// The candidate was installed as the current configuration (its cost was
    /// strictly below the caller's threshold).
    Adopted {
        /// Cost of the adopted configuration.
        cost: u64,
    },
    /// The candidate was evaluated but not installed; the previous configuration is
    /// unchanged.
    Rejected {
        /// Cost the candidate would have had.
        cost: u64,
    },
}

impl InjectOutcome {
    /// Was the candidate adopted?
    pub fn adopted(&self) -> bool {
        matches!(self, InjectOutcome::Adopted { .. })
    }
}

/// A complete, serializable image of one engine's search state.
///
/// Everything [`Engine::step`] carries from one iteration to the next is captured:
/// the random stream, the current and best configurations, the statistics, the
/// reset counter and the Tabu horizons.  The engine's scratch buffers
/// are rebuilt from these by every iteration that reads them.  Restoring through
/// [`Engine::from_snapshot`] onto a freshly built problem instance yields an engine
/// whose subsequent trajectory is bit-for-bit identical to the original's — the
/// foundation of the campaign checkpoint/resume machinery in `multiwalk`.
///
/// The snapshot does *not* carry the problem's incremental evaluation state (conflict
/// tables, occupancy rows, …): [`PermutationProblem::set_configuration`] rebuilds it
/// deterministically from the configuration on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Xoshiro256** state words (never all zero).
    pub rng_state: [u64; 4],
    /// Current configuration (a permutation of `1..=n`).
    pub configuration: Vec<usize>,
    /// Statistics accumulated so far.
    pub stats: SearchStats,
    /// Best cost seen so far.
    pub best_cost: u64,
    /// Configuration attaining `best_cost`.
    pub best_config: Vec<usize>,
    /// Tabu marks since the last reset (the `RL` counter).
    pub marked_since_reset: usize,
    /// Per-variable Tabu freeze horizons.
    pub tabu_horizons: Vec<u64>,
}

/// Why an [`EngineSnapshot`] could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A per-variable field has the wrong length for the problem instance.
    SizeMismatch {
        /// Which snapshot field.
        field: &'static str,
        /// Length the problem requires.
        expected: usize,
        /// Length found in the snapshot.
        found: usize,
    },
    /// The RNG state words were all zero (an unreachable Xoshiro256** state).
    BadRngState,
    /// The stored configuration is not a permutation of `1..=n`.
    NotAPermutation,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::SizeMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "snapshot field `{field}` has length {found}, expected {expected}"
            ),
            SnapshotError::BadRngState => write!(f, "snapshot RNG state is all zero"),
            SnapshotError::NotAPermutation => {
                write!(f, "snapshot configuration is not a permutation of 1..=n")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One Adaptive Search walk over one [`PermutationProblem`].
pub struct Engine<P: PermutationProblem> {
    problem: P,
    config: AsConfig,
    rng: DefaultRng,
    tabu: TabuList,
    stats: SearchStats,
    best_cost: u64,
    best_config: Vec<usize>,
    /// Variables marked Tabu since the last reset — the quantity compared against the
    /// paper's `RL` parameter.
    marked_since_reset: usize,
    // scratch buffers reused across iterations to keep the inner loop allocation-free;
    // `ties` serves the culprit sweep and then the swap sweep of the same iteration
    errors: Vec<u64>,
    ties: TieBreak<u64>,
    probe: Vec<u64>,
}

impl<P: PermutationProblem> Engine<P> {
    /// Create an engine and draw the initial random configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`AsConfig::validate`] or the problem has
    /// size zero.
    pub fn new(problem: P, config: AsConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid AsConfig: {e}");
        }
        assert!(problem.size() > 0, "cannot search over an empty problem");
        let n = problem.size();
        let tenure = config.tabu_tenure;
        let mut engine = Self {
            problem,
            config,
            rng: default_rng(seed),
            tabu: TabuList::new(n, tenure),
            stats: SearchStats::default(),
            best_cost: u64::MAX,
            best_config: Vec::new(),
            marked_since_reset: 0,
            errors: Vec::with_capacity(n),
            ties: TieBreak::with_capacity(n),
            probe: Vec::with_capacity(n),
        };
        engine.randomize_configuration();
        engine
    }

    /// Capture a complete image of the search state (see [`EngineSnapshot`]).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            rng_state: self.rng.state(),
            configuration: self.problem.configuration().to_vec(),
            stats: self.stats.clone(),
            best_cost: self.best_cost,
            best_config: self.best_config.clone(),
            marked_since_reset: self.marked_since_reset,
            tabu_horizons: self.tabu.horizons().to_vec(),
        }
    }

    /// Rebuild an engine from a snapshot, onto a freshly constructed instance of the
    /// same problem.  The problem's incremental evaluation state is rebuilt via
    /// [`PermutationProblem::set_configuration`]; every other field is restored
    /// verbatim, so the resumed engine's trajectory is bit-for-bit identical to the
    /// snapshotted one's.
    ///
    /// # Errors
    /// Returns a typed [`SnapshotError`] when the snapshot does not fit the problem
    /// instance (wrong lengths, non-permutation configuration, impossible RNG state)
    /// — corrupt checkpoints must never panic.
    ///
    /// # Panics
    /// Panics if `config` fails [`AsConfig::validate`], exactly like [`Engine::new`].
    pub fn from_snapshot(
        mut problem: P,
        config: AsConfig,
        snap: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        if let Err(e) = config.validate() {
            panic!("invalid AsConfig: {e}");
        }
        let n = problem.size();
        assert!(n > 0, "cannot search over an empty problem");
        if snap.rng_state == [0; 4] {
            return Err(SnapshotError::BadRngState);
        }
        let check_len = |field: &'static str, found: usize| {
            if found != n {
                Err(SnapshotError::SizeMismatch {
                    field,
                    expected: n,
                    found,
                })
            } else {
                Ok(())
            }
        };
        check_len("configuration", snap.configuration.len())?;
        check_len("best_config", snap.best_config.len())?;
        check_len("tabu_horizons", snap.tabu_horizons.len())?;
        let mut seen = vec![false; n];
        for &v in &snap.configuration {
            if !(1..=n).contains(&v) || std::mem::replace(&mut seen[v - 1], true) {
                return Err(SnapshotError::NotAPermutation);
            }
        }
        problem.set_configuration(&snap.configuration);
        let mut tabu = TabuList::new(n, config.tabu_tenure);
        tabu.restore_horizons(&snap.tabu_horizons);
        Ok(Self {
            problem,
            config,
            rng: DefaultRng::from_state(snap.rng_state),
            tabu,
            stats: snap.stats.clone(),
            best_cost: snap.best_cost,
            best_config: snap.best_config.clone(),
            marked_since_reset: snap.marked_since_reset,
            errors: Vec::with_capacity(n),
            ties: TieBreak::with_capacity(n),
            probe: Vec::with_capacity(n),
        })
    }

    /// The problem being solved (current configuration included).
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Consume the engine and recover the problem.
    pub fn into_problem(self) -> P {
        self.problem
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Cost of the current configuration.
    pub fn current_cost(&self) -> u64 {
        self.problem.global_cost()
    }

    /// Best cost seen so far in this engine's lifetime.
    pub fn best_cost(&self) -> u64 {
        self.best_cost
    }

    /// Draw a fresh random permutation and install it.
    fn randomize_configuration(&mut self) {
        let n = self.problem.size();
        let mut perm = random_permutation(n, &mut self.rng);
        perm.iter_mut().for_each(|v| *v += 1);
        self.problem.set_configuration(&perm);
        self.tabu.clear();
        self.marked_since_reset = 0;
        self.note_best();
    }

    /// Record the current configuration if it is the best seen so far.
    fn note_best(&mut self) {
        let cost = self.problem.global_cost();
        if cost < self.best_cost {
            self.best_cost = cost;
            // reuse the buffer: improvements are frequent and must not allocate
            self.best_config.clear();
            self.best_config
                .extend_from_slice(self.problem.configuration());
        }
    }

    /// Select the culprit variable: the non-Tabu variable with the largest projected
    /// error (ties broken uniformly at random).  Returns `None` when every erroneous
    /// variable is currently frozen.
    ///
    /// One O(n) sweep over the error vector, offering every non-zero, non-Tabu
    /// variable in ascending order to a maximising [`TieBreak`].  The vector is the
    /// problem's maintained cache ([`PermutationProblem::cached_errors`]) when it has
    /// one; only implementations without one pay the recomputing
    /// [`PermutationProblem::variable_errors`].
    fn select_culprit(&mut self) -> Option<usize> {
        let now = self.stats.iterations;
        if self.problem.cached_errors().is_none() {
            self.problem.variable_errors(&mut self.errors);
        }
        let errors: &[u64] = match self.problem.cached_errors() {
            Some(cached) => cached,
            None => &self.errors,
        };
        self.ties.clear();
        for (var, &err) in errors.iter().enumerate() {
            if err != 0 && !self.tabu.is_tabu(var, now) {
                self.ties.offer_max(var, err);
            }
        }
        self.ties.pick(&mut self.rng)
    }

    /// Min-conflict step: among all swaps of `culprit` with another position, find the
    /// one giving the lowest cost (ties broken uniformly at random).
    ///
    /// The whole neighbourhood is evaluated through the problem's **read-only
    /// batched probe** ([`PermutationProblem::probe_partners`]) — nothing is applied
    /// or un-applied while scanning, and the scan itself is allocation-free (the
    /// probe buffer is engine scratch).
    fn best_swap_for(&mut self, culprit: usize) -> (usize, u64) {
        self.problem.probe_partners(culprit, &mut self.probe);
        // Kernel-equivalence cross-check: a model routing the probe through an
        // accelerated (bitmask) kernel must agree bit-for-bit with its scalar
        // reference on every neighbourhood the search actually visits.
        #[cfg(debug_assertions)]
        if self.problem.has_accelerated_probe() {
            let mut reference = Vec::new();
            self.problem
                .probe_partners_reference(culprit, &mut reference);
            debug_assert_eq!(
                reference, self.probe,
                "accelerated probe diverged from probe_partners_reference \
                 (culprit {culprit})"
            );
        }
        self.ties.clear();
        for (j, &cost) in self.probe.iter().enumerate() {
            if j != culprit {
                self.ties.offer_min(j, cost);
            }
        }
        let best_cost = self.ties.best().expect("n ≥ 2 has a candidate swap");
        let pick = self
            .ties
            .pick(&mut self.rng)
            .expect("n ≥ 2 has a candidate swap");
        debug_assert_eq!(
            best_cost,
            self.problem.cost_after_swap(culprit, pick),
            "probe result disagrees with the compatibility wrapper for ({culprit}, {pick})"
        );
        (pick, best_cost)
    }

    /// Generic reset: perturb ⌈RP·n⌉ variables (at least one) by random swaps, which
    /// re-assigns "fresh values" while staying inside the permutation representation.
    ///
    /// The partner is re-sampled on a collision (`i == j`), so the reset applies
    /// exactly ⌈RP·n⌉ *effective* swaps instead of silently dropping a fraction of
    /// its perturbation strength (≈ 1/n of it, which for small instances made the
    /// configured `RP` a lie).
    fn generic_random_reset(&mut self) {
        let n = self.problem.size();
        if n < 2 {
            return;
        }
        let k = ((self.config.reset.reset_percentage * n as f64).ceil() as usize).max(1);
        for _ in 0..k {
            let i = self.rng.index(n);
            let mut j = self.rng.index(n);
            while j == i {
                j = self.rng.index(n);
            }
            self.problem.apply_swap(i, j);
        }
    }

    /// Diversification: the problem-specific reset when the problem offers one,
    /// otherwise the generic `RP`-percentage random perturbation.
    ///
    /// A problem-specific reset that finds nothing strictly better than the entry
    /// configuration is followed by the generic perturbation.  The paper's
    /// description ("the best perturbation is selected") is deterministic; on its own
    /// that can trap the search in a short cycle of near-solutions (the structured
    /// perturbations of configuration A lead to B and vice versa).  The random kick
    /// moves the walk off the cycle, at the cost of one random move the paper does not
    /// describe.
    ///
    /// Tabu marks are *not* erased by a reset — recently problematic variables stay
    /// frozen until their tenure expires, which steers the post-reset search towards
    /// other variables.  Only the `RL` counter (marks since the last reset) is reset.
    fn perform_reset(&mut self, culprit: usize) {
        self.stats.resets += 1;
        let entry_cost = self.problem.global_cost();
        match self.problem.custom_reset(culprit, &mut self.rng) {
            Some(new_cost) => {
                self.stats.custom_resets += 1;
                if new_cost < entry_cost {
                    self.stats.custom_reset_escapes += 1;
                } else {
                    self.generic_random_reset();
                }
            }
            None => self.generic_random_reset(),
        }
        self.marked_since_reset = 0;
        self.note_best();
    }

    /// Mark `var` Tabu at iteration `now` and count the mark towards `RL`.
    fn freeze_culprit(&mut self, var: usize, now: u64) {
        self.tabu.freeze(var, now);
        self.stats.tabu_marks += 1;
        self.marked_since_reset += 1;
    }

    /// Execute one iteration of the Adaptive Search loop.
    pub fn step(&mut self) -> StepOutcome {
        if self.problem.global_cost() == 0 {
            return StepOutcome::Solved;
        }
        self.stats.iterations += 1;

        let now = self.stats.iterations;
        let current_cost = self.problem.global_cost();

        let culprit = match self.select_culprit() {
            Some(v) => v,
            None => {
                // Every erroneous variable is frozen: diversify immediately.
                let fallback = self.rng.index(self.problem.size());
                self.perform_reset(fallback);
                return if self.problem.global_cost() == 0 {
                    StepOutcome::Solved
                } else {
                    StepOutcome::Continue
                };
            }
        };

        let (partner, new_cost) = self.best_swap_for(culprit);

        if new_cost < current_cost {
            self.problem.apply_swap(culprit, partner);
            self.stats.improving_moves += 1;
            self.note_best();
        } else if new_cost == current_cost {
            // Plateau (§III-B1): follow with probability p, otherwise freeze.
            if self.rng.bool_with_prob(self.config.plateau_probability) {
                self.problem.apply_swap(culprit, partner);
                self.stats.plateau_moves += 1;
            } else {
                self.freeze_culprit(culprit, now);
            }
        } else {
            // Local minimum w.r.t. the culprit's neighbourhood.
            self.stats.local_minima += 1;
            self.freeze_culprit(culprit, now);
        }

        // Reset trigger (RL): enough variables marked Tabu since the previous reset.
        if self.marked_since_reset >= self.config.reset.reset_limit {
            self.perform_reset(culprit);
        }

        if self.problem.global_cost() == 0 {
            StepOutcome::Solved
        } else {
            StepOutcome::Continue
        }
    }

    /// Run until solved, the iteration budget is exhausted, or `stop` fires.
    pub fn solve_until(&mut self, stop: &mut dyn StopCondition) -> SolveResult {
        let start = Instant::now();
        let started_iterations = self.stats.iterations;
        let mut status = if self.problem.global_cost() == 0 {
            SolveStatus::Solved
        } else {
            SolveStatus::IterationLimit
        };
        let mut stop_reason = None;
        if self.problem.global_cost() != 0 {
            loop {
                if self.step() == StepOutcome::Solved {
                    status = SolveStatus::Solved;
                    break;
                }
                let done = self.stats.iterations - started_iterations;
                if done >= self.config.max_iterations {
                    status = SolveStatus::IterationLimit;
                    break;
                }
                if done.is_multiple_of(self.config.stop_check_interval) {
                    self.stats.stop_checks += 1;
                    if let Some(reason) = stop.should_stop() {
                        status = SolveStatus::ExternallyStopped;
                        stop_reason = Some(reason);
                        break;
                    }
                }
            }
        }
        self.note_best();
        let final_cost = self.problem.global_cost();
        SolveResult {
            status,
            solution: if status == SolveStatus::Solved {
                Some(self.problem.configuration().to_vec())
            } else {
                None
            },
            final_cost,
            best_cost: self.best_cost,
            stats: self.stats.clone(),
            elapsed: start.elapsed(),
            stop_reason,
        }
    }

    /// Run until solved or the iteration budget is exhausted.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_until(&mut NeverStop)
    }

    /// Restart from a fresh random configuration (counted in the statistics).
    /// The engine never restarts on its own; drivers that keep a walk going after
    /// it solves (campaigns, the virtual cluster's calibration) call this.
    pub fn restart(&mut self) {
        self.stats.restarts += 1;
        self.randomize_configuration();
    }

    /// Offer a configuration to start from (a warm start).
    ///
    /// The candidate is evaluated and installed as the current configuration iff its
    /// cost is **strictly below** `cost_threshold`; otherwise the engine's
    /// configuration is left untouched.  Callers typically pass their current cost as
    /// the threshold ("adopt only if it improves on where I am") or a stricter bound.
    ///
    /// Adoption behaves like a diversification jump: the Tabu memory and the `RL`
    /// counter are cleared so the search engages the injected region unencumbered by
    /// marks accumulated elsewhere.  The engine's random stream is *not* consumed,
    /// so rejected offers leave the walk byte-for-byte identical.
    ///
    /// # Panics
    /// Panics if `candidate` is not a permutation of `1..=n`.
    pub fn inject_candidate(&mut self, candidate: &[usize], cost_threshold: u64) -> InjectOutcome {
        let n = self.problem.size();
        assert_eq!(candidate.len(), n, "candidate must have length {n}");
        let mut seen = vec![false; n];
        for &v in candidate {
            assert!(
                (1..=n).contains(&v) && !std::mem::replace(&mut seen[v - 1], true),
                "candidate must be a permutation of 1..={n}"
            );
        }
        self.stats.injections_offered += 1;
        let previous = self.problem.configuration().to_vec();
        self.problem.set_configuration(candidate);
        let cost = self.problem.global_cost();
        if cost < cost_threshold {
            self.stats.injections_adopted += 1;
            self.tabu.clear();
            self.marked_since_reset = 0;
            self.note_best();
            InjectOutcome::Adopted { cost }
        } else {
            // Restoring the previous configuration rebuilds the exact same
            // incremental state, so the walk remains byte-for-byte identical to
            // one without the offer.
            self.problem.set_configuration(&previous);
            InjectOutcome::Rejected { cost }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AsConfig;
    use crate::costas_model::{CostasModelConfig, CostasProblem};
    use crate::stats::SolveStatus;
    use crate::termination::{FlagStop, StopReason};
    use costas::is_costas_permutation;

    /// The optimised Costas model with its dedicated reset switched off, so every
    /// reset is the engine's generic `RP` perturbation.
    fn generic_reset_costas(n: usize) -> CostasProblem {
        CostasProblem::with_config(
            n,
            CostasModelConfig {
                dedicated_reset: false,
                ..Default::default()
            },
        )
    }

    fn small_engine(n: usize, seed: u64) -> Engine<CostasProblem> {
        Engine::new(CostasProblem::new(n), AsConfig::default(), seed)
    }

    #[test]
    fn solves_trivial_orders_immediately_or_quickly() {
        for n in [1usize, 2, 3, 4, 5, 6, 7] {
            let mut e = small_engine(n, 7 + n as u64);
            let r = e.solve();
            assert_eq!(r.status, SolveStatus::Solved, "order {n}");
            assert!(is_costas_permutation(&r.solution.unwrap()), "order {n}");
            assert_eq!(r.final_cost, 0);
        }
    }

    #[test]
    fn solves_order_12_from_multiple_seeds() {
        for seed in 0..5u64 {
            let mut e = small_engine(12, seed);
            let r = e.solve();
            assert!(r.is_solved(), "seed {seed}");
            assert!(is_costas_permutation(&r.solution.unwrap()));
            assert!(r.stats.iterations > 0);
        }
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let mut a = small_engine(11, 99);
        let mut b = small_engine(11, 99);
        let ra = a.solve();
        let rb = b.solve();
        assert_eq!(ra.solution, rb.solution);
        assert_eq!(ra.stats.iterations, rb.stats.iterations);
        assert_eq!(ra.stats.local_minima, rb.stats.local_minima);
        assert_eq!(ra.stats.resets, rb.stats.resets);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let config = AsConfig::builder().max_iterations(50).build();
        // order 18 will essentially never be solved in 50 iterations
        let mut e = Engine::new(CostasProblem::new(18), config, 3);
        let r = e.solve();
        assert_eq!(r.status, SolveStatus::IterationLimit);
        assert!(r.stats.iterations <= 51);
        assert!(r.solution.is_none());
        assert!(r.final_cost > 0);
        assert!(r.best_cost <= r.final_cost + 1_000_000); // best is tracked
    }

    #[test]
    fn external_stop_is_honoured() {
        let (flag, mut stop) = FlagStop::fresh();
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
        let config = AsConfig::builder().stop_check_interval(4).build();
        let mut e = Engine::new(CostasProblem::new(18), config, 5);
        let r = e.solve_until(&mut stop);
        assert_eq!(r.status, SolveStatus::ExternallyStopped);
        assert!(r.stats.iterations <= 8, "stopped at the first poll");
        assert!(r.stats.stop_checks >= 1);
        // the StopReason conveyed by the condition is Cancelled
        assert_eq!(stop.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn stats_are_internally_consistent() {
        let mut e = small_engine(13, 2);
        let r = e.solve();
        assert!(r.is_solved());
        let s = &r.stats;
        // every iteration either moved, froze, or reset-after-freeze; moves are a
        // subset of iterations
        assert!(s.improving_moves + s.plateau_moves <= s.iterations);
        assert!(s.local_minima <= s.tabu_marks);
        assert!(s.custom_resets <= s.resets);
        assert!(s.custom_reset_escapes <= s.custom_resets);
    }

    #[test]
    fn manual_restart_counts_and_rerandomizes() {
        let mut e = small_engine(14, 8);
        let before = e.problem().configuration().to_vec();
        e.restart();
        assert_eq!(e.stats().restarts, 1);
        // With overwhelming probability the configuration changed.
        assert_ne!(e.problem().configuration(), &before[..]);
    }

    #[test]
    #[should_panic(expected = "invalid AsConfig")]
    fn invalid_config_panics() {
        let cfg = AsConfig {
            plateau_probability: 7.0,
            ..AsConfig::default()
        };
        let _ = Engine::new(CostasProblem::new(5), cfg, 0);
    }

    #[test]
    fn inject_candidate_adopts_below_threshold_and_rejects_otherwise() {
        let mut e = small_engine(13, 4);
        // A solution of CAP 13, found by a second engine: cost 0, adopted under any
        // positive threshold.
        let solution = {
            let mut solver = small_engine(13, 77);
            solver.solve().solution.expect("order 13 solves")
        };
        let current = e.problem().configuration().to_vec();
        // Rejected when the threshold is 0 (nothing is < 0) …
        let out = e.inject_candidate(&solution, 0);
        assert_eq!(out, InjectOutcome::Rejected { cost: 0 });
        assert_eq!(
            e.problem().configuration(),
            &current[..],
            "rejection leaves the configuration untouched"
        );
        // … adopted under a permissive threshold.
        let out = e.inject_candidate(&solution, 1);
        assert!(out.adopted());
        assert_eq!(e.current_cost(), 0);
        assert_eq!(e.step(), StepOutcome::Solved);
        assert_eq!(e.stats().injections_offered, 2);
        assert_eq!(e.stats().injections_adopted, 1);
    }

    #[test]
    fn rejected_injection_preserves_the_random_stream() {
        // Two identical engines; one receives a rejected offer. Their subsequent
        // trajectories must match exactly.
        let mut a = small_engine(12, 31);
        let mut b = small_engine(12, 31);
        let elite: Vec<usize> = b.problem().configuration().to_vec();
        assert!(!a.inject_candidate(&elite, 0).adopted());
        let ra = a.solve();
        let rb = b.solve();
        assert_eq!(ra.solution, rb.solution);
        assert_eq!(ra.stats.iterations, rb.stats.iterations);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn inject_candidate_rejects_non_permutations() {
        let mut e = small_engine(6, 1);
        let _ = e.inject_candidate(&[1, 1, 2, 3, 4, 5], u64::MAX);
    }

    /// A never-solved problem that records every committed swap, used to observe
    /// the generic reset from outside.
    #[derive(Debug, Clone)]
    struct SwapCounter {
        values: Vec<usize>,
        swaps: u64,
    }

    impl SwapCounter {
        fn new(n: usize) -> Self {
            Self {
                values: (1..=n).collect(),
                swaps: 0,
            }
        }
    }

    impl PermutationProblem for SwapCounter {
        fn size(&self) -> usize {
            self.values.len()
        }
        fn set_configuration(&mut self, values: &[usize]) {
            self.values = values.to_vec();
        }
        fn configuration(&self) -> &[usize] {
            &self.values
        }
        fn global_cost(&self) -> u64 {
            1
        }
        fn variable_errors(&self, out: &mut Vec<u64>) {
            out.clear();
            out.resize(self.values.len(), 1);
        }
        fn delta_for_swap(&self, _i: usize, _j: usize) -> i64 {
            0
        }
        fn apply_swap(&mut self, i: usize, j: usize) {
            assert_ne!(i, j, "the generic reset must never emit a no-op swap");
            self.values.swap(i, j);
            self.swaps += 1;
        }
    }

    #[test]
    fn generic_reset_applies_exactly_the_configured_number_of_swaps() {
        // RP = 0.5 over 10 variables → exactly ⌈5⌉ = 5 effective swaps per reset;
        // collisions are re-sampled instead of silently dropped.
        let config = AsConfig::builder().reset_percentage(0.5).build();
        for seed in 0..50u64 {
            let mut e = Engine::new(SwapCounter::new(10), config.clone(), seed);
            let before = e.problem().swaps;
            e.generic_random_reset();
            assert_eq!(e.problem().swaps - before, 5, "seed {seed}");
        }
    }

    #[test]
    fn generic_reset_on_order_one_is_a_noop() {
        let mut e = Engine::new(SwapCounter::new(1), AsConfig::default(), 3);
        e.generic_random_reset();
        assert_eq!(e.problem().swaps, 0);
    }

    #[test]
    fn high_reset_limit_runs_are_reproducible_and_zero_tenure_is_safe() {
        for tenure in [0u64, 4] {
            let config = AsConfig::builder()
                .reset_limit(32)
                .plateau_probability(0.5)
                .tabu_tenure(tenure)
                .max_iterations(5_000)
                .build();
            let mut a = Engine::new(generic_reset_costas(13), config.clone(), 7);
            let mut b = Engine::new(generic_reset_costas(13), config, 7);
            let ra = a.solve();
            let rb = b.solve();
            assert_eq!(ra.solution, rb.solution, "tenure {tenure}");
            assert_eq!(ra.stats.iterations, rb.stats.iterations);
        }
    }

    #[test]
    fn trajectories_match_recorded_golden_values() {
        // Values recorded from an earlier build: unlike the two-run reproducibility
        // tests, this pins trajectories across builds.  The second run uses a reset
        // limit above the paper's RL = 1, so it also covers iterations that freeze a
        // culprit without resetting.
        let r = small_engine(13, 2).solve();
        assert_eq!(r.status, SolveStatus::Solved);
        assert_eq!(
            (r.stats.iterations, r.stats.local_minima, r.stats.resets),
            (438, 190, 192)
        );
        assert_eq!(
            r.solution,
            Some(vec![5, 4, 10, 6, 8, 13, 1, 2, 9, 3, 12, 7, 11])
        );

        let config = AsConfig::builder()
            .reset_limit(32)
            .tabu_tenure(4)
            .plateau_probability(0.5)
            .max_iterations(5_000)
            .build();
        let r = Engine::new(generic_reset_costas(13), config, 7).solve();
        assert_eq!(r.status, SolveStatus::IterationLimit);
        assert_eq!(
            (r.stats.iterations, r.stats.local_minima, r.stats.resets),
            (5_000, 4_418, 194)
        );
        assert_eq!(r.final_cost, 445);
    }

    #[test]
    fn iteration_distribution_matches_recorded_golden_values() {
        // The whole distribution, not one trajectory: Costas n = 12 under
        // `AsConfig::default()` for seeds 0..=199, with order statistics
        // recorded from an earlier build (nearest rank: the median is the
        // 100th smallest count, p90 the 180th).  Any change to the search
        // path — a decision, a random draw, a tie order — moves these.
        let mut iterations: Vec<u64> = (0..=199u64)
            .map(|seed| {
                let r = Engine::new(CostasProblem::new(12), AsConfig::default(), seed).solve();
                assert_eq!(r.status, SolveStatus::Solved, "seed {seed}");
                r.stats.iterations
            })
            .collect();
        iterations.sort_unstable();
        let total: u64 = iterations.iter().sum();
        let (median, p90, max) = (iterations[99], iterations[179], iterations[199]);
        println!("n = 12, 200 seeds: median {median}, p90 {p90}, max {max}, total {total}");
        assert_eq!((median, p90, max, total), (96, 317, 760, 27_298));
    }

    /// Step both engines `steps` times and assert their observable state stays
    /// bit-for-bit identical throughout.
    fn assert_lockstep<P: PermutationProblem>(a: &mut Engine<P>, b: &mut Engine<P>, steps: usize) {
        for i in 0..steps {
            let oa = a.step();
            let ob = b.step();
            assert_eq!(oa, ob, "step outcome diverged at step {i}");
            assert_eq!(a.snapshot(), b.snapshot(), "state diverged at step {i}");
            if oa == StepOutcome::Solved {
                a.restart();
                b.restart();
            }
        }
    }

    #[test]
    fn snapshot_resume_is_bit_identical_mid_run() {
        // Exercise freezes without resets (RL = 32) and resets before the cut.
        let config = AsConfig::builder()
            .reset_limit(32)
            .plateau_probability(0.4)
            .tabu_tenure(6)
            .build();
        let mut original = Engine::new(generic_reset_costas(15), config.clone(), 42);
        for _ in 0..700 {
            if original.step() == StepOutcome::Solved {
                original.restart();
            }
        }
        let snap = original.snapshot();
        let mut resumed =
            Engine::from_snapshot(generic_reset_costas(15), config, &snap).expect("valid snapshot");
        assert_eq!(resumed.snapshot(), snap, "restore must round-trip");
        assert_lockstep(&mut original, &mut resumed, 700);
    }

    #[test]
    fn snapshot_resume_is_bit_identical_without_cached_errors() {
        // SwapCounter maintains no cached_errors, so every selection recomputes the
        // engine's `errors` scratch; the snapshot does not carry it.
        let config = AsConfig::builder()
            .reset_limit(64)
            .plateau_probability(0.1)
            .tabu_tenure(8)
            .build();
        let mut original = Engine::new(SwapCounter::new(10), config.clone(), 5);
        for _ in 0..50 {
            let _ = original.step();
        }
        let snap = original.snapshot();
        let mut resumed =
            Engine::from_snapshot(SwapCounter::new(10), config, &snap).expect("valid snapshot");
        assert_eq!(resumed.snapshot(), snap, "restore must round-trip");
        assert_lockstep(&mut original, &mut resumed, 50);
    }

    #[test]
    fn snapshot_restore_rejects_corrupt_images_with_typed_errors() {
        let config = AsConfig::default();
        let e = small_engine(8, 1);
        let good = e.snapshot();

        let mut bad = good.clone();
        bad.rng_state = [0; 4];
        assert_eq!(
            Engine::from_snapshot(CostasProblem::new(8), config.clone(), &bad).err(),
            Some(SnapshotError::BadRngState)
        );

        let mut bad = good.clone();
        bad.tabu_horizons.pop();
        assert_eq!(
            Engine::from_snapshot(CostasProblem::new(8), config.clone(), &bad).err(),
            Some(SnapshotError::SizeMismatch {
                field: "tabu_horizons",
                expected: 8,
                found: 7
            })
        );

        let mut bad = good;
        bad.configuration[0] = bad.configuration[1];
        assert_eq!(
            Engine::from_snapshot(CostasProblem::new(8), config, &bad).err(),
            Some(SnapshotError::NotAPermutation)
        );
    }

    #[test]
    fn snapshot_resume_carries_the_best() {
        let mut e = small_engine(14, 77);
        for _ in 0..100 {
            let _ = e.step();
        }
        let snap = e.snapshot();
        let mut resumed = Engine::from_snapshot(CostasProblem::new(14), AsConfig::default(), &snap)
            .expect("valid snapshot");
        assert_eq!(resumed.best_cost(), e.best_cost());
        assert_lockstep(&mut e, &mut resumed, 100);
    }

    #[test]
    fn best_cost_is_monotone_nonincreasing_over_a_run() {
        let config = AsConfig::builder().max_iterations(2000).build();
        let mut e = Engine::new(CostasProblem::new(16), config, 21);
        let mut last_best = u64::MAX;
        for _ in 0..2000 {
            if e.step() == StepOutcome::Solved {
                break;
            }
            assert!(e.best_cost() <= last_best);
            last_best = e.best_cost();
        }
    }
}
