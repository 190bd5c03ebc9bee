//! Deterministic fault injection for chaos testing.
//!
//! The fault-tolerance layer (panic isolation in the multi-walk runners, worker
//! supervision and in-flight cancellation in `solverd`) needs to be *provable*,
//! and "kill -9 a thread at a random moment" proves nothing reproducibly.  This
//! module makes faults a deterministic function of `(plan seed, request seed)`:
//!
//! * a [`FaultPlan`] — a seeded recipe saying which fraction of walks panic or
//!   stall, and after how much work;
//! * a [`FaultyProblem`] — a [`PermutationProblem`] wrapper that counts
//!   `global_cost` calls (a stable proxy for engine progress: the solve loop
//!   reads the global cost at least once per iteration) and trips its assigned
//!   fault at the chosen count;
//! * a `"chaos-costas"` workload registered through
//!   [`crate::problems::register_extra`]: a Costas model wrapped in the
//!   currently [`install_plan`]ed fault plan, resolvable by any request path
//!   (including a served request arriving over a socket) but invisible to
//!   benchmark enumeration.
//!
//! Determinism chain: the engine's initial configuration is a pure function of
//! the request seed, the wrapper decides its fault by hashing that first
//! configuration against the plan seed, and the engine's `global_cost` call
//! trajectory is itself seed-deterministic.  Therefore *the same request under
//! the same plan always panics (or stalls) at the same point* — chaos e2e tests
//! can predict exactly which requests die and assert that two identical runs
//! classify identically.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Duration;

use xrand::Rng64;

use crate::config::AsConfig;
use crate::costas_model::CostasProblem;
use crate::problem::PermutationProblem;
use crate::problems::{self, DynProblem, ProblemInfo};

/// Registry key of the fault-wrapped Costas workload.
pub const CHAOS_PROBLEM: &str = "chaos-costas";

/// The fault assigned to one walk (one engine / one wrapped problem instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the wrapper is a transparent forwarder.
    #[default]
    None,
    /// Panic when the `global_cost` call counter reaches `op`.
    PanicAt {
        /// The fatal call count.
        op: u64,
    },
    /// Sleep `for_ms` milliseconds when the counter reaches `op` (a seized
    /// worker: the thread is alive but makes no progress for a while).
    StallAt {
        /// The stalling call count.
        op: u64,
        /// How long the stall lasts.
        for_ms: u64,
    },
}

/// A seeded recipe assigning faults to walks.
///
/// `fault_for` hashes the walk's *initial configuration* (a pure function of
/// the engine seed) against `seed`, so the assignment is deterministic per
/// `(plan, request)` pair and differs across walks of a fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Out of 1000 walks, how many panic.
    pub panic_per_mille: u16,
    /// Out of 1000 walks, how many stall (decided after the panic roll).
    pub stall_per_mille: u16,
    /// Stall duration for stalling walks.
    pub stall_ms: u64,
    /// Faults trip at a `global_cost` call count in
    /// `min_op .. min_op + op_spread` (spread of at least 1).
    pub min_op: u64,
    /// Width of the trip window.
    pub op_spread: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            panic_per_mille: 0,
            stall_per_mille: 0,
            stall_ms: 0,
            min_op: 1,
            op_spread: 64,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the wrapper forwards transparently).
    pub fn benign(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Decide the fault for a walk whose engine starts at `initial`.
    ///
    /// Pure: the same `(plan, initial)` pair always returns the same fault, so
    /// a test can rebuild the engine for a request seed, read its initial
    /// configuration and *predict* whether the served request will die.
    pub fn fault_for(&self, initial: &[usize]) -> Fault {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for &v in initial {
            h = (h ^ v as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
        }
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let roll = (h % 1000) as u16;
        let op = self.min_op + (h >> 10) % self.op_spread.max(1);
        if roll < self.panic_per_mille {
            Fault::PanicAt { op }
        } else if roll < self.panic_per_mille + self.stall_per_mille {
            Fault::StallAt {
                op,
                for_ms: self.stall_ms,
            }
        } else {
            Fault::None
        }
    }
}

/// A [`PermutationProblem`] wrapper that trips a deterministic [`Fault`].
///
/// The fault is decided at the *first* `set_configuration` call (the engine's
/// initial randomisation) via [`FaultPlan::fault_for`]; from then on every
/// `global_cost` call advances an op counter, and the fault fires when the
/// counter reaches its trip point.  All other trait methods forward untouched,
/// so a fault-free wrapped walk is computationally identical to the bare model
/// (same probes, same caches, same accelerated kernels).
pub struct FaultyProblem {
    inner: DynProblem,
    plan: FaultPlan,
    fault: Cell<Fault>,
    decided: Cell<bool>,
    ops: Cell<u64>,
}

impl FaultyProblem {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: DynProblem, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            fault: Cell::new(Fault::None),
            decided: Cell::new(false),
            ops: Cell::new(0),
        }
    }

    /// The fault this instance will (or did) trip, once decided.
    pub fn fault(&self) -> Fault {
        self.fault.get()
    }

    /// One op: count a `global_cost` call and trip the fault if its moment
    /// has come.  `&self` because `global_cost` is a read-only probe; the
    /// counter lives in a `Cell`.
    fn tick(&self) {
        let op = self.ops.get() + 1;
        self.ops.set(op);
        // `>=` (not `==`): the fault is decided at the first
        // `set_configuration`, and a handful of ops may already have passed by
        // then — a trip point must never be silently skipped.  A stall fires
        // once and disarms.
        match self.fault.get() {
            Fault::PanicAt { op: at } if op >= at => {
                panic!(
                    "injected fault: panic at op {at} (plan seed {})",
                    self.plan.seed
                )
            }
            Fault::StallAt { op: at, for_ms } if op >= at => {
                self.fault.set(Fault::None);
                std::thread::sleep(Duration::from_millis(for_ms));
            }
            _ => {}
        }
    }
}

impl PermutationProblem for FaultyProblem {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn set_configuration(&mut self, values: &[usize]) {
        if !self.decided.get() {
            self.fault.set(self.plan.fault_for(values));
            self.decided.set(true);
        }
        self.inner.set_configuration(values);
    }
    fn configuration(&self) -> &[usize] {
        self.inner.configuration()
    }
    fn global_cost(&self) -> u64 {
        self.tick();
        self.inner.global_cost()
    }
    fn variable_errors(&self, out: &mut Vec<u64>) {
        self.inner.variable_errors(out);
    }
    fn cached_errors(&self) -> Option<&[u64]> {
        self.inner.cached_errors()
    }
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        self.inner.delta_for_swap(i, j)
    }
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        self.inner.probe_partners(culprit, out);
    }
    fn probe_partners_reference(&self, culprit: usize, out: &mut Vec<u64>) {
        self.inner.probe_partners_reference(culprit, out);
    }
    fn has_accelerated_probe(&self) -> bool {
        self.inner.has_accelerated_probe()
    }
    fn cost_after_swap(&mut self, i: usize, j: usize) -> u64 {
        self.inner.cost_after_swap(i, j)
    }
    fn apply_swap(&mut self, i: usize, j: usize) {
        self.inner.apply_swap(i, j);
    }
    fn custom_reset(&mut self, worst_var: usize, rng: &mut dyn Rng64) -> Option<u64> {
        self.inner.custom_reset(worst_var, rng)
    }
    fn name(&self) -> &'static str {
        CHAOS_PROBLEM
    }
    fn is_solution(&self) -> bool {
        self.inner.is_solution()
    }
}

/// The process-wide plan the `"chaos-costas"` build function reads.  One plan
/// per process: tests sharing a binary install theirs once (under a `Once` or
/// by agreeing on a single plan) rather than racing.
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Install the plan future `"chaos-costas"` instances are built under.
pub fn install_plan(plan: FaultPlan) {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
}

/// The currently installed plan, if any.
pub fn installed_plan() -> Option<FaultPlan> {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Remove the installed plan (subsequent builds are benign forwarders).
pub fn clear_plan() {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

fn build_chaos(n: usize) -> DynProblem {
    let plan = installed_plan().unwrap_or_else(|| FaultPlan::benign(0));
    Box::new(FaultyProblem::new(Box::new(CostasProblem::new(n)), plan))
}

/// Register the `"chaos-costas"` workload (idempotent).  Call once per process
/// before submitting chaos requests; combine with [`install_plan`] to arm it.
///
/// `bench_size` is `usize::MAX` so a service never auto-fans-out chaos
/// requests by the "n ≥ bench size" policy — tests choose their fan-out
/// explicitly.
pub fn ensure_chaos_registered() {
    problems::register_extra(ProblemInfo {
        key: CHAOS_PROBLEM,
        summary: "Costas wrapped in the installed deterministic fault plan",
        size_unit: "array order n (n variables)",
        build: build_chaos,
        default_config: |_| AsConfig::default(),
        is_optimum: costas::is_costas_permutation,
        bench_size: usize::MAX,
        heap_bytes: problems::find("costas").expect("static entry").heap_bytes,
        max_n: problems::find("costas").expect("static entry").max_n,
        size_step: 1,
        test_sizes: &[8, 12],
        solvable_sizes: &[],
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn spicy_plan() -> FaultPlan {
        FaultPlan {
            seed: 0xC0FFEE,
            panic_per_mille: 500,
            stall_per_mille: 100,
            stall_ms: 1,
            min_op: 1,
            op_spread: 32,
        }
    }

    #[test]
    fn fault_assignment_is_deterministic_and_seed_sensitive() {
        let plan = spicy_plan();
        let config: Vec<usize> = (1..=12).collect();
        assert_eq!(plan.fault_for(&config), plan.fault_for(&config));
        // across many configurations the plan must actually assign each class
        let mut seen_panic = false;
        let mut seen_stall = false;
        let mut seen_none = false;
        for rot in 0..512usize {
            let mut c = config.clone();
            c.rotate_left(rot % 12);
            c.swap(rot % 12, (rot * 5 + rot / 12) % 12);
            match plan.fault_for(&c) {
                Fault::PanicAt { .. } => seen_panic = true,
                Fault::StallAt { .. } => seen_stall = true,
                Fault::None => seen_none = true,
            }
        }
        assert!(seen_panic && seen_stall && seen_none);
    }

    #[test]
    fn benign_wrapper_is_computationally_transparent() {
        // Same seed, same model, with and without the wrapper: identical walk.
        let bare = Engine::new(CostasProblem::new(10), AsConfig::default(), 42).solve();
        let wrapped = Engine::new(
            FaultyProblem::new(Box::new(CostasProblem::new(10)), FaultPlan::benign(7)),
            AsConfig::default(),
            42,
        )
        .solve();
        assert_eq!(bare.solution, wrapped.solution);
        assert_eq!(bare.stats.iterations, wrapped.stats.iterations);
    }

    #[test]
    fn a_panic_fault_fires_at_its_op_deterministically() {
        let plan = spicy_plan();
        // Predict with a *bare* engine: the initial configuration is a pure
        // function of (n, seed), so the prediction never risks tripping the
        // fault itself — the same technique the chaos e2e tests use.
        let seed = (0..200u64)
            .find(|&seed| {
                let engine = Engine::new(CostasProblem::new(10), AsConfig::default(), seed);
                matches!(
                    plan.fault_for(engine.problem().configuration()),
                    Fault::PanicAt { .. }
                )
            })
            .expect("a 50% plan assigns a panic within 200 seeds");
        let run = |seed| {
            std::panic::catch_unwind(|| {
                let mut engine = Engine::new(
                    FaultyProblem::new(Box::new(CostasProblem::new(10)), plan),
                    AsConfig::default(),
                    seed,
                );
                let r = engine.solve();
                r.stats.iterations
            })
        };
        let a = run(seed);
        let b = run(seed);
        assert!(a.is_err(), "assigned panic must fire");
        assert!(b.is_err(), "and fire again on the identical rerun");
    }

    #[test]
    fn chaos_registration_dispatches_and_reads_the_installed_plan() {
        ensure_chaos_registered();
        ensure_chaos_registered(); // idempotent
        let info = problems::find(CHAOS_PROBLEM).expect("registered");
        assert_eq!(info.bench_size, usize::MAX, "never auto-fans-out");
        let p = (info.build)(8);
        assert_eq!(p.name(), CHAOS_PROBLEM);
        assert_eq!(p.size(), 8);
    }
}
