//! The traced run's instrument: a forwarding [`PermutationProblem`] wrapper
//! that times the problem layer's calls from outside the crates.
//!
//! [`Traced`] forwards every trait method — the defaulted ones included — to
//! the wrapped model, so an engine over a traced model follows the same
//! trajectory as one over the bare model (`tests/wrapper_fidelity.rs` pins
//! this for all six registry models).  It times `probe_partners`,
//! `apply_swap` and `custom_reset`, counts `global_cost` calls, and adds its
//! tally to a process-wide sink when it is dropped, keyed by model name.
//!
//! [`register`] adds one runtime registry entry per model under
//! `traced:<key>`, so the unchanged request, multi-walk and service paths
//! build traced models through the registry like any other workload.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use adaptive_search::problems::{self, DynProblem, ProblemInfo};
use adaptive_search::PermutationProblem;
use xrand::Rng64;

/// Calls and nanoseconds spent in the timed problem-layer methods.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub probe_calls: u64,
    pub probe_ns: u64,
    pub apply_calls: u64,
    pub apply_ns: u64,
    pub reset_calls: u64,
    pub reset_ns: u64,
    pub cost_calls: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.probe_calls += other.probe_calls;
        self.probe_ns += other.probe_ns;
        self.apply_calls += other.apply_calls;
        self.apply_ns += other.apply_ns;
        self.reset_calls += other.reset_calls;
        self.reset_ns += other.reset_ns;
        self.cost_calls += other.cost_calls;
    }

    /// Time spent inside the wrapped model's timed calls.
    pub fn child_ns(&self) -> u64 {
        self.probe_ns + self.apply_ns + self.reset_ns
    }
}

/// Tallies of dropped [`Traced`] models, summed per model name.
static SINK: Mutex<BTreeMap<&'static str, Tally>> = Mutex::new(BTreeMap::new());

/// Take (and clear) the per-model tallies of every traced model dropped so far.
pub fn take_tallies() -> BTreeMap<&'static str, Tally> {
    std::mem::take(&mut *SINK.lock().expect("tally sink poisoned"))
}

/// Tally counters of one live model; `Cell`s because the probe and cost
/// methods take `&self`.
#[derive(Default)]
struct Counters {
    probe_calls: Cell<u64>,
    probe_ns: Cell<u64>,
    apply_calls: Cell<u64>,
    apply_ns: Cell<u64>,
    reset_calls: Cell<u64>,
    reset_ns: Cell<u64>,
    cost_calls: Cell<u64>,
}

fn bump(calls: &Cell<u64>, ns: &Cell<u64>, since: Instant) {
    ns.set(ns.get() + since.elapsed().as_nanos() as u64);
    calls.set(calls.get() + 1);
}

/// A model whose problem-layer calls are timed; see the module docs.
pub struct Traced<P: PermutationProblem> {
    inner: P,
    counters: Counters,
}

impl<P: PermutationProblem> Traced<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            counters: Counters::default(),
        }
    }

    /// The calls recorded so far by this model.
    pub fn tally(&self) -> Tally {
        let c = &self.counters;
        Tally {
            probe_calls: c.probe_calls.get(),
            probe_ns: c.probe_ns.get(),
            apply_calls: c.apply_calls.get(),
            apply_ns: c.apply_ns.get(),
            reset_calls: c.reset_calls.get(),
            reset_ns: c.reset_ns.get(),
            cost_calls: c.cost_calls.get(),
        }
    }
}

impl<P: PermutationProblem> Drop for Traced<P> {
    fn drop(&mut self) {
        let tally = self.tally();
        let mut sink = SINK.lock().unwrap_or_else(|poison| poison.into_inner());
        sink.entry(self.inner.name()).or_default().add(&tally);
    }
}

impl<P: PermutationProblem> PermutationProblem for Traced<P> {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn set_configuration(&mut self, values: &[usize]) {
        self.inner.set_configuration(values);
    }
    fn configuration(&self) -> &[usize] {
        self.inner.configuration()
    }
    fn global_cost(&self) -> u64 {
        let calls = &self.counters.cost_calls;
        calls.set(calls.get() + 1);
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
        let start = Instant::now();
        self.inner.probe_partners(culprit, out);
        bump(&self.counters.probe_calls, &self.counters.probe_ns, start);
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
        let start = Instant::now();
        self.inner.apply_swap(i, j);
        bump(&self.counters.apply_calls, &self.counters.apply_ns, start);
    }
    fn custom_reset(&mut self, worst_var: usize, rng: &mut dyn Rng64) -> Option<u64> {
        let start = Instant::now();
        let result = self.inner.custom_reset(worst_var, rng);
        bump(&self.counters.reset_calls, &self.counters.reset_ns, start);
        result
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn is_solution(&self) -> bool {
        self.inner.is_solution()
    }
}

/// Registry key of the traced twin of `key`.
pub fn traced_key(key: &str) -> String {
    format!("traced:{key}")
}

/// Build the traced twin of registry entry `I` (a const parameter because
/// registry constructors are plain `fn` pointers).
fn build_traced<const I: usize>(n: usize) -> DynProblem {
    Box::new(Traced::new((problems::registry()[I].build)(n)))
}

/// Register `traced:<key>` for every registry model (idempotent).
pub fn register() {
    static DONE: OnceLock<()> = OnceLock::new();
    DONE.get_or_init(|| {
        let builders: [fn(usize) -> DynProblem; 6] = [
            build_traced::<0>,
            build_traced::<1>,
            build_traced::<2>,
            build_traced::<3>,
            build_traced::<4>,
            build_traced::<5>,
        ];
        assert_eq!(
            problems::registry().len(),
            builders.len(),
            "registry size changed"
        );
        for (info, build) in problems::registry().iter().zip(builders) {
            let key: &'static str = Box::leak(traced_key(info.key).into_boxed_str());
            problems::register_extra(ProblemInfo {
                key,
                build,
                ..*info
            });
        }
    });
}
