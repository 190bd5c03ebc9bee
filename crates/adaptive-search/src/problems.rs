//! The workload registry: every shipped [`PermutationProblem`] model, keyed by a
//! stable string, with the per-model metadata harnesses need to drive it.
//!
//! Before this module, every consumer that wanted "all the models" — the
//! throughput bench, the conformance suite, the multi-walk runners — carried its
//! own hardcoded list of constructors and configurations, and adding a workload
//! meant touching each of them.  The registry centralises that: one
//! [`ProblemInfo`] entry per model with
//!
//! * a string **key** (stable across releases; used in benchmark artefacts and
//!   harness CLIs),
//! * a **constructor** returning the model as a boxed trait object
//!   ([`DynProblem`], which implements [`PermutationProblem`] by forwarding every
//!   method — including the ones with default bodies — so dispatching through the
//!   registry never silently reroutes a model onto a default-trait fallback),
//! * the model's **default engine configuration** (reset / tabu / plateau tuning),
//! * a **known-optimum predicate** deciding whether a configuration is a genuine
//!   solution via a from-scratch rebuild (for the Costas key, the domain crate's
//!   independent oracle),
//! * the **admissible instance parameters**, the multiples of
//!   [`ProblemInfo::size_step`] in `1..=max_n` ([`ProblemInfo::admits`]): the
//!   upper bound is the largest parameter whose model fits
//!   [`MODEL_MEMORY_BUDGET`] under the model's own allocation formula, so
//!   request layers can refuse an impossible size before anything is
//!   allocated,
//! * the size from which `solverd` fans a request out over several walks
//!   ([`ProblemInfo::bench_size`]), plus small parameter lists for conformance
//!   property tests ([`ProblemInfo::test_sizes`]) and for end-to-end
//!   solvability tests ([`ProblemInfo::solvable_sizes`]).
//!
//! The parameter passed to [`ProblemInfo::build`] has per-model semantics
//! (documented in [`ProblemInfo::size_unit`]): the permutation order for Costas,
//! N-Queens, All-Interval and number partitioning, the board side for Magic Square
//! (`side²` variables) and the pair count for Langford (`2n` variables).

use std::ops::RangeInclusive;

use costas::{is_costas_permutation, CostModel};

use crate::all_interval::AllIntervalProblem;
use crate::config::AsConfig;
use crate::costas_model::CostasProblem;
use crate::langford::LangfordProblem;
use crate::magic_square::MagicSquareProblem;
use crate::partition::PartitionProblem;
use crate::problem::PermutationProblem;
use crate::queens::QueensProblem;

/// A registry-built problem: boxed, [`Send`] (so multi-walk runners can build
/// walks on worker threads), and a [`PermutationProblem`] in its own right through
/// the forwarding impl on `Box`.
pub type DynProblem = Box<dyn PermutationProblem + Send>;

/// Heap budget of one model instance (256 MiB): [`ProblemInfo::max_n`] is the
/// largest instance parameter whose model allocates no more than this.  The
/// engine's own buffers, a few words per variable, come on top.
pub const MODEL_MEMORY_BUDGET: u128 = 256 << 20;

/// The largest `n ≥ 1` with `heap_bytes(n) ≤ MODEL_MEMORY_BUDGET`, by
/// bisection over `1..u32::MAX` (every model's formula grows monotonically in
/// `n` and exceeds the budget well before `u32::MAX`).  Evaluated at compile
/// time, so `heap_bytes` names a `const fn` — the same one the entry stores
/// as [`ProblemInfo::heap_bytes`].
macro_rules! max_n_within_budget {
    ($heap_bytes:path) => {{
        let (mut fits, mut exceeds) = (1usize, u32::MAX as usize);
        while exceeds - fits > 1 {
            let n = fits + (exceeds - fits) / 2;
            if $heap_bytes(n) <= MODEL_MEMORY_BUDGET {
                fits = n;
            } else {
                exceeds = n;
            }
        }
        fits
    }};
}

/// Registry entry: one workload plus the metadata harnesses dispatch on.
#[derive(Clone, Copy)]
pub struct ProblemInfo {
    /// Stable string key (`"costas"`, `"n-queens"`, `"all-interval"`,
    /// `"magic-square"`, `"langford"`, `"number-partitioning"`); equals the
    /// model's [`PermutationProblem::name`].
    pub key: &'static str,
    /// One-line description for harness output.
    pub summary: &'static str,
    /// What the instance parameter means for this model.
    pub size_unit: &'static str,
    /// Construct an instance from the per-model instance parameter.
    pub build: fn(usize) -> DynProblem,
    /// The model's default engine configuration for a given instance parameter
    /// (reset policy, tabu tenure, plateau probability).
    pub default_config: fn(usize) -> AsConfig,
    /// Known-optimum predicate: is this configuration (a permutation of
    /// `1..=len`) a genuine solution?  Decided against a from-scratch rebuild —
    /// never against searcher state — so harnesses can verify claimed solutions
    /// independently.
    pub is_optimum: fn(&[usize]) -> bool,
    /// Instance parameter from which `solverd` races a request over several
    /// walks instead of one engine (a size where a walk keeps probing rather
    /// than solving instantly).
    pub bench_size: usize,
    /// Heap bytes one model instance allocates at an instance parameter: the
    /// formula [`ProblemInfo::max_n`] is derived from, and what each walk of
    /// a fan-out holds ([`ProblemInfo::walks_within_budget`]).
    pub heap_bytes: fn(usize) -> u128,
    /// Largest admissible instance parameter: the largest `n` whose model fits
    /// [`MODEL_MEMORY_BUDGET`] under its own allocation formula.  A constant of
    /// the model, not a setting.
    pub max_n: usize,
    /// Admissible instance parameters are the multiples of this in
    /// `1..=max_n`: 2 for number partitioning, whose ground set splits into
    /// equal halves, 1 for every other model.  A constant of the model, not
    /// a setting.
    pub size_step: usize,
    /// Small valid instance parameters for conformance property tests.
    pub test_sizes: &'static [usize],
    /// Small instance parameters with known optima, solvable by the default
    /// configuration within seconds (for end-to-end tests).
    pub solvable_sizes: &'static [usize],
}

impl ProblemInfo {
    /// The instance parameters this model accepts: `1..=max_n`.  Every
    /// constructor asserts the lower bound; the upper one keeps a request from
    /// allocating more than [`MODEL_MEMORY_BUDGET`].
    pub fn size_range(&self) -> RangeInclusive<usize> {
        1..=self.max_n
    }

    /// Does this model accept instance parameter `n`: in
    /// [`ProblemInfo::size_range`] and a multiple of
    /// [`ProblemInfo::size_step`]?
    pub fn admits(&self, n: usize) -> bool {
        self.size_range().contains(&n) && n.is_multiple_of(self.size_step)
    }

    /// How many instances at parameter `n` fit [`MODEL_MEMORY_BUDGET`]
    /// together — the widest fan-out a request may race.  At least 1, since
    /// an admissible `n` is one whose single instance fits.
    pub fn walks_within_budget(&self, n: usize) -> usize {
        // The quotient is at most the budget, 2²⁸, so it fits a `usize`.
        (MODEL_MEMORY_BUDGET / (self.heap_bytes)(n)).max(1) as usize
    }
}

impl std::fmt::Debug for ProblemInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProblemInfo")
            .field("key", &self.key)
            .field("bench_size", &self.bench_size)
            .finish_non_exhaustive()
    }
}

/// Rebuild a model of the same shape as `values` and test for cost zero.
fn zero_cost<P: PermutationProblem>(mut fresh: P, values: &[usize]) -> bool {
    if fresh.size() != values.len() {
        return false;
    }
    fresh.set_configuration(values);
    fresh.global_cost() == 0
}

/// Integer square root (for decoding a Magic Square side from a configuration).
fn isqrt(n: usize) -> usize {
    let mut s = (n as f64).sqrt() as usize;
    while (s + 1) * (s + 1) <= n {
        s += 1;
    }
    while s * s > n {
        s -= 1;
    }
    s
}

/// The Costas entry's instance bytes, under the optimised cost model its
/// default configuration runs.
const fn costas_heap_bytes(n: usize) -> u128 {
    CostasProblem::heap_bytes(n, CostModel::optimized())
}

static REGISTRY: [ProblemInfo; 6] = [
    ProblemInfo {
        key: "costas",
        summary: "Costas Array Problem: all difference-triangle rows alldifferent",
        size_unit: "array order n (n variables)",
        build: |n| Box::new(CostasProblem::new(n)),
        default_config: |_| AsConfig::default(),
        is_optimum: is_costas_permutation,
        bench_size: 18,
        heap_bytes: costas_heap_bytes,
        max_n: max_n_within_budget!(costas_heap_bytes),
        size_step: 1,
        test_sizes: &[2, 3, 5, 8, 12, 16, 33, 40],
        solvable_sizes: &[8, 10, 12],
    },
    ProblemInfo {
        key: "n-queens",
        summary: "N-Queens: no two queens on a shared diagonal",
        size_unit: "board size n (n variables)",
        build: |n| Box::new(QueensProblem::new(n)),
        default_config: |_| AsConfig::default(),
        is_optimum: |values| zero_cost(QueensProblem::new(values.len().max(1)), values),
        bench_size: 100,
        heap_bytes: QueensProblem::heap_bytes,
        max_n: max_n_within_budget!(QueensProblem::heap_bytes),
        size_step: 1,
        test_sizes: &[2, 4, 7, 11, 16, 24],
        solvable_sizes: &[8, 16, 30],
    },
    ProblemInfo {
        key: "all-interval",
        summary: "All-Interval Series: all adjacent differences distinct",
        size_unit: "series length n (n variables)",
        build: |n| Box::new(AllIntervalProblem::new(n)),
        default_config: |_| AsConfig::default(),
        is_optimum: |values| zero_cost(AllIntervalProblem::new(values.len().max(1)), values),
        bench_size: 50,
        heap_bytes: AllIntervalProblem::heap_bytes,
        max_n: max_n_within_budget!(AllIntervalProblem::heap_bytes),
        size_step: 1,
        test_sizes: &[2, 3, 6, 10, 16, 24],
        solvable_sizes: &[8, 10, 12],
    },
    ProblemInfo {
        key: "magic-square",
        summary: "Magic Square: every row/column/diagonal sums to the magic constant",
        size_unit: "board side n (n² variables)",
        build: |side| Box::new(MagicSquareProblem::new(side)),
        default_config: |_side| {
            // The plateau tuning of paper §III-B1: Magic Square needs aggressive
            // plateau-following (0.9 < p) to traverse its wide equal-cost shelves.
            AsConfig::builder().plateau_probability(0.9).build()
        },
        is_optimum: |values| {
            let side = isqrt(values.len());
            side * side == values.len()
                && side > 0
                && zero_cost(MagicSquareProblem::new(side), values)
        },
        bench_size: 10,
        heap_bytes: MagicSquareProblem::heap_bytes,
        max_n: max_n_within_budget!(MagicSquareProblem::heap_bytes),
        size_step: 1,
        test_sizes: &[2, 3, 4, 5],
        solvable_sizes: &[3, 4, 5],
    },
    ProblemInfo {
        key: "langford",
        summary: "Langford pairing L(2, n): the two copies of k sit k cells apart",
        size_unit: "pair count n (2n variables)",
        build: |pairs| Box::new(LangfordProblem::new(pairs)),
        default_config: |_| AsConfig::default(),
        is_optimum: |values| {
            values.len() % 2 == 0
                && !values.is_empty()
                && zero_cost(LangfordProblem::new(values.len() / 2), values)
        },
        bench_size: 32,
        heap_bytes: LangfordProblem::heap_bytes,
        max_n: max_n_within_budget!(LangfordProblem::heap_bytes),
        size_step: 1,
        test_sizes: &[1, 2, 3, 5, 8, 12],
        solvable_sizes: &[3, 4, 7, 8],
    },
    ProblemInfo {
        key: "number-partitioning",
        summary: "Number partitioning: halve 1..=n with equal sums and square sums",
        size_unit: "ground-set size n (n variables, n even)",
        build: |n| Box::new(PartitionProblem::new(n)),
        default_config: |_| AsConfig::default(),
        is_optimum: |values| {
            values.len() % 2 == 0
                && !values.is_empty()
                && zero_cost(PartitionProblem::new(values.len()), values)
        },
        bench_size: 64,
        // The ground set must split into equal halves.
        heap_bytes: PartitionProblem::heap_bytes,
        max_n: max_n_within_budget!(PartitionProblem::heap_bytes) & !1,
        size_step: 2,
        test_sizes: &[2, 4, 6, 10, 16, 24],
        solvable_sizes: &[8, 12, 16],
    },
];

/// Extra entries registered at runtime (see [`register_extra`]).  Deliberately
/// *not* part of [`registry`]/[`keys`]: the static artefact order is a
/// compatibility contract, and runtime extras (fault-injection wrappers, test
/// doubles) must never leak into benchmark enumeration — only into by-key
/// dispatch ([`find`]/[`build`]), which is what services resolve requests
/// through.
static EXTRA: std::sync::RwLock<Vec<&'static ProblemInfo>> = std::sync::RwLock::new(Vec::new());

/// Register an additional workload at runtime, resolvable through [`find`] and
/// [`build`] but excluded from [`registry`]/[`keys`] enumeration.
///
/// Registration is first-wins and idempotent per key: a key already present —
/// statically or as an earlier extra — is left untouched and `false` is
/// returned.  The entry is leaked to obtain the `'static` lifetime the rest of
/// the registry API hands out; callers register a bounded number of entries
/// (in practice: test harnesses registering one fault-injection wrapper).
#[doc(hidden)]
pub fn register_extra(info: ProblemInfo) -> bool {
    let mut extra = EXTRA.write().unwrap_or_else(|e| e.into_inner());
    if REGISTRY.iter().any(|e| e.key == info.key) || extra.iter().any(|e| e.key == info.key) {
        return false;
    }
    extra.push(Box::leak(Box::new(info)));
    true
}

/// All registered workloads, in the stable artefact order (the four seed models
/// first, then the later additions — benchmark JSON consumers rely on existing
/// entries never moving).
pub fn registry() -> &'static [ProblemInfo] {
    &REGISTRY
}

/// The registered keys, in registry order.
pub fn keys() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|info| info.key)
}

/// Look up a workload by key (static registry first, then runtime extras).
pub fn find(key: &str) -> Option<&'static ProblemInfo> {
    REGISTRY.iter().find(|info| info.key == key).or_else(|| {
        EXTRA
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|info| info.key == key)
            .copied()
    })
}

/// Build a workload by key with the given instance parameter (see
/// [`ProblemInfo::size_unit`] for its per-model meaning); `None` for unknown keys.
pub fn build(key: &str, size: usize) -> Option<DynProblem> {
    find(key).map(|info| (info.build)(size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_six_unique_keys_matching_model_names() {
        let keys: Vec<&str> = keys().collect();
        assert_eq!(
            keys,
            vec![
                "costas",
                "n-queens",
                "all-interval",
                "magic-square",
                "langford",
                "number-partitioning"
            ]
        );
        for info in registry() {
            let problem = (info.build)(info.test_sizes[0]);
            assert_eq!(problem.name(), info.key, "key must equal the model name");
            assert!((info.default_config)(info.bench_size).validate().is_ok());
        }
    }

    #[test]
    fn find_and_build_dispatch_by_key() {
        assert!(find("costas").is_some());
        assert!(find("no-such-model").is_none());
        assert!(build("no-such-model", 5).is_none());
        let p = build("langford", 4).expect("registered");
        assert_eq!(p.size(), 8, "Langford parameter is the pair count");
        let p = build("magic-square", 4).expect("registered");
        assert_eq!(p.size(), 16, "Magic Square parameter is the side");
    }

    #[test]
    fn no_registered_model_relies_on_default_trait_fallbacks() {
        // Every model must maintain its own error vector; together with the
        // conformance suite's probe checks this pins the full three-layer
        // contract for all registered workloads.
        for info in registry() {
            let problem = (info.build)(info.test_sizes[info.test_sizes.len() - 1]);
            assert!(
                problem.cached_errors().is_some(),
                "{} must maintain cached_errors",
                info.key
            );
            assert_eq!(problem.cached_errors().unwrap().len(), problem.size());
        }
    }

    #[test]
    fn optimum_predicates_accept_known_solutions_and_reject_non_solutions() {
        let cases: &[(&str, &[usize], &[usize])] = &[
            ("costas", &[2, 4, 3, 1], &[1, 2, 3, 4]),
            (
                "n-queens",
                &[5, 3, 1, 7, 2, 8, 6, 4],
                &[1, 2, 3, 4, 5, 6, 7, 8],
            ),
            ("all-interval", &[1, 4, 2, 3], &[1, 2, 3, 4]),
            (
                "magic-square",
                &[2, 7, 6, 9, 5, 1, 4, 3, 8],
                &[1, 2, 3, 4, 5, 6, 7, 8, 9],
            ),
            ("langford", &[5, 1, 3, 2, 6, 4], &[1, 2, 3, 4, 5, 6]),
            (
                "number-partitioning",
                &[1, 4, 6, 7, 2, 3, 5, 8],
                &[1, 2, 3, 4, 5, 6, 7, 8],
            ),
        ];
        for &(key, solution, non_solution) in cases {
            let info = find(key).expect("registered");
            assert!(
                (info.is_optimum)(solution),
                "{key}: known solution rejected"
            );
            assert!(
                !(info.is_optimum)(non_solution),
                "{key}: non-solution accepted"
            );
        }
    }

    #[test]
    fn boxed_models_forward_the_whole_contract() {
        // The Box forwarding impl must not reroute overridden methods onto the
        // trait defaults: probe results, cached errors and name all come from
        // the underlying model.
        let mut boxed = build("all-interval", 8).expect("registered");
        let direct = AllIntervalProblem::new(8);
        assert_eq!(boxed.name(), direct.name());
        assert_eq!(boxed.global_cost(), direct.global_cost());
        assert_eq!(boxed.cached_errors(), direct.cached_errors());
        let mut probe_boxed = Vec::new();
        let mut probe_direct = Vec::new();
        boxed.probe_partners(2, &mut probe_boxed);
        direct.probe_partners(2, &mut probe_direct);
        assert_eq!(probe_boxed, probe_direct);
        assert_eq!(boxed.delta_for_swap(1, 5), direct.delta_for_swap(1, 5));
        boxed.apply_swap(0, 7);
        assert_ne!(boxed.configuration(), direct.configuration());
    }

    #[test]
    fn runtime_extras_dispatch_by_key_but_stay_out_of_enumeration() {
        let extra = ProblemInfo {
            key: "test-extra-model",
            summary: "runtime-registered double",
            size_unit: "n",
            build: |n| Box::new(CostasProblem::new(n)),
            default_config: |_| AsConfig::default(),
            is_optimum: is_costas_permutation,
            bench_size: usize::MAX,
            heap_bytes: costas_heap_bytes,
            max_n: 64,
            size_step: 1,
            test_sizes: &[4],
            solvable_sizes: &[],
        };
        assert!(register_extra(extra));
        // idempotent per key, and static keys cannot be shadowed
        assert!(!register_extra(extra));
        assert!(!register_extra(ProblemInfo {
            key: "costas",
            ..extra
        }));
        assert!(find("test-extra-model").is_some());
        assert!(build("test-extra-model", 5).is_some());
        assert!(keys().all(|k| k != "test-extra-model"));
        assert!(registry().iter().all(|i| i.key != "test-extra-model"));
    }

    #[test]
    fn isqrt_decodes_exact_squares() {
        for side in 1usize..=40 {
            assert_eq!(isqrt(side * side), side);
            assert_eq!(isqrt(side * side + 1), side);
        }
        assert_eq!(isqrt(0), 0);
    }
}
