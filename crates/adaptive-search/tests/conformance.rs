//! The model conformance kit: one shared property suite enforcing the full
//! three-layer [`PermutationProblem`] contract for **every** workload of the
//! problem registry — current and future.
//!
//! [`assert_problem_conformance`] is a generic driver usable against any model
//! (registered or third-party).  Along an arbitrary mixed sequence of swaps,
//! resets and injections it checks, at every step:
//!
//! * **(a) delta exactness** — `delta_for_swap(i, j)` equals the cost difference
//!   of a from-scratch rebuild of the swapped configuration, is symmetric, and is
//!   zero on `i == j`;
//! * **(b) probe purity and agreement** — `probe_partners(culprit, ..)` agrees
//!   with the from-scratch oracle *and* with the per-pair deltas for every
//!   candidate, reports the current cost at the culprit slot, and neither probe
//!   observably mutates the problem;
//! * **(b′) kernel equivalence** — `probe_partners` agrees **bit-for-bit** with
//!   the scalar `probe_partners_reference`, pinning any accelerated (bitmask)
//!   kernel to its reference implementation on every visited neighbourhood
//!   (models reporting `has_accelerated_probe` — currently Costas at every
//!   order, single-word masks up to n = 32 and the width-generic multi-word
//!   kernel beyond — get this as a real two-algorithm check; for everyone else
//!   it degenerates to a tautology and costs one extra scalar probe);
//! * **(c) error maintenance** — after every `apply_swap` /
//!   `set_configuration` (the engine's swap, reset and injection paths all reduce
//!   to those), the incremental cost, the recomputing `variable_errors` and the
//!   maintained `cached_errors` all agree with a from-scratch rebuild.
//!
//! "From scratch" always means a *fresh* instance fed the candidate configuration
//! through `set_configuration`, so the oracle never shares incremental state with
//! the instance under test.  The property tests below drive the driver over all
//! registered models and their registry `test_sizes`, replacing the per-model
//! ad-hoc suites that previously lived in `tests/proptest_probes.rs`.
//!
//! Case counts are deliberately moderate (each case replays a full operation
//! sequence with an O(n) oracle per probe entry) and globally overridable with
//! `PROPTEST_CASES`, which CI pins so tier-1 runtime stays bounded; the nightly
//! release job re-runs this suite optimised with debug assertions forced on.

use adaptive_search::problems::{registry, DynProblem, ProblemInfo};
use adaptive_search::PermutationProblem;
use proptest::prelude::*;
use xrand::{default_rng, random_permutation};

/// One scripted operation of a conformance run.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Probe positions `i % n` and `j % n`, then commit that swap.
    Swap(usize, usize),
    /// Install a fresh random permutation through `set_configuration` — exactly
    /// what the engine's restart, custom-reset adoption and warm-start
    /// paths do.
    Reset(u64),
}

/// Decode the raw proptest tuples into operations (1 tag value in 8 resets, the
/// rest swap — mirroring how rarely the engine diversifies).
fn decode_ops(raw: &[(u8, usize, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(tag, a, b)| {
            if tag % 8 == 0 {
                Op::Reset(u64::from(tag) ^ ((a as u64) << 8) ^ ((b as u64) << 32))
            } else {
                Op::Swap(a, b)
            }
        })
        .collect()
}

/// A random 1-based permutation of the given order.
fn random_configuration(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = default_rng(seed);
    let mut p = random_permutation(n, &mut rng);
    p.iter_mut().for_each(|v| *v += 1);
    p
}

/// Cost of `values` according to a freshly built model (the from-scratch oracle).
fn scratch_cost<P: PermutationProblem>(factory: &impl Fn() -> P, values: &[usize]) -> u64 {
    let mut fresh = factory();
    fresh.set_configuration(values);
    fresh.global_cost()
}

/// Assert the maintained error vector equals the from-scratch recompute of a
/// fresh instance fed the same configuration.
fn assert_errors_match_scratch<P: PermutationProblem>(
    factory: &impl Fn() -> P,
    problem: &P,
    context: &str,
) {
    let mut expected = Vec::new();
    let mut fresh = factory();
    fresh.set_configuration(problem.configuration());
    fresh.variable_errors(&mut expected);
    let mut copied = Vec::new();
    problem.variable_errors(&mut copied);
    assert_eq!(
        copied, expected,
        "variable_errors diverged from the from-scratch recompute ({context})"
    );
    if let Some(cached) = problem.cached_errors() {
        assert_eq!(
            cached,
            &expected[..],
            "cached_errors diverged from the from-scratch recompute ({context})"
        );
    }
    assert_eq!(
        problem.global_cost(),
        scratch_cost(factory, problem.configuration()),
        "incremental cost diverged from the from-scratch recompute ({context})"
    );
}

/// Drive one model through a mixed swap/reset/injection sequence, property-
/// checking the full three-layer contract at every step (see the module docs).
/// Panics with a contextual message on the first violation.
pub fn assert_problem_conformance<P: PermutationProblem>(
    factory: impl Fn() -> P,
    seed: u64,
    ops: &[Op],
) {
    let mut problem = factory();
    let n = problem.size();
    assert!(n > 0, "conformance needs a non-empty problem");
    problem.set_configuration(&random_configuration(n, seed));
    assert_errors_match_scratch(&factory, &problem, "initial configuration");
    let mut probe = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Reset(reset_seed) => {
                problem.set_configuration(&random_configuration(n, seed ^ reset_seed));
            }
            Op::Swap(a, b) => {
                let (i, j) = (a % n, b % n);
                let before = problem.configuration().to_vec();
                let cost = problem.global_cost();

                // (a) delta_for_swap agrees with the from-scratch oracle …
                let mut swapped = before.clone();
                swapped.swap(i, j);
                let oracle = scratch_cost(&factory, &swapped) as i64;
                assert_eq!(
                    cost as i64 + problem.delta_for_swap(i, j),
                    oracle,
                    "delta_for_swap({i}, {j}) at step {step} (n={n}, seed={seed})"
                );
                // … and is symmetric, zero on the diagonal, and pure.
                assert_eq!(
                    problem.delta_for_swap(i, j),
                    problem.delta_for_swap(j, i),
                    "delta_for_swap must be symmetric in (i, j)"
                );
                assert_eq!(
                    problem.delta_for_swap(i, i),
                    0,
                    "delta_for_swap must be zero on i == j"
                );
                assert_eq!(problem.configuration(), &before[..]);
                assert_eq!(problem.global_cost(), cost);

                // (b) probe_partners agrees with the from-scratch oracle AND the
                // per-pair delta path for *every* candidate, and is pure.  The
                // oracle comparison is deliberately per-candidate (not left to
                // transitivity through delta_for_swap): in several models the
                // probe and delta paths share helpers, so a geometry-specific
                // bug could make them agree on the same wrong value.
                problem.probe_partners(i, &mut probe);
                assert_eq!(probe.len(), n);
                assert_eq!(probe[i], cost, "culprit slot must hold the current cost");

                // (b′) kernel equivalence, checked *before* the per-candidate
                // oracle loop so a diverging accelerated kernel is reported as
                // such rather than as a generic oracle mismatch.
                let mut reference = Vec::new();
                problem.probe_partners_reference(i, &mut reference);
                assert_eq!(
                    probe,
                    reference,
                    "probe_partners diverged from probe_partners_reference({i}) \
                     at step {step} (n={n}, seed={seed}, accelerated={})",
                    problem.has_accelerated_probe()
                );
                assert_eq!(problem.configuration(), &before[..]);
                assert_eq!(problem.global_cost(), cost);

                let mut candidate_swapped = before.clone();
                for (candidate, &probed) in probe.iter().enumerate() {
                    candidate_swapped.copy_from_slice(&before);
                    candidate_swapped.swap(i, candidate);
                    assert_eq!(
                        probed,
                        scratch_cost(&factory, &candidate_swapped),
                        "probe_partners({i})[{candidate}] vs oracle at step {step} \
                         (n={n}, seed={seed})"
                    );
                    assert_eq!(
                        probed as i64,
                        cost as i64 + problem.delta_for_swap(i, candidate),
                        "probe_partners({i})[{candidate}] vs delta at step {step} \
                         (n={n}, seed={seed})"
                    );
                }
                assert_eq!(problem.configuration(), &before[..]);
                assert_eq!(problem.global_cost(), cost);

                // (c) committing the swap keeps cost and errors consistent.
                problem.apply_swap(i, j);
                assert_eq!(problem.global_cost(), oracle as u64);
                assert_eq!(problem.configuration(), &swapped[..]);
            }
        }
        assert_errors_match_scratch(&factory, &problem, &format!("step {step} ({op:?})"));
    }
}

/// Factory for one registered model at one of its conformance sizes.
fn registry_factory(info: &'static ProblemInfo, size: usize) -> impl Fn() -> DynProblem {
    move || (info.build)(size)
}

proptest! {
    // Each case replays a full operation sequence against every registered model,
    // so the case count is left at the environment-driven default: CI pins
    // PROPTEST_CASES so tier-1 runtime stays bounded, and the nightly
    // conformance-release job cranks it up (with debug assertions forced on).

    /// The tentpole property: every registered workload honours the full
    /// three-layer evaluation contract along arbitrary swap/reset/inject
    /// sequences, at every registry-declared conformance size.
    #[test]
    fn every_registered_model_conforms(
        size_index in any::<u64>(),
        seed in any::<u64>(),
        raw_ops in proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 1..20),
    ) {
        let ops = decode_ops(&raw_ops);
        for info in registry() {
            let size = info.test_sizes[(size_index as usize) % info.test_sizes.len()];
            assert_problem_conformance(registry_factory(info, size), seed, &ops);
        }
    }

    /// Longer sequences on the two newest models at a fixed mid-size, so the
    /// workloads this suite was introduced for get disproportionate depth.
    #[test]
    fn new_workloads_survive_long_sequences(
        seed in any::<u64>(),
        raw_ops in proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 20..60),
    ) {
        let ops = decode_ops(&raw_ops);
        for key in ["langford", "number-partitioning"] {
            let info = adaptive_search::problems::find(key).expect("registered");
            let size = info.test_sizes[info.test_sizes.len() - 1];
            assert_problem_conformance(registry_factory(info, size), seed, &ops);
        }
    }
}

/// The driver itself must reject a broken model: a problem whose delta path lies
/// is caught by check (a).  This pins the kit's sensitivity, not just its
/// tolerance.
#[test]
#[should_panic(expected = "delta_for_swap")]
fn conformance_driver_catches_a_lying_delta() {
    struct LyingDelta(Vec<usize>);
    impl PermutationProblem for LyingDelta {
        fn size(&self) -> usize {
            self.0.len()
        }
        fn set_configuration(&mut self, values: &[usize]) {
            self.0 = values.to_vec();
        }
        fn configuration(&self) -> &[usize] {
            &self.0
        }
        fn global_cost(&self) -> u64 {
            self.0
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v != i + 1)
                .count() as u64
        }
        fn variable_errors(&self, out: &mut Vec<u64>) {
            out.clear();
            out.extend(
                self.0
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| u64::from(v != i + 1)),
            );
        }
        fn delta_for_swap(&self, _i: usize, _j: usize) -> i64 {
            1 // always wrong for i == j, and almost always otherwise
        }
        fn apply_swap(&mut self, i: usize, j: usize) {
            self.0.swap(i, j);
        }
    }
    assert_problem_conformance(|| LyingDelta((1..=6).collect()), 1, &[Op::Swap(0, 3)]);
}

/// A model violating the error-maintenance contract is caught by check (c).
#[test]
#[should_panic(expected = "cached_errors")]
fn conformance_driver_catches_a_stale_error_cache() {
    struct StaleCache {
        values: Vec<usize>,
        cache: Vec<u64>, // filled once, never maintained
    }
    impl PermutationProblem for StaleCache {
        fn size(&self) -> usize {
            self.values.len()
        }
        fn set_configuration(&mut self, values: &[usize]) {
            self.values = values.to_vec();
            // deliberately NOT refreshed: stale after the first call
        }
        fn configuration(&self) -> &[usize] {
            &self.values
        }
        fn global_cost(&self) -> u64 {
            self.values
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v != i + 1)
                .count() as u64
        }
        fn variable_errors(&self, out: &mut Vec<u64>) {
            out.clear();
            out.extend(
                self.values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| u64::from(v != i + 1)),
            );
        }
        fn cached_errors(&self) -> Option<&[u64]> {
            Some(&self.cache)
        }
        fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
            let missed = |pos: usize, v: usize| -> i64 { i64::from(v != pos + 1) };
            if i == j {
                return 0;
            }
            missed(i, self.values[j]) + missed(j, self.values[i])
                - missed(i, self.values[i])
                - missed(j, self.values[j])
        }
        fn apply_swap(&mut self, i: usize, j: usize) {
            self.values.swap(i, j);
        }
    }
    let factory = || StaleCache {
        values: (1..=6).collect(),
        cache: vec![9; 6],
    };
    assert_problem_conformance(factory, 1, &[Op::Swap(1, 4)]);
}

/// A deliberately wrong *accelerated* probe — the scalar reference and the delta
/// path are both correct, only the "kernel" lies — is caught by the bit-for-bit
/// equivalence check (b′), and reported as a kernel divergence rather than a
/// generic oracle mismatch.  This is the sentinel proving the equivalence layer
/// actually bites.
#[test]
#[should_panic(expected = "probe_partners_reference")]
fn conformance_driver_catches_a_diverging_kernel() {
    struct BrokenKernel(Vec<usize>);
    impl BrokenKernel {
        fn misplaced(pos: usize, v: usize) -> i64 {
            i64::from(v != pos + 1)
        }
    }
    impl PermutationProblem for BrokenKernel {
        fn size(&self) -> usize {
            self.0.len()
        }
        fn set_configuration(&mut self, values: &[usize]) {
            self.0 = values.to_vec();
        }
        fn configuration(&self) -> &[usize] {
            &self.0
        }
        fn global_cost(&self) -> u64 {
            self.0
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v != i + 1)
                .count() as u64
        }
        fn variable_errors(&self, out: &mut Vec<u64>) {
            out.clear();
            out.extend(
                self.0
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| u64::from(v != i + 1)),
            );
        }
        fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
            if i == j {
                return 0;
            }
            Self::misplaced(i, self.0[j]) + Self::misplaced(j, self.0[i])
                - Self::misplaced(i, self.0[i])
                - Self::misplaced(j, self.0[j])
        }
        fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
            // The "accelerated" path: start from the correct per-pair scores,
            // then simulate a lane-packing bug that corrupts one candidate.
            let n = self.size();
            let current = self.global_cost();
            out.clear();
            out.resize(n, current);
            for (j, slot) in out.iter_mut().enumerate() {
                if j != culprit {
                    *slot = (current as i64 + self.delta_for_swap(culprit, j)) as u64;
                }
            }
            out[(culprit + 1) % n] += 1;
        }
        fn has_accelerated_probe(&self) -> bool {
            true
        }
        fn apply_swap(&mut self, i: usize, j: usize) {
            self.0.swap(i, j);
        }
    }
    assert_problem_conformance(|| BrokenKernel((1..=6).collect()), 1, &[Op::Swap(2, 5)]);
}

/// The multi-word sentinel: a *real* registered Costas model at n = 40 — two
/// occupancy words per row, so the width-generic `W = 2` kernel is the live
/// probe path — wrapped so its accelerated probe mangles exactly one candidate,
/// simulating a second-word bug (a carry dropped at the 64-bit boundary).  The
/// scalar reference stays the genuine article, so the bit-for-bit equivalence
/// check (b′) must catch the divergence.  This proves the kit's sensitivity
/// extends to the multi-word widths, not just the toy model above.
#[test]
#[should_panic(expected = "probe_partners_reference")]
fn conformance_driver_catches_a_diverging_multi_word_kernel() {
    /// Delegates everything to a real Costas n = 40 instance except the
    /// accelerated probe, which corrupts one high-index candidate.
    struct SecondWordBug(DynProblem);
    impl PermutationProblem for SecondWordBug {
        fn size(&self) -> usize {
            self.0.size()
        }
        fn set_configuration(&mut self, values: &[usize]) {
            self.0.set_configuration(values);
        }
        fn configuration(&self) -> &[usize] {
            self.0.configuration()
        }
        fn global_cost(&self) -> u64 {
            self.0.global_cost()
        }
        fn variable_errors(&self, out: &mut Vec<u64>) {
            self.0.variable_errors(out);
        }
        fn cached_errors(&self) -> Option<&[u64]> {
            self.0.cached_errors()
        }
        fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
            self.0.delta_for_swap(i, j)
        }
        fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
            self.0.probe_partners(culprit, out);
            // A candidate whose difference buckets straddle the word boundary:
            // pretend the kernel lost an occupancy bit from the second word.
            let victim = (culprit + 37) % self.size();
            out[victim] += 1;
        }
        fn probe_partners_reference(&self, culprit: usize, out: &mut Vec<u64>) {
            self.0.probe_partners_reference(culprit, out);
        }
        fn has_accelerated_probe(&self) -> bool {
            true
        }
        fn apply_swap(&mut self, i: usize, j: usize) {
            self.0.apply_swap(i, j);
        }
    }
    let info = adaptive_search::problems::find("costas").expect("registered");
    assert_problem_conformance(|| SecondWordBug((info.build)(40)), 7, &[Op::Swap(3, 38)]);
}

/// The Costas model now advertises an accelerated probe at *every* order: the
/// single-word layout up to n = 32 and the width-generic multi-word kernel
/// beyond (two words through n = 64, slice-held rows past that, scored by the
/// AVX-512 permute body through n = 128 where the CPU has it and by the
/// scalar slice body otherwise).  On
/// both sides of each word boundary the probe agrees bit-for-bit with the
/// scalar reference over random configurations and culprits — the same
/// property (b′) enforces along conformance sequences, here pinned directly at
/// the dispatch edge.
#[test]
fn costas_advertises_its_kernel_across_every_word_width() {
    let info = adaptive_search::problems::find("costas").expect("registered");
    // One word (n ≤ 32), two words (33 ≤ n ≤ 64), and three slice-held words
    // (n = 65: the first order of the permute body, or of the scalar slice
    // body on CPUs without AVX-512).
    for size in [18usize, 31, 32, 33, 40, 64, 65] {
        let mut problem = (info.build)(size);
        assert!(
            problem.has_accelerated_probe(),
            "costas n={size} must advertise its probe kernel"
        );
        let mut probe = Vec::new();
        let mut reference = Vec::new();
        for seed in 0..4u64 {
            problem.set_configuration(&random_configuration(size, 0xB0DA * (seed + 1)));
            for culprit in [0, size / 2, size - 1] {
                problem.probe_partners(culprit, &mut probe);
                problem.probe_partners_reference(culprit, &mut reference);
                assert_eq!(probe, reference, "costas n={size}, culprit {culprit}");
            }
        }
    }
}

/// Full conformance sequences at the multi-word Costas orders the kernel newly
/// covers: n = 33 and 40 (two mask words per row) and n = 65 (three slice-held
/// words: the AVX-512 permute body, or the scalar slice body on CPUs without
/// AVX-512).  Deterministic, independent of PROPTEST_CASES, so the large-order
/// widths are exercised by every tier-1 run rather than only when the property
/// tests happen to draw them.
#[test]
fn costas_conforms_at_multi_word_orders() {
    let info = adaptive_search::problems::find("costas").expect("registered");
    let raw: Vec<(u8, usize, usize)> = (0u8..16)
        .map(|t| (t, (13 * t as usize + 7) % 67, (17 * t as usize + 3) % 59))
        .collect();
    let ops = decode_ops(&raw);
    for size in [33usize, 40, 65] {
        assert_problem_conformance(registry_factory(info, size), 0x5EED_C057A5, &ops);
    }
}

/// Deterministic spot-check used as a fast smoke (independent of PROPTEST_CASES):
/// one fixed mixed sequence per registered model and size.
#[test]
fn fixed_sequence_smoke_across_the_whole_registry() {
    let raw: Vec<(u8, usize, usize)> = (0u8..24)
        .map(|t| (t, (7 * t as usize + 3) % 61, (11 * t as usize + 5) % 53))
        .collect();
    let ops = decode_ops(&raw);
    for info in registry() {
        for &size in info.test_sizes {
            assert_problem_conformance(registry_factory(info, size), 0xC0FFEE, &ops);
        }
    }
}
