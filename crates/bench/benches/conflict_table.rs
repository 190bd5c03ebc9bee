//! Micro-benchmarks of the conflict table — the data structure every solver's
//! inner loop stands on.  The table moves its difference histogram by ±1 per
//! touched pair on a swap and recomputes the cost, the per-position errors and
//! (off the vector tier) the scalar probe's occupancy masks in one refresh
//! pass after every change; the rows below time the read-only swap
//! evaluations and probes against the from-scratch evaluations they replace,
//! the two mutating entry points, `apply_swap` and `reset_to`, at the orders
//! the repository benchmark runs (16, 40 and 80) and at 32, the last order
//! with one-word rows, and the Costas model's dedicated reset on local minima
//! recorded from real walks at n = 16 and 32.  Where the CPU has AVX-512 F +
//! DQ + BW + VBMI (the vector tier), tables up to n = 128 keep no masks,
//! orders up to 32 keep no histogram either (a swap is the swap plus the
//! refresh pass, and the reset scores its anchored rotations eight per
//! pass), and the probe at 33 ≤ n ≤ 128 scores 64 candidates per pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use adaptive_search::{AsConfig, CostasProblem, Engine, PermutationProblem, StepOutcome};
use costas::{ConflictTable, CostModel};
use xrand::{default_rng, random_permutation, RandExt, Rng64};

/// A Costas model that records the state every dedicated reset starts from —
/// the configuration at a local minimum and the culprit — and otherwise
/// forwards everything, so the walk it rides is the plain model's.
struct ResetRecorder {
    inner: CostasProblem,
    states: Vec<(Vec<usize>, usize)>,
}

impl PermutationProblem for ResetRecorder {
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
    fn has_accelerated_probe(&self) -> bool {
        self.inner.has_accelerated_probe()
    }
    fn apply_swap(&mut self, i: usize, j: usize) {
        self.inner.apply_swap(i, j);
    }
    fn custom_reset(&mut self, worst_var: usize, rng: &mut dyn Rng64) -> Option<u64> {
        let state = (self.inner.configuration().to_vec(), worst_var);
        self.states.push(state);
        self.inner.custom_reset(worst_var, rng)
    }
}

/// The first `count` local minima a paper-default walk of order `n` resets
/// from (restarting on solutions).
fn local_minima(n: usize, count: usize) -> Vec<(Vec<usize>, usize)> {
    let recorder = ResetRecorder {
        inner: CostasProblem::new(n),
        states: Vec::new(),
    };
    let mut engine = Engine::new(recorder, AsConfig::default(), 5);
    while engine.problem().states.len() < count {
        if engine.step() == StepOutcome::Solved {
            engine.restart();
        }
    }
    let mut states = engine.into_problem().states;
    states.truncate(count);
    states
}

fn bench_conflict_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_table");
    group.sample_size(40);
    for &n in &[12usize, 16, 20, 24] {
        let mut rng = default_rng(7);
        let mut perm = random_permutation(n, &mut rng);
        perm.iter_mut().for_each(|v| *v += 1);
        let model = CostModel::optimized();

        group.bench_with_input(BenchmarkId::new("incremental_swap_eval", n), &n, |b, _| {
            let mut table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            b.iter(|| {
                let i = rng.index(n);
                let j = rng.index(n);
                black_box(table.cost_after_swap(i, j))
            });
        });

        group.bench_with_input(BenchmarkId::new("delta_for_swap", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            b.iter(|| {
                let i = rng.index(n);
                let j = rng.index(n);
                black_box(table.delta_for_swap(i, j))
            });
        });

        // The engine's actual inner loop: one batched probe of all n−1 partners.
        group.bench_with_input(BenchmarkId::new("probe_partners", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                table.probe_partners(rng.index(n), &mut out);
                black_box(out[0])
            });
        });

        // The histogram reference path every kernel is pinned against (it
        // builds each row's histogram from the values per call); the gap
        // between this row and `probe_partners` is the dispatched kernel's
        // contribution.
        group.bench_with_input(
            BenchmarkId::new("probe_partners_reference", n),
            &n,
            |b, _| {
                let table = ConflictTable::new(&perm, model);
                let mut rng = default_rng(11);
                let mut out = Vec::with_capacity(n);
                b.iter(|| {
                    table.probe_partners_reference(rng.index(n), &mut out);
                    black_box(out[0])
                });
            },
        );

        // What the batched probe replaced: n−1 apply+un-apply evaluations.
        group.bench_with_input(
            BenchmarkId::new("probe_via_apply_unapply", n),
            &n,
            |b, _| {
                let mut table = ConflictTable::new(&perm, model);
                let mut rng = default_rng(11);
                b.iter(|| {
                    let culprit = rng.index(n);
                    let mut acc = 0u64;
                    for j in 0..n {
                        if j != culprit {
                            table.apply_swap(culprit, j);
                            acc = acc.wrapping_add(table.cost());
                            table.apply_swap(culprit, j);
                        }
                    }
                    black_box(acc)
                });
            },
        );

        group.bench_with_input(BenchmarkId::new("scratch_cost", n), &n, |b, _| {
            b.iter(|| black_box(model.global_cost(&perm)));
        });

        // The selection input, as the engine reads it: a copy of the error
        // vector the last refresh pass computed.
        group.bench_with_input(BenchmarkId::new("variable_errors_cached", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut out = Vec::new();
            b.iter(|| {
                table.variable_errors(&mut out);
                black_box(out.len())
            });
        });

        // What the cached read replaced: the from-scratch O(n·d_max) histogram
        // sweep (scratch-buffer variant, so the comparison is sweep vs. read, not
        // sweep+malloc vs. read).
        group.bench_with_input(
            BenchmarkId::new("variable_errors_scratch", n),
            &n,
            |b, _| {
                let mut out = Vec::new();
                let mut scratch = Vec::new();
                b.iter(|| {
                    model.variable_errors_with(&perm, &mut out, &mut scratch);
                    black_box(out.len())
                });
            },
        );
    }

    // Either side of the single-word mask boundary and past it, against the
    // histogram reference every tier is pinned to.  On the vector tier
    // (AVX-512 F + DQ + BW + VBMI), n = 32 is the last order of the
    // from-scratch body (one word per row), and every multi-word row from
    // n = 33 to 128 takes the byte-lane body: one table lookup per bucket up
    // to n = 64 (two words at 33/34/40/64), two beyond (three words at 65/80,
    // four at 128).  Elsewhere the scalar bodies serve: the monomorphized
    // replay up to n = 64, the slice body beyond.
    for &n in &[32usize, 33, 34, 40, 64, 65, 80, 128] {
        let mut rng = default_rng(7);
        let mut perm = random_permutation(n, &mut rng);
        perm.iter_mut().for_each(|v| *v += 1);
        let model = CostModel::optimized();

        group.bench_with_input(BenchmarkId::new("probe_partners", n), &n, |b, _| {
            let table = ConflictTable::new(&perm, model);
            let mut rng = default_rng(11);
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                table.probe_partners(rng.index(n), &mut out);
                black_box(out[0])
            });
        });

        group.bench_with_input(
            BenchmarkId::new("probe_partners_reference", n),
            &n,
            |b, _| {
                let table = ConflictTable::new(&perm, model);
                let mut rng = default_rng(11);
                let mut out = Vec::with_capacity(n);
                b.iter(|| {
                    table.probe_partners_reference(rng.index(n), &mut out);
                    black_box(out[0])
                });
            },
        );
    }

    // The two mutating entry points, each ending in the refresh pass: a swap
    // (±1 on the touched pairs' counts first, where the table keeps them) and
    // the reset's adoption of a new permutation (a full histogram refill
    // first, likewise).
    for &n in &[16usize, 32, 40, 80] {
        let mut rng = default_rng(7);
        let pool: Vec<Vec<usize>> = (0..16)
            .map(|_| {
                let mut perm = random_permutation(n, &mut rng);
                perm.iter_mut().for_each(|v| *v += 1);
                perm
            })
            .collect();
        let model = CostModel::optimized();

        group.bench_with_input(BenchmarkId::new("apply_swap", n), &n, |b, _| {
            let mut table = ConflictTable::new(&pool[0], model);
            let mut rng = default_rng(11);
            b.iter(|| {
                table.apply_swap(rng.index(n), rng.index(n));
                black_box(table.cost())
            });
        });

        group.bench_with_input(BenchmarkId::new("reset_to", n), &n, |b, _| {
            let mut table = ConflictTable::new(&pool[0], model);
            let mut k = 0;
            b.iter(|| {
                k = (k + 1) % pool.len();
                table.reset_to(&pool[k]);
                black_box(table.cost())
            });
        });
    }

    // The dedicated reset (all three perturbation families) from recorded
    // local minima, cycling through 64 of them.  Each call first restores
    // the state, one `reset_to` of the same order.
    for &n in &[16usize, 32] {
        let states = local_minima(n, 64);
        group.bench_with_input(BenchmarkId::new("custom_reset", n), &n, |b, _| {
            let mut problem = CostasProblem::new(n);
            let mut rng = default_rng(11);
            let mut k = 0;
            b.iter(|| {
                k = (k + 1) % states.len();
                let (config, culprit) = &states[k];
                problem.set_configuration(config);
                black_box(problem.custom_reset(*culprit, &mut rng))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conflict_table);
criterion_main!(benches);
